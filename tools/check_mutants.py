"""Mutation check: every mutant listed in ``tools/mutants.json`` must fail tier-1.

Run from anywhere:

    python tools/check_mutants.py

Each mutant names a file under ``src/``, an exact text that must occur in it
exactly once, the text to put in its place, why the change matters and, in
``killed_by``, the pytest node id of a tier-1 test that kills it.  For each
mutant the script copies ``src/`` into a temporary directory, applies that
one edit to the copy and runs the named test against it.  Only if that test
passes are the whole tier-1 tests run, with ``python -m pytest -x -q``, so
what counts as killed is the same as running tier-1 alone: a mutant tier-1
does not kill fails the check, and one killed only by the full run is
reported with its named test, which needs retargeting.  A mutant listed
with an ``equivalent`` reason is one that outputs cannot show; it names no
test, runs the whole tier-1, is expected to survive, and fails the check if
a test kills it, so the list stays true.  A mutant whose old text is missing
or ambiguous, or that is not equivalent and names no test, fails the check
before any test runs: the change that moved the code retargets it.

Exits 0 when every mutant behaves as listed and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
# A mutant that hangs the suite is not a surviving one; tier-1 takes seconds.
TIMEOUT_S = 600
# The acceptance suite runs whole sweeps.  A mutant that stops the design
# converging takes minutes there but fails a unit test in seconds, so the
# acceptance file runs last; every tier-1 test still runs until one fails.
LAST = "test_acceptance.py"
TIER1 = [str(p) for p in sorted((ROOT / "tests").glob("test_*.py"),
                                key=lambda p: (p.name == LAST, p.name))]


def check_targets(mutants: list[dict]) -> list[str]:
    """One error per mutant whose old text does not occur exactly once, or
    that is not equivalent and names no killing test."""
    errors = []
    for m in mutants:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if count != 1:
            errors.append(f"{m['id']}: old text occurs {count} times in {m['file']}, not once")
        if "equivalent" not in m and not m.get("killed_by"):
            errors.append(f"{m['id']}: names no test in killed_by")
    return errors


def run_tests(src: Path, tests: list[str]) -> tuple[str, float]:
    """Run ``tests`` against the copy ``src``: ``killed``, ``survived`` or an
    error note, and the seconds the run took."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    resolved = subprocess.run(
        [sys.executable, "-c", "import fedpecd; print(fedpecd.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(resolved).is_relative_to(src):
        raise SystemExit(f"fedpecd resolved to {resolved}, not the copy under {src}")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "killed", time.perf_counter() - start
    seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # code (a collection or usage error, or a named test that is not found)
    # says the mutant or its entry is not a clean one.
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode)
    if outcome is None:
        tail = "\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:])
        outcome = f"pytest exited {proc.returncode}:\n{tail}"
    return outcome, seconds


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    errors = check_targets(mutants)
    if errors:
        print("\n".join(errors))
        return 1
    failed = 0
    for m in mutants:
        with tempfile.TemporaryDirectory(prefix="fedpecd-mutant-") as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src.parent / m["file"]
            path.write_text(path.read_text(encoding="utf-8").replace(m["old"], m["new"]),
                            encoding="utf-8")
            named = m.get("killed_by")
            outcome, seconds = run_tests(src, [named]) if named else ("survived", 0.0)
            by = named
            if outcome == "survived":
                outcome, more = run_tests(src, TIER1)
                seconds += more
                by = "tier-1" + (f", not by {named}, which needs retargeting" if named else "")
        expected = "survived" if "equivalent" in m else "killed"
        ok = outcome == expected
        failed += not ok
        if outcome == "killed":
            outcome = f"killed by {by}"
        note = f" (equivalent: {m['equivalent']})" if "equivalent" in m else ""
        print(f"{'ok  ' if ok else 'FAIL'} {m['id']}: {outcome} in {seconds:.1f} s{note}")
        if not ok:
            print(f"     why it matters: {m['why']}")
    print(f"{len(mutants) - failed} of {len(mutants)} mutants behaved as listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
