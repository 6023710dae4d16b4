"""fedpecd benchmark: one workload per process, metrics as JSON on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload movielens-design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-synthetic --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload desk-sweep --seed 1 --selftest

``--trace 0`` times whole iterations untraced and reports the end-to-end
metrics, in host-speed calibrated seconds (``hostclock.py``).  ``--trace 1`` splits the budget between untraced iterations and
traced repetitions (set-up plus one iteration each, every layer boundary
wrapped) and reports the per-layer metrics.  ``--selftest`` is a traced run
with at least two repetitions whose counters must repeat exactly.

The program is imported from ``src/`` next to this directory; a checkout
without it fails before printing a result.  The exit code is nonzero when
an output check fails or the program cannot be imported.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one thread per process.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from statistics import median  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def import_program():
    """Import fedpecd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fedpecd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fedpecd from {SRC}: {exc}") from None
    if Path(fedpecd.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: fedpecd resolved to {fedpecd.__file__}, not {SRC}")
    return fedpecd


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_setups(workload, clock, min_reps=5, min_seconds=2.0):
    """Repeat the set-up; returns its state and the per-repetition
    (raw, calibrated) times."""
    times = []
    while len(times) < min_reps or sum(raw for raw, _ in times) < min_seconds:
        mark = clock.mark()
        state = workload.setup()
        times.append(clock.since(mark))
    return state, times


class Iteration:
    def __init__(self, wall, raw_wall, runs, digests, errors, n_warnings):
        self.wall = wall
        self.raw_wall = raw_wall
        self.runs = runs
        self.digests = digests
        self.errors = errors + [e for r in runs for e in r.errors]
        self.n_warnings = n_warnings

    @property
    def failed(self) -> int:
        """Runs that raised or failed a check; at least one if anything failed."""
        return max(sum(1 for r in self.runs if r.errors), int(bool(self.errors)))


def run_iteration(workload, state, observer, outdir, wl):
    """One timed iteration; warnings are recorded and counted, never dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mark = observer.clock.mark()
        try:
            digests, errors = workload.iterate(state, outdir)
        except Exception as exc:  # a failed run is counted, not fatal
            digests, errors = {}, [f"{type(exc).__name__}: {exc}"]
        raw_wall, wall = observer.clock.since(mark)
    runs = observer.drain()
    digests["final_regret_sha256"] = wl.regret_digest(runs)
    return Iteration(wall, raw_wall, runs, digests, errors, len(caught))


def loop(budget, min_count, body):
    """Call body() at least min_count times, then while the next call is
    predicted to end within the budget."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_count and elapsed + median(durations) > budget:
            return results


def consistency_errors(iterations):
    """Same seed, same program: every iteration must produce the same outputs."""
    first = iterations[0]
    errors = []
    for it in iterations[1:]:
        if it.digests != first.digests:
            errors.append(f"outputs differ between iterations: {first.digests} vs {it.digests}")
    return errors


def end_to_end(iterations, setup_times):
    runs = [r for it in iterations for r in it.runs]
    first = iterations[0].runs
    throughput = [
        sum(r.agent_rounds for r in it.runs) / sum(r.seconds for r in it.runs)
        for it in iterations
    ]
    return {
        "wall_s": (median([it.wall for it in iterations]), "s"),
        "run_s": (median([r.seconds for r in runs]), "s"),
        "agent_rounds_per_s": (median(throughput), "1/s"),
        "setup_s": (median([cal for _, cal in setup_times]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_regret": (statistics.fmean(r.final_regret for r in first), "regret"),
        "comm_scalars": (sum(r.comm_scalars for r in first), "count"),
    }


def per_layer(reps, untraced, traced_run_s, src_lines, tr):
    """Per-layer metrics from traced repetitions (times: median over reps)."""
    values = {}
    for metric, spans in tr.LAYER_METRICS.items():
        values[metric] = (median([sum(rep["self"].get(s, 0.0) for s in spans)
                                  for rep in reps]), "s")
    counts = reps[0]["counts"]
    for name in tr.COUNT_METRICS:
        if name != "design.converged":
            values[name] = (counts.get(name, 0), "count")
    calls = counts.get("design.calls", 0)
    values["design.converged_frac"] = (
        counts.get("design.converged", 0) / calls if calls else 1.0, "frac")
    values["linalg.warnings"] = (reps[0]["warnings_per_run"], "count")
    untraced_run_s = median([r.raw_seconds for it in untraced for r in it.runs])
    values["tracing_overhead_frac"] = (traced_run_s / untraced_run_s - 1.0, "frac")
    values["repo.src_lines"] = (src_lines, "count")
    return values


def count_src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def traced_rep(workload, observer, outdir, wl, tr):
    """Set-up plus one iteration with every layer boundary wrapped.  The
    host clock is not sampling here, so span times are raw seconds."""
    def body():
        state = workload.setup()
        return run_iteration(workload, state, observer, outdir, wl)

    tracer = tr.Tracer()
    with tr.instrument(tracer), observer.installed():
        # The root span's self time is the benchmark's own residue.
        iteration = tracer.call(tr.ROOT, body, (), {})
    n_runs = max(len(iteration.runs), 1)
    return {
        "iteration": iteration,
        "self": tracer.self_times(),
        "root_s": tracer.root_seconds(),
        "counts": tracer.counts,
        "warnings_per_run": iteration.n_warnings / n_runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="traced run with two repetitions whose counts must match")
    args = parser.parse_args(argv)
    traced = args.trace == 1 or args.selftest

    fedpecd = import_program()
    import numpy as np

    import hostclock
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload](ROOT, args.seed)

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fedpecd": fedpecd.__version__,
        "threads": THREAD_ENV,
        "hostclock": {"interval_s": hostclock.INTERVAL_S,
                      "probe_steps": hostclock.PROBE_STEPS,
                      "reference_probe_s": hostclock.REFERENCE_PROBE_S},
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    clock = hostclock.HostClock()
    observer = wl.RunObserver(clock)
    budget = args.seconds / 2.0 if traced else args.seconds
    try:
        with clock.running():
            state, setup_times = timed_setups(workload, clock)
            with observer.installed():
                iterations = loop(budget, 1, lambda: run_iteration(
                    workload, state, observer, outdir, wl))
        reps = loop(budget, 2 if args.selftest else 1, lambda: traced_rep(
            workload, observer, outdir, wl, tr)) if traced else []
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    checked = iterations + [rep["iteration"] for rep in reps]
    errors = [e for it in checked for e in it.errors] + consistency_errors(checked)
    for a, b in zip(reps, reps[1:]):
        if a["counts"] != b["counts"] or a["warnings_per_run"] != b["warnings_per_run"]:
            errors.append(f"traced counts differ between repetitions: "
                          f"{dict(a['counts'])} vs {dict(b['counts'])}")
    attempted = sum(len(it.runs) for it in checked) or 1
    failed = min(attempted, max(sum(it.failed for it in checked), int(bool(errors))))

    runs = [r.seconds for it in iterations for r in it.runs]
    tail = tail_percentile(runs)
    print(f"runs: n={len(runs)} median={median(runs):.6f}s" + (
        f" p{tail[0]}={tail[1]:.6f}s" if tail else " (tail percentile needs n>=11)"))
    print(f"host: {len(clock.samples)} probes, median {median(clock.samples):.6f}s "
          f"({median(clock.samples) / hostclock.REFERENCE_PROBE_S:.3f}x the reference); "
          f"raw medians: wall {median([it.raw_wall for it in iterations]):.6f}s, "
          f"run {median([r.raw_seconds for it in iterations for r in it.runs]):.6f}s, "
          f"setup {median([raw for raw, _ in setup_times]):.6f}s")
    print("digests " + json.dumps(iterations[0].digests, sort_keys=True))
    print(f"warnings: {iterations[0].n_warnings} in the first iteration "
          f"({len(iterations[0].runs)} runs)")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")

    if traced:
        traced_runs = [r.raw_seconds for rep in reps for r in rep["iteration"].runs]
        metrics = per_layer(reps, iterations, median(traced_runs), count_src_lines(), tr)
        total = median([rep["root_s"] for rep in reps])
        spans = {name: median([rep["self"].get(name, 0.0) for rep in reps])
                 for name in reps[0]["self"]}
        for name in sorted(spans, key=spans.get, reverse=True):
            print(f"span {name:20s} self {spans[name]:10.4f} s "
                  f"{100 * spans[name] / total:5.1f}%")
        print(f"span total (traced set-up + iteration) {total:.4f} s")
    else:
        metrics = end_to_end(iterations, setup_times)
    for k, (v, u) in metrics.items():
        print(f"metric {k} = {v!r} {u}")

    ok = not errors
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
