"""The benchmark's tracer wraps program names from outside; they must exist.

``perfbench/tracer.py`` replaces, by name, every layer boundary the
protocol resolves (``fedpecd.server.aggregate_init``, ``Environment.pull``,
``RunTrace.write_jsonl`` and the rest).  Removing or renaming one of them
breaks ``perfbench/run.py --trace 1``; this test makes that a tier-1
failure instead.
"""

import sys
from pathlib import Path

import fedpecd.server as server

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_tracer_wraps_and_restores_every_name():
    original = server.aggregate_init
    with tracer.instrument(tracer.Tracer()):
        assert server.aggregate_init is not original
    assert server.aggregate_init is original
