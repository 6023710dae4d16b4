"""The benchmark's tracer wraps program names from outside; they must exist.

``perfbench/tracer.py`` replaces, by name, every layer boundary the
protocol resolves (``fedpecd.server.aggregate_init``, ``Environment.pull``,
``RunTrace.write_jsonl`` and the rest).  Removing or renaming one of them
breaks ``perfbench/run.py --trace 1``; this test makes that a tier-1
failure instead.  The same goes for the ``RunTrace`` fields the benchmark's
output checks and ``RunObserver`` read.
"""

import math
import sys
from pathlib import Path

import numpy as np

import fedpecd.harness as harness
import fedpecd.protocol as protocol
import fedpecd.server as server

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_and_restores_every_name():
    original = server.aggregate_init
    with tracer.instrument(tracer.Tracer()):
        assert server.aggregate_init is not original
    assert server.aggregate_init is original


def test_tracer_counts_match_the_run():
    """The benchmark counts one scored arm per score row that
    ``Agent.begin_phase`` returns, one pull per round and one
    ``fedpecd.server.pinv`` call per aggregation; a changed return shape, a
    pull counted twice (``pull`` calling ``pull_many``) or a per-arm
    pseudo-inverse breaks it.  It counts one regret derivation per run."""
    scenario = harness.generate_synthetic(harness.desk_spec(m=6), seed=3, variant="hidden")
    schedule = protocol.build_schedule(1, 2, scenario.K, 2**9)
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        trace = protocol.run_protocol(scenario, schedule, master_seed=0)
    # Each phase scores the arms the previous one kept: all arms in phase 1.
    assert [len(rec.scores) for rec in trace.phases] == [scenario.M * scenario.K] + [
        np.count_nonzero(rec.active) for rec in trace.phases[:-1]
    ]
    entries = sum(len(rec.scores) for rec in trace.phases)
    assert entries > 0
    assert tr.counts["agent.arms_scored"] == entries
    assert tr.counts["environment.pulls"] == scenario.M * trace.total_rounds
    # Regret is derived once per run, from the run record.
    assert tr.counts["environment.ledger_calls"] == 1
    # One batched pseudo-inverse per aggregation, not one per arm.
    assert tr.counts["linalg.pinv_calls"] == tr.counts["server.aggregate_calls"]
    # psi is built once per run, inside build_psi_set.
    assert [s[0] for s in tr.spans].count("model.psi") == 1
    # The benchmark's own output checks pass, and the fields
    # RunObserver.drain reads are present and finite.
    assert workloads.check_run(trace) == []
    for value in (trace.m, trace.total_rounds, trace.final_avg_regret, trace.meter.total):
        assert math.isfinite(value)


def test_tracer_counts_one_document_load():
    """``model.load_calls`` counts ``Scenario.from_json_dict``; a loader that
    parses the document some other way, or twice, breaks it."""
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        harness.load_features(Path(__file__).resolve().parents[1] / "data" / "movielens_like.json")
    assert tr.counts["model.load_calls"] == 1
