"""Layer tracing for the fedpecd benchmark.

Nothing under ``src/`` knows about this module.  Each layer is measured
from outside by replacing the public name its caller resolves (for
example ``fedpecd.server.solve_design``, which ``CentralServer.plan_phase``
looks up in its own module) with a wrapper that records a span.  Spans are
kept in memory as ``(name, start, end, parent)`` records; a layer's self
time is its span's duration minus the time its child spans cover.

Counters are recorded at the same boundaries, so ratios such as
``design.converged_frac`` are measured where the work happens.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import fedpecd.harness as harness
import fedpecd.protocol as protocol
import fedpecd.server as server
from fedpecd.agent import Agent
from fedpecd.environment import Environment
from fedpecd.model import Scenario
from fedpecd.protocol import CommMeter, RunTrace
from fedpecd.server import CentralServer

# Per-layer time metric -> the spans whose self times it sums.  Spans that
# some workload never enters (trace output, generation, file loading,
# sweeps, reports) are summed into their layer's total, so no reported time
# is structurally zero on any workload; the span table still splits them.
LAYER_METRICS = {
    "design.self_s": ("design",),
    "server.aggregate_s": ("server.aggregate",),
    "server.plan_self_s": ("server.plan",),
    "server.ingest_self_s": ("server.ingest",),
    "agent.score_s": ("agent.score",),
    "agent.explore_self_s": ("agent.explore",),
    "environment.pull_s": ("environment.pull",),
    "environment.ledger_s": ("environment.ledger",),
    "environment.init_s": ("environment.init",),
    "model.psi_s": ("model.psi",),
    "model.scenario_s": ("model.scenario",),
    "protocol.meter_s": ("protocol.meter",),
    "protocol.self_s": ("protocol", "protocol.trace_write"),
    "harness.self_s": ("harness.generate", "harness.load", "harness.sweep",
                       "harness.report"),
}

# Counters, all reset per traced repetition; they must repeat exactly.
COUNT_METRICS = (
    "design.calls",
    "design.sweeps",
    "design.converged",
    "design.eigh_calls",
    "server.aggregate_calls",
    "agent.arms_scored",
    "environment.pull_calls",
    "environment.pulls",
    "environment.ledger_calls",
    "model.load_calls",
    "protocol.trace_bytes",
    "harness.report_bytes",
    "linalg.pinv_calls",
)

ROOT = "bench"


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.in_design = 0

    def call(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus covered child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def root_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == ROOT)


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary the protocol calls; restore on exit."""
    p = Patcher()
    c = tracer.counts

    def span(owner, attr, name, after=None):
        p.set(owner, attr, _spanned(tracer, name, getattr(owner, attr), after))

    def count_only(owner, attr, counter, guard=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if guard is None or guard():
                c[counter] += 1
            return fn(*args, **kwargs)

        p.set(owner, attr, wrapper)

    def bump(counter):
        return lambda args, kwargs, result: c.update((counter,))

    solve = server.solve_design

    def traced_solve(*args, **kwargs):
        tracer.in_design += 1
        try:
            alloc = tracer.call("design", solve, args, kwargs)
        finally:
            tracer.in_design -= 1
        c["design.calls"] += 1
        c["design.sweeps"] += alloc.sweeps
        c["design.converged"] += int(alloc.converged)
        return alloc

    def on_score(args, kwargs, result):
        c["agent.arms_scored"] += len(result[1])

    def on_pull(args, kwargs, result):
        c["environment.pull_calls"] += 1
        c["environment.pulls"] += 1

    def on_pull_many(args, kwargs, result):
        c["environment.pull_calls"] += 1
        c["environment.pulls"] += int(args[3] if len(args) > 3 else kwargs["count"])

    def on_trace_write(args, kwargs, result):
        c["protocol.trace_bytes"] += os.path.getsize(args[1])

    def on_report(args, kwargs, result):
        c["harness.report_bytes"] += os.path.getsize(args[1])

    try:
        # Solver and its eigendecompositions (counted only inside solves).
        p.set(server, "solve_design", traced_solve)
        for attr in ("eigh", "eigvalsh"):
            count_only(np.linalg, attr, "design.eigh_calls", lambda: tracer.in_design)

        # Server: planning, ingest, aggregation, pseudo-inverses.
        span(CentralServer, "plan_phase", "server.plan")
        span(CentralServer, "ingest_init", "server.ingest")
        span(CentralServer, "ingest_phase", "server.ingest")
        for attr in ("aggregate_init", "aggregate_phase"):
            span(server, attr, "server.aggregate", bump("server.aggregate_calls"))
        count_only(server, "pinv", "linalg.pinv_calls")

        # Agents: scoring + elimination, exploration and exploitation.
        span(Agent, "begin_phase", "agent.score", on_score)
        for attr in ("initialize", "explore_phase", "exploit_remainder"):
            span(Agent, attr, "agent.explore")

        # Environment: construction, pulls, regret ledger.
        span(Environment, "__init__", "environment.init")
        span(Environment, "pull", "environment.pull", on_pull)
        span(Environment, "pull_many", "environment.pull", on_pull_many)
        span(Environment, "cumulative_regret", "environment.ledger",
             bump("environment.ledger_calls"))

        # Model: psi tables; scenario construction and validation, from a
        # document or from the generator.
        span(protocol, "build_psi_set", "model.psi")
        span(Scenario, "__init__", "model.scenario")
        load = Scenario.__dict__["from_json_dict"].__func__
        p.set(Scenario, "from_json_dict", classmethod(
            _spanned(tracer, "model.scenario", load, bump("model.load_calls"))))

        # Protocol: metering, trace output, and the orchestrator itself.
        span(CommMeter, "record_up", "protocol.meter")
        span(CommMeter, "record_down", "protocol.meter")
        span(RunTrace, "write_jsonl", "protocol.trace_write", on_trace_write)
        traced_run = _spanned(tracer, "protocol", protocol.run_protocol)
        p.set(protocol, "run_protocol", traced_run)
        p.set(harness, "run_protocol", traced_run)

        # Harness: generation, file loading, sweeps, reports.
        span(harness, "generate_synthetic", "harness.generate")
        span(harness, "load_features", "harness.load")
        span(harness, "run_sweep", "harness.sweep")
        for attr in ("write_sweep_csv", "write_sweep_json"):
            span(harness, attr, "harness.report", on_report)
        yield tracer
    finally:
        p.restore()
