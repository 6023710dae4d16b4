"""Phase scheduling, confidence multiplier, metering, and orchestration.

A run is: an initialization round block (each agent pulls every arm once),
then H phases.  Phase p has length f_p + K rounds per agent, where
f_p = c * n^p.  Each phase is one synchronous federation round trip:
broadcast -> agent elimination -> active sets up -> design + allocations
down -> exploration -> estimates up -> aggregation -> broadcast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .agent import Agent
from .environment import Environment
from .errors import ConfigurationError, FedPecdError, ProtocolError
from .messages import (
    ActiveSetUpload,
    AllocationMessage,
    GlobalBroadcast,
    LocalEstimateUpload,
)
from .model import ContextDistribution, Scenario, build_psi_set
from .server import DESIGN_TOL, CentralServer

TRACE_VERSION = 3

VARIANTS = ("exact", "hidden")


@dataclass(frozen=True)
class PhaseSchedule:
    """Geometric phase lengths f_p = c * n^p, p = 1..H."""

    c: int
    n: int
    K: int
    horizon: int
    f: tuple[int, ...]

    @property
    def H(self) -> int:
        return len(self.f)

    def f_p(self, p: int) -> int:
        return self.f[p - 1]

    def phase_length(self, p: int) -> int:
        return self.f_p(p) + self.K

    def total_rounds(self) -> int:
        """Rounds per agent including the K initialization pulls."""
        return self.K + sum(self.f) + self.K * self.H


def build_schedule(c: int, n: int, K: int, T: int) -> PhaseSchedule:
    """Smallest H such that sum_{p<=H} (c n^p + K) covers the horizon T."""
    if c < 1 or int(c) != c:
        raise ConfigurationError(f"c must be a positive integer, got {c}")
    if n < 2 or int(n) != n:
        raise ConfigurationError(f"n must be an integer > 1, got {n}")
    if K < 1:
        raise ConfigurationError(f"K must be positive, got {K}")
    if T < c * n + K:
        raise ConfigurationError(
            f"horizon {T} shorter than one phase (f_1 + K = {c * n + K})"
        )
    fs = []
    covered = 0
    p = 1
    while covered < T:
        f = c * n**p
        fs.append(f)
        covered += f + K
        p += 1
    return PhaseSchedule(c=int(c), n=int(n), K=int(K), horizon=int(T), f=tuple(fs))


def compute_alpha(m: int, k_arms: int, h: int, d: int, delta: float) -> tuple[float, float]:
    """Confidence multiplier alpha and the smallest feasible k.

    alpha = min( sqrt(2 log(2MKH/delta)),
                 sqrt(2 log(KH/delta) + d log(k e)) )
    with k > 1 the smallest number satisfying
    k d >= 2 log(KH/delta) + d log(k e), found by bisection.
    """
    if min(m, k_arms, h, d) < 1:
        raise ConfigurationError("M, K, H, d must all be positive")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    alpha1 = math.sqrt(2.0 * math.log(2.0 * m * k_arms * h / delta))
    target = 2.0 * math.log(k_arms * h / delta)

    def slack(k: float) -> float:
        return k * d - target - d * math.log(k) - d

    lo, hi = 1.0, 2.0
    while slack(hi) < 0.0:
        hi *= 2.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if slack(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    k = hi
    alpha2 = math.sqrt(target + d * math.log(k * math.e))
    return min(alpha1, alpha2), k


def meter_message(msg) -> int:
    """Number of real scalars a message carries.

    Arm ids and pull counts cost one scalar each; a theta vector costs d
    and a V matrix costs d^2.  A round costs what its rows would as
    separate messages: an arm id per pair in its ``arms`` mask, plus that
    pair's count, or its estimate and pull count.  A broadcast carries one
    arm id per model.
    """
    if isinstance(msg, LocalEstimateUpload):
        return int(msg.arms.sum()) * (2 + msg.theta_hat.shape[-1])
    if isinstance(msg, ActiveSetUpload):
        return int(msg.arms.sum())
    if isinstance(msg, GlobalBroadcast):
        d = msg.theta.shape[1]
        return int(msg.has_model.sum()) * (1 + d + d * d)
    if isinstance(msg, AllocationMessage):
        return 2 * int(msg.arms.sum())
    raise ProtocolError(f"cannot meter message of type {type(msg).__name__}")


class CommMeter:
    """Counts scalars moved in each direction, broken down by phase.

    A broadcast is delivered to every agent, so its payload is counted
    once per recipient.
    """

    def __init__(self):
        self.scalars_up = 0
        self.scalars_down = 0
        self.per_phase: list[dict] = []

    def _bucket(self, phase: int) -> dict:
        while len(self.per_phase) <= phase:
            self.per_phase.append({"phase": len(self.per_phase), "up": 0, "down": 0})
        return self.per_phase[phase]

    def record_up(self, msg, phase: int):
        cost = meter_message(msg)
        self.scalars_up += cost
        self._bucket(phase)["up"] += cost

    def record_down(self, msg, phase: int, copies: int = 1):
        cost = meter_message(msg) * copies
        self.scalars_down += cost
        self._bucket(phase)["down"] += cost

    @property
    def total(self) -> int:
        return self.scalars_up + self.scalars_down


@dataclass
class PhaseTrace:
    """One phase's record: the arrays the run's owners hold, by reference."""

    phase: int
    f_p: int
    scored: np.ndarray  # the agents' (M, K) mask of active sets before elimination
    scores: np.ndarray  # (n, 2): r_hat and u of each scored pair, in np.nonzero order
    active: np.ndarray  # the server's (M, K) mask of active sets after elimination
    issued: np.ndarray  # the server's (M, K) issued pull counts
    round_end: int
    regret: np.ndarray  # the ledger's (M,) per-agent regret at round_end
    design: dict  # the design solve's sweeps, converged, objective, gap and certificate

    @property
    def stats(self) -> list[list[tuple[int, float, float]]]:
        """Per agent, the (arm, r_hat, u) of each arm it scored, in arm order."""
        out = [[] for _ in range(len(self.scored))]
        rows, arms = np.nonzero(self.scored)
        for i, a, (r_hat, u) in zip(rows.tolist(), arms.tolist(), self.scores.tolist()):
            out[i].append((a, r_hat, u))
        return out


@dataclass
class RunTrace:
    """Everything a run produced, sufficient for replay-style assertions."""

    variant: str
    seed: int
    delta: float
    alpha: float
    k: float
    schedule: PhaseSchedule
    m: int
    sigma: float
    optimal_arms: np.ndarray  # (M,), the environment's read-only array
    true_rewards: np.ndarray  # (M, K), the environment's read-only array
    phases: list[PhaseTrace] = field(default_factory=list)
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    meter: CommMeter = field(default_factory=CommMeter)
    total_rounds: int = 0

    def regret_at(self, round_index: int) -> float:
        return dict(self.checkpoints)[round_index]

    @property
    def final_avg_regret(self) -> float:
        return self.regret_at(self.schedule.horizon)

    def any_confidence_violation(self) -> bool:
        """True if any recorded (phase, agent, arm) had |r_hat - r| >= u."""
        for rec in self.phases:
            r_hat, u = rec.scores.T
            if (np.abs(r_hat - self.true_rewards[np.nonzero(rec.scored)]) >= u).any():
                return True
        return False

    def any_optimal_arm_eliminated(self) -> bool:
        rows = np.arange(self.m)
        return any(not rec.active[rows, self.optimal_arms].all() for rec in self.phases)

    def records(self):
        """JSON-serializable trace records, one per line when written."""
        yield {
            "v": TRACE_VERSION,
            "type": "run",
            "variant": self.variant,
            "seed": self.seed,
            "M": self.m,
            "K": self.schedule.K,
            "delta": self.delta,
            "alpha": self.alpha,
            "k": self.k,
            "sigma": self.sigma,
            "c": self.schedule.c,
            "n": self.schedule.n,
            "horizon": self.schedule.horizon,
            "H": self.schedule.H,
            "design_tol": DESIGN_TOL,
        }
        for rec in self.phases:
            # One tolist() per array: per-row numpy calls cost more here.
            before, after = (
                [[a for a, on in enumerate(row) if on] for row in mask.tolist()]
                for mask in (rec.scored, rec.active)
            )
            issued, regret, stats = rec.issued.tolist(), rec.regret.tolist(), rec.stats
            yield {
                "v": TRACE_VERSION,
                "type": "server",
                "phase": rec.phase,
                "f_p": rec.f_p,
                "union": [a for a, on in enumerate(rec.active.any(axis=0).tolist()) if on],
                "round_end": rec.round_end,
                "design": rec.design,
            }
            for i in range(self.m):
                yield {
                    "v": TRACE_VERSION,
                    "type": "agent",
                    "phase": rec.phase,
                    "agent": i,
                    "active_before": before[i],
                    "active_after": after[i],
                    "stats": [{"arm": a, "r_hat": r, "u": u} for a, r, u in stats[i]],
                    "allocation": [[a, issued[i][a]] for a in after[i]],
                    "regret": regret[i],
                }
        yield {
            "v": TRACE_VERSION,
            "type": "summary",
            "total_rounds": self.total_rounds,
            "checkpoints": [[r, x] for r, x in self.checkpoints],
            "scalars_up": self.meter.scalars_up,
            "scalars_down": self.meter.scalars_down,
            "meter_per_phase": self.meter.per_phase,
            "design_unconverged": sum(not rec.design["converged"] for rec in self.phases),
        }

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


def run_protocol(
    scenario: Scenario,
    schedule: PhaseSchedule,
    delta: float = 0.1,
    master_seed: int = 0,
    variant: str = "hidden",
    extra_checkpoints=(),
    trace_path=None,
) -> RunTrace:
    """Execute initialization plus all scheduled phases and trace the run."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if schedule.K != scenario.K:
        raise ConfigurationError(
            f"schedule built for K={schedule.K} but scenario has K={scenario.K}"
        )
    m, k_arms, d = scenario.M, scenario.K, scenario.d

    env = Environment(scenario, master_seed)

    # Exact variant: the agent knows its realized context, so psi collapses
    # to the true feature vector.  Hidden variant: psi averages over mu.
    mus = ([ContextDistribution.point_mass(c) for c in env.contexts.tolist()]
           if variant == "exact" else scenario.mus)
    psi = build_psi_set(scenario.features, mus, scenario.bounds)

    alpha, k_conf = compute_alpha(m, k_arms, schedule.H, d, delta)
    agents = Agent(psi, alpha, scenario.bounds.ell)
    server = CentralServer(m, k_arms, d)
    meter = CommMeter()

    trace = RunTrace(
        variant=variant,
        seed=master_seed,
        delta=delta,
        alpha=alpha,
        k=k_conf,
        schedule=schedule,
        m=m,
        sigma=scenario.sigma,
        optimal_arms=env.optimal_arms,
        true_rewards=env.true_rewards,
        meter=meter,
    )

    # Initialization: every agent pulls every arm once (phase 0).
    upload = agents.initialize(env.pull)
    meter.record_up(upload, 0)
    broadcast = server.ingest_init(upload)
    meter.record_down(broadcast, 0, copies=m)

    round_cursor = k_arms  # rounds elapsed per agent so far

    for p in range(1, schedule.H + 1):
        try:
            f_p = schedule.f_p(p)
            scored = agents.active
            active_sets, scores = agents.begin_phase(broadcast)
            meter.record_up(active_sets, p)
            allocation = server.plan_phase(active_sets, f_p)
            meter.record_down(allocation, p)
            estimates, used = agents.explore_phase(allocation, env.pull_many)
            meter.record_up(estimates, p)
            broadcast = server.ingest_phase(estimates)
            meter.record_down(broadcast, p, copies=m)
            agents.exploit_remainder(
                np.maximum(schedule.phase_length(p) - used, 0), env.pull_many
            )
        except FedPecdError as exc:
            raise type(exc)(f"phase {p}: {exc}") from exc

        round_cursor += schedule.phase_length(p)
        per_agent, _total = env.cumulative_regret(upto=round_cursor)
        trace.phases.append(
            PhaseTrace(
                phase=p,
                f_p=f_p,
                scored=scored,
                scores=scores,
                active=server.active,
                issued=server.issued,
                round_end=round_cursor,
                regret=per_agent,
                design={
                    "sweeps": server.design.sweeps,
                    "converged": server.design.converged,
                    "objective": server.design.objective,
                    "gap": server.design.gap,
                    "certificate": server.design.certificate,
                },
            )
        )

    trace.total_rounds = round_cursor

    marks = {k_arms, schedule.horizon, *map(int, extra_checkpoints)}
    marks.update(rec.round_end for rec in trace.phases)
    for r in sorted(marks):
        if 0 <= r <= round_cursor:
            _, total = env.cumulative_regret(upto=r)
            trace.checkpoints.append((r, total / m))

    if trace_path is not None:
        trace.write_jsonl(trace_path)
    return trace
