"""Phase scheduling, confidence multiplier, metering, and orchestration.

A run is: an initialization round block (each agent pulls every arm once),
then H phases.  Phase p has length f_p + K rounds per agent, where
f_p = c * n^p.  Each phase is one synchronous federation round trip:
broadcast -> agent elimination -> active sets up -> design + allocations
down -> exploration -> estimates up -> aggregation -> broadcast.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
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
from .model import Scenario, build_psi_set
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

    def phase_end(self, p: int) -> int:
        """Rounds per agent through phase p (0..H), the K init pulls included."""
        return self.K + sum(self.f[:p]) + self.K * p

    def total_rounds(self) -> int:
        """Rounds per agent including the K initialization pulls."""
        return self.phase_end(self.H)


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool or a float is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def checked_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an integer of at least ``least``; anything
    else is refused by name, never truncated."""
    if not is_integer(value) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def checked_variant(variant) -> str:
    """``variant`` if it is one of ``VARIANTS``; anything else is refused by name."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


def build_schedule(c: int, n: int, K: int, T: int) -> PhaseSchedule:
    """Smallest H such that sum_{p<=H} (c n^p + K) covers the horizon T."""
    c, n, K = checked_count("c", c), checked_count("n", n, 2), checked_count("K", K)
    T = checked_count("horizon", T)
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
    return PhaseSchedule(c=c, n=n, K=K, horizon=T, f=tuple(fs))


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
    """What one phase produced, by reference to the arrays the run's owners hold.
    Its budget and end round belong to the schedule; the mask it scored is the
    previous phase's ``active`` (all arms in phase 1)."""

    phase: int
    scores: np.ndarray  # (n, 2): r_hat and u of each scored pair, in np.nonzero order
    active: np.ndarray  # the server's (M, K) mask of active sets after elimination
    issued: np.ndarray  # the server's (M, K) issued pull counts
    a_hat: np.ndarray  # the agents' (M,) empirical best arms, exploited after exploration
    exploit: np.ndarray  # (M,) rounds each agent spent on a_hat after exploring
    design: dict  # sweeps, blocks (both 0 if reused), converged, objective, gap, certificate
    regret: np.ndarray | None = None  # (M,) per-agent regret at the phase end, set as the run ends


class _ActiveRow:
    """One active-set row as the trace writes it, rendered once per ``lines()``
    call: its list text, a stats template with an r_hat and a u ``%r`` per
    arm, and an allocation template with a count ``%d`` per arm."""

    __slots__ = ("text", "stats", "alloc")

    def __init__(self, arms: list[int]):
        self.text = repr(arms)
        self.stats = ", ".join([f'{{"arm": {a}, "r_hat": %r, "u": %r}}' for a in arms])
        self.alloc = "[" + ", ".join([f"[{a}, %d]" for a in arms]) + "]"


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

    @property
    def total_rounds(self) -> int:
        return self.schedule.total_rounds()

    def regret_at(self, round_index: int) -> float:
        return dict(self.checkpoints)[round_index]

    @property
    def final_avg_regret(self) -> float:
        return self.regret_at(self.schedule.horizon)

    def any_confidence_violation(self) -> bool:
        """True if any recorded (phase, agent, arm) had |r_hat - r| >= u."""
        scored = np.ones(self.true_rewards.shape, dtype=bool)
        for rec in self.phases:
            r_hat, u = rec.scores.T
            if (np.abs(r_hat - self.true_rewards[np.nonzero(scored)]) >= u).any():
                return True
            scored = rec.active
        return False

    def any_optimal_arm_eliminated(self) -> bool:
        rows = np.arange(self.m)
        return any(not rec.active[rows, self.optimal_arms].all() for rec in self.phases)

    def lines(self):
        """The JSONL trace, one record's JSON text per line (no newline), each
        as ``json.dumps(record, sort_keys=True)`` writes it.

        The run header, the H server records and the summary are few and go
        through ``json``.  Each distinct active row is rendered once per call
        as an ``_ActiveRow``.  Each agent record is one f-string with its keys
        in sorted order, holding the stats template of the row it scored and
        the allocation template of the row it kept, both filled for the whole
        phase at once.  List repr writes ints as ``json`` does with its
        default separators, and ``%r`` of a Python float and ``%d`` of a
        Python int are the ``repr`` that ``json`` writes for them, so values
        come from ``tolist()``: ``%r`` of a numpy float is not.  A phase whose
        scores or regret are not all finite is refused before the first
        record, since ``repr`` would write ``nan``, which is not JSON.
        """
        for rec in self.phases:
            if not (np.isfinite(rec.scores).all() and np.isfinite(rec.regret).all()):
                raise FedPecdError(f"phase {rec.phase}: a score or regret is not finite")
        yield json.dumps({
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
        }, sort_keys=True)
        cache: dict[tuple[bool, ...], _ActiveRow] = {}

        def rendered(row: list[bool]) -> _ActiveRow:
            key = tuple(row)
            if key not in cache:
                cache[key] = _ActiveRow([a for a, on in enumerate(row) if on])
            return cache[key]

        # Each phase scores the arms the previous one kept: all arms in phase 1.
        after = [rendered([True] * self.schedule.K)] * self.m
        for rec in self.phases:
            before = after
            # One tolist() per array: per-row numpy calls cost more here.
            after = [rendered(row) for row in rec.active.tolist()]
            # One % per phase fills every agent's template, the templates
            # joined by a newline, which neither they nor a repr contain.  The
            # scores are in np.nonzero order with r_hat and u of a pair side by
            # side, and boolean indexing takes the kept pairs' issued counts in
            # the same order, agent by agent and arms ascending.
            stats = "\n".join([row.stats for row in before]) % tuple(rec.scores.ravel().tolist())
            alloc = "\n".join([row.alloc for row in after]) % tuple(rec.issued[rec.active].tolist())
            yield json.dumps({
                "v": TRACE_VERSION,
                "type": "server",
                "phase": rec.phase,
                "f_p": self.schedule.f_p(rec.phase),
                "union": [a for a, on in enumerate(rec.active.any(axis=0).tolist()) if on],
                "round_end": self.schedule.phase_end(rec.phase),
                "design": rec.design,
            }, sort_keys=True)
            rows = zip(before, after, stats.split("\n"), alloc.split("\n"), rec.regret.tolist())
            for i, (scored, kept, scores, counts, regret) in enumerate(rows):
                yield (f'{{"active_after": {kept.text}, "active_before": {scored.text}, '
                       f'"agent": {i}, "allocation": {counts}, "phase": {rec.phase}, '
                       f'"regret": {regret!r}, "stats": [{scores}], '
                       f'"type": "agent", "v": {TRACE_VERSION}}}')
        yield json.dumps({
            "v": TRACE_VERSION,
            "type": "summary",
            "total_rounds": self.total_rounds,
            "checkpoints": [[r, x] for r, x in self.checkpoints],
            "scalars_up": self.meter.scalars_up,
            "scalars_down": self.meter.scalars_down,
            "meter_per_phase": self.meter.per_phase,
            "design_unconverged": sum(not rec.design["converged"] for rec in self.phases),
        }, sort_keys=True)

    def write_jsonl(self, path):
        """Write ``lines()`` to ``path`` line by line, never the whole text at
        once.  The first line is taken before the file is opened, so a trace
        that ``lines()`` refuses leaves a file already at ``path`` untouched."""
        lines = self.lines()
        first = next(lines)
        with open(path, "w", encoding="utf-8") as fh:
            for line in itertools.chain([first], lines):
                fh.write(line)
                fh.write("\n")


def checkpoint_rounds(schedule: PhaseSchedule, extra=()) -> list[int]:
    """The rounds a run reports, ascending: K, each phase end, the horizon
    and each extra round, which must be an integer in 0..total_rounds."""
    total = schedule.total_rounds()
    for r in extra:
        if not is_integer(r) or not 0 <= r <= total:
            raise ConfigurationError(f"checkpoint {r!r} is not a round in 0..{total}")
    ends = map(schedule.phase_end, range(schedule.H + 1))
    return sorted({schedule.horizon, *ends, *map(int, extra)})


def run_protocol(
    scenario: Scenario,
    schedule: PhaseSchedule,
    delta: float = 0.1,
    master_seed: int = 0,
    variant: str = "hidden",
    extra_checkpoints=(),
    trace_path=None,
) -> RunTrace:
    """Execute initialization plus all scheduled phases and trace the run: one
    ``PhaseTrace`` of what each phase produced, then the regret at every
    checkpoint round, derived once from those records."""
    checked_variant(variant)
    if schedule.K != scenario.K:
        raise ConfigurationError(
            f"schedule built for K={schedule.K} but scenario has K={scenario.K}"
        )
    m, k_arms, d = scenario.M, scenario.K, scenario.d
    rounds = checkpoint_rounds(schedule, extra_checkpoints)

    env = Environment(scenario, master_seed)

    # Exact variant: the agent knows its realized context, so mu is its
    # one-hot row and psi the true feature vector.  Hidden: psi averages over mu.
    mu = scenario.mu
    if variant == "exact":
        mu = (env.contexts[:, None] == np.arange(mu.shape[1])).astype(float)
    psi = build_psi_set(scenario.features, mu, scenario.bounds)

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

    for p in range(1, schedule.H + 1):
        try:
            active_sets, scores = agents.begin_phase(broadcast)
            meter.record_up(active_sets, p)
            allocation = server.plan_phase(active_sets, schedule.f_p(p))
            meter.record_down(allocation, p)
            estimates, used = agents.explore_phase(allocation, env.pull_many)
            meter.record_up(estimates, p)
            broadcast = server.ingest_phase(estimates)
            meter.record_down(broadcast, p, copies=m)
            exploit = np.maximum(schedule.phase_length(p) - used, 0)
            agents.exploit_remainder(exploit, env.pull_many)
        except FedPecdError as exc:
            raise type(exc)(f"phase {p}: {exc}") from exc

        trace.phases.append(
            PhaseTrace(
                phase=p,
                scores=scores,
                active=server.active,
                issued=server.issued,
                a_hat=agents.a_hat,
                exploit=exploit,
                design={
                    "sweeps": server.design.sweeps,
                    "blocks": server.design.blocks,
                    "converged": server.design.converged,
                    "objective": server.design.objective,
                    "gap": server.design.gap,
                    "certificate": server.design.certificate,
                },
            )
        )

    # Each agent's pull batches in the order the Agent methods pull: K init
    # pulls, arms ascending (initialize); per phase the issued counts, arms
    # ascending (explore_phase), then the rest of the phase on a_hat
    # (exploit_remainder).  Phase ends are among the rounds: one call serves all.
    arms, counts = [np.broadcast_to(np.arange(k_arms), (m, k_arms))], [np.ones((m, k_arms), int)]
    for rec in trace.phases:
        arms += [arms[0], rec.a_hat[:, None]]
        counts += [rec.issued, rec.exploit[:, None]]
    regret = env.cumulative_regret(np.hstack(arms), np.hstack(counts), rounds)
    for rec in trace.phases:
        rec.regret = regret[rounds.index(schedule.phase_end(rec.phase))]
    trace.checkpoints = [(r, float(row.sum()) / m) for r, row in zip(rounds, regret)]

    if trace_path is not None:
        trace.write_jsonl(trace_path)
    return trace
