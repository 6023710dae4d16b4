"""Experiment layer: scenario generation, feature-file ingestion, sweeps.

Synthetic scenarios mirror the benchmark setup: a shared reward direction,
suboptimality gaps and feature norms drawn inside declared ranges, and a
"hidden" observation model where each agent sees a finite mixture over its
true context plus perturbed copies.  The declared gap range constrains the
base-context feature data; perturbed copies shift both feature geometry
and expected rewards by up to the perturbation magnitude.  When an arm's
base gap is comparable to the perturbation, the realized context's best
arm can differ from the best arm under the mixture average psi; that
ambiguity is the hidden-context phenomenon the simulator exists to study,
so the generator deliberately does not prevent it.  Feature norms stay
inside the declared band for every stored vector (base norms are drawn one
perturbation away from the edges), so the norm bounds always hold.

A fraction of agents can be made "contested": their perturbed copies
prefer a different arm than the base context (the shared-account setting
where family members have different favorites).  For a contested agent the
mixture average ranks the top two arms as ties, so distribution knowledge
alone cannot resolve them, while the realized context always has a clear
favorite.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InfeasibleSpecError, ValidationError
from .linalg import sq_norms
from .model import Bounds, Scenario
from .protocol import build_schedule, checked_count, checked_variant, checkpoint_rounds, run_protocol

MAX_REJECTIONS = 10**5

# A hidden agent's mixture puts 1 - RHO on its base context and splits RHO
# evenly over the perturbed copies.
RHO = 0.5
# Per-arm thetas (theta_mode "per_arm") have norms drawn from this range.
THETA_SCALE_RANGE = (0.8, 1.0)

CSV_HEADER = "variant,M,round,mean_regret,stderr,trials"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for random scenario generation."""

    K: int = 10
    d: int = 3
    M: int = 50
    gap_range: tuple[float, float] = (0.2, 0.4)
    norm_range: tuple[float, float] = (0.5, 1.0)
    best_reward_range: tuple[float, float] = (0.55, 0.6)
    sigma: float = 1e-3
    perturbation: float = 0.1
    copies: int = 4
    theta_mode: str = "shared"  # "shared": theta_a = e1 for all arms
    contested_frac: float = 0.0
    contested_gap_range: tuple[float, float] = (0.25, 0.35)
    name: str = "synthetic"

    def __post_init__(self):
        # Sizes that are not integers are refused by name, never truncated.
        checked_count("d", self.d, 2)
        checked_count("K", self.K, 2)
        checked_count("M", self.M)
        for lo, hi in (self.gap_range, self.norm_range, self.best_reward_range):
            if not (0.0 < lo <= hi):
                raise ConfigurationError(f"range [{lo}, {hi}] must satisfy 0 < lo <= hi")
        if self.norm_range[1] > 1.0:
            raise ConfigurationError("feature norms cannot exceed 1")
        if self.theta_mode not in ("shared", "per_arm"):
            raise ConfigurationError(f"unknown theta_mode {self.theta_mode!r}")
        checked_count("copies", self.copies)
        lo, hi = self.norm_range
        # Negated so that a NaN perturbation fails too.
        p = self.perturbation
        if not (0.0 <= p and lo + p <= hi - p):
            raise ConfigurationError(
                "perturbation must fit the norm range: need "
                f"0 <= p and lo + p <= hi - p, got lo={lo}, hi={hi}, p={p}"
            )
        if not (0.0 <= self.contested_frac <= 1.0):
            raise ConfigurationError("contested_frac must lie in [0, 1]")
        clo, chi = self.contested_gap_range
        if not (0.0 < clo <= chi):
            raise ConfigurationError("contested_gap_range must satisfy 0 < lo <= hi")


def movielens_like_spec(m: int = 100) -> SyntheticSpec:
    """Preset shaped like the movie-rating benchmark: K=30 clusters, d=3,
    per-arm reward parameters, wide gap range, ||phi||^2 in [0.4, 0.8]."""
    return SyntheticSpec(
        K=30,
        d=3,
        M=m,
        gap_range=(0.01, 0.8),
        norm_range=(math.sqrt(0.4), math.sqrt(0.8)),
        best_reward_range=(0.45, 0.55),
        sigma=1e-3,
        perturbation=0.05,
        copies=2,
        theta_mode="per_arm",
        contested_frac=0.25,
        contested_gap_range=(0.2, 0.35),
        name="movielens-like",
    )


def desk_spec(m: int = 50) -> SyntheticSpec:
    """Fast-mixing scenario for desk-scale sweeps (T around 2^13).

    Confidence widths shrink like sqrt(dK / (M f_p)), so exhibiting the
    full eliminate-then-exploit dynamics inside a short horizon needs
    larger gaps and a tighter norm band than the full-scale default
    settings (those want horizons near 2^17).  A contested-agent share of
    0.35 keeps the hidden variant's structural handicap in play: those
    agents cannot rank their top two arms from the distribution alone.
    """
    return SyntheticSpec(
        K=5,
        d=3,
        M=m,
        gap_range=(0.25, 0.6),
        norm_range=(0.75, 1.0),
        best_reward_range=(0.8, 0.88),
        sigma=1e-3,
        perturbation=0.08,
        copies=2,
        contested_frac=0.35,
        contested_gap_range=(0.25, 0.35),
        name="desk",
    )


# Each preset's spec factory, called with the agent count M.
PRESETS = {
    "synthetic": lambda m: SyntheticSpec(M=m),
    "desk": desk_spec,
    "movielens-like": movielens_like_spec,
}


@dataclass(frozen=True)
class _Arms:
    """Per-arm reward geometry, shared by every agent of a scenario."""

    theta: np.ndarray  # (K, d) reward parameters
    norm: np.ndarray  # (K,) ||theta_a||
    sq: np.ndarray  # (K,) ||theta_a||**2
    unit: np.ndarray  # (K, d) theta_a / ||theta_a||

    @classmethod
    def of(cls, theta: np.ndarray) -> _Arms:
        norm = np.sqrt(sq_norms(theta))
        # Python's ``**`` is libm's pow, which differs from ``x * x`` in the
        # last bit for about 1 value in 1200; the squares keep its bits.
        sq = np.array([t**2 for t in norm.tolist()])
        return cls(theta, norm, sq, theta / norm[:, None])


class _Redraw(Exception):
    """The direction drawn for a slot was degenerate: replay the agent's
    stream with one more draw there."""

    def __init__(self, slot: int):
        super().__init__(slot)
        self.slot = slot


def _direction(rng, d: int, ws: list, redraws: dict[int, int]):
    """Draw the next slot's direction into ``ws``, after the degenerate
    draws an earlier replay found there."""
    for _ in range(redraws.get(len(ws), 0)):
        rng.normal(size=d)
    ws.append(rng.normal(size=d))


def _scaled(w: np.ndarray, magnitude: np.ndarray, first_slot: int,
            unit=None, orth=None) -> np.ndarray:
    """The rows of ``w`` scaled to ``magnitude``, each first made orthogonal
    to its row of ``unit`` when that is given (only where ``orth`` is true,
    when that is given).

    Raises ``_Redraw`` for the first row, numbered from ``first_slot``, whose
    norm after projection is at or below 1e-9.
    """
    proj = w
    if unit is not None:
        proj = w - (w[:, None, :] @ unit[:, :, None])[:, :, 0] * unit
        if orth is not None:
            proj = np.where(orth[:, None], proj, w)
    nrm = np.sqrt(sq_norms(proj))
    degenerate = ~(nrm > 1e-9)
    if degenerate.any():
        raise _Redraw(first_slot + int(np.argmax(degenerate)))
    return (magnitude / nrm)[:, None] * proj


def _agent_contexts(spec: SyntheticSpec, hidden: bool, stream, arms: _Arms,
                    redraws: dict[int, int]) -> np.ndarray:
    """One agent's ``(contexts, K, d)`` features: its base context, then (if
    ``hidden``) its ``spec.copies`` perturbed copies.

    The agent's draws come first, in stream order; the vector math on the
    drawn values follows in bulk.  A slot is one drawn direction, numbered
    in draw order; ``redraws[slot]`` degenerate draws there are drawn and
    dropped before the kept one.
    """
    k, d = spec.K, spec.d
    rng = np.random.Generator(np.random.PCG64(stream))
    lo, hi = spec.norm_range
    base_lo, base_hi = lo + spec.perturbation, hi - spec.perturbation

    best = int(rng.integers(k))
    r_best = float(rng.uniform(*spec.best_reward_range))
    rewards = np.full(k, r_best)
    rewards[np.arange(k) != best] -= rng.uniform(*spec.gap_range, size=k - 1)
    # Contested agents: the perturbed copies prefer a rival arm the base
    # context does not, so the mixture average ties the top two.
    pair = []  # a contested agent's best and rival arms, in arm order
    if spec.contested_frac > 0.0 and float(rng.random()) < spec.contested_frac:
        rival = int(rng.integers(k - 1))
        if rival >= best:
            rival += 1
        rewards[rival] = r_best - float(rng.uniform(*spec.contested_gap_range))
        pair = sorted((best, rival))
    # One unread draw per context keeps every later draw, so every scenario, fixed.
    rng.normal(size=d)

    # Base context: phi_a = r_a theta_a / ||theta_a||^2 plus a tail orthogonal
    # to theta_a that brings ||phi_a|| to a target drawn above each arm's
    # floor.  A contested pair's floor is its larger reward ("reach"), so
    # either arm can later be retargeted to the other's reward at its norm.
    base = (rewards / arms.sq)[:, None] * arms.theta
    base_norm = np.sqrt(sq_norms(base))
    reach = np.zeros(k)
    if pair:
        reach[pair] = max(abs(rewards[pair[0]]), abs(rewards[pair[1]]))
    top = np.maximum(base_norm, reach / arms.norm)
    unreachable = np.flatnonzero(top > base_hi + 1e-12)
    n_arms = unreachable[0] if len(unreachable) else k
    ws: list[np.ndarray] = []
    tailed, tails = [], []
    for a, floor, norm in zip(range(n_arms), np.maximum(top, base_lo).tolist(), base_norm.tolist()):
        target = rng.uniform(floor, base_hi)
        tail = math.sqrt(max(target**2 - norm**2, 0.0))
        if tail != 0.0:
            tailed.append(a)
            tails.append(tail)
            _direction(rng, d, ws, redraws)
    feats = base
    if tailed:
        feats[tailed] += _scaled(np.array(ws), np.array(tails), 0, arms.unit[tailed])
    if len(unreachable):
        a = unreachable[0]
        raise InfeasibleSpecError(
            f"reward {rewards[a]} (reach {reach[a]}) unreachable within norm bound {base_hi}"
        )
    if not hidden:
        return feats[None]

    # A contested copy swaps the pair's rewards at the base norms, keeping
    # each base tail's direction (it protects the mixture psi's norm floor).
    # A base feature with no tail (norm at most 1e-12) takes a direction
    # drawn for each copy instead.
    copies, n_arms, turns = spec.copies, k, {}
    if pair:
        pair_unit, pair_feats = arms.unit[pair], feats[pair]
        pair_norm = np.sqrt(sq_norms(pair_feats))
        along = rewards[pair[::-1]] / arms.norm[pair]
        tail = pair_feats - (pair_feats[:, None, :] @ pair_unit[:, :, None])[:, :, 0] * pair_unit
        tail_norm = np.sqrt(sq_norms(tail))
        kept = tail_norm > 1e-12
        tail_len = np.array([math.sqrt(max(n**2 - s**2, 0.0))
                             for n, s in zip(pair_norm.tolist(), along.tolist())])
        tail_dir = np.divide(tail, tail_norm[:, None], out=np.zeros_like(tail), where=kept[:, None])
        retarget = along[:, None] * pair_unit + tail_len[:, None] * tail_dir
        short = np.flatnonzero(np.abs(along) > pair_norm + 1e-12)
        if len(short):
            # The retarget is the same in every copy, so an unreachable one
            # is met first in copy 0, at that arm.
            copies, n_arms = 1, pair[short[0]]
        turns = {a: j for j, a in enumerate(pair) if not kept[j]}

    first_slot = len(ws)
    slot_arms, slot_copies, mags = [], [], []
    for c in range(copies):
        rng.normal(size=d)  # the copy's unread draw
        for a in range(n_arms):
            if a in pair:
                if a not in turns:
                    continue
                mag = 1.0
            else:
                mag = spec.perturbation * float(rng.uniform(0.5, 1.0))
                if mag == 0.0:
                    continue
            slot_arms.append(a)
            slot_copies.append(c)
            mags.append(mag)
            _direction(rng, d, ws, redraws)
    offsets = np.zeros((copies, k, d))
    if mags:
        free = np.array([a not in turns for a in slot_arms])
        unit = arms.unit[slot_arms] if turns else None
        dirs = _scaled(np.array(ws[first_slot:]), np.array(mags), first_slot, unit, ~free)
        offsets[np.array(slot_copies)[free], np.array(slot_arms)[free]] = dirs[free]
    if pair and len(short):
        j = short[0]
        raise InfeasibleSpecError(
            f"reward {rewards[pair[1 - j]]} unreachable at feature norm {pair_norm[j]}"
        )
    rows = feats + offsets
    if pair:
        rows[:, pair] = retarget
        for i, (c, a) in enumerate(zip(slot_copies, slot_arms)):
            if a in turns:
                j = turns[a]
                rows[c, a] = along[j] * pair_unit[j] + tail_len[j] * dirs[i]
    return np.concatenate((feats[None], rows))


def generate_synthetic(spec: SyntheticSpec, seed, variant: str = "hidden") -> Scenario:
    """Random scenario honoring a SyntheticSpec's gap, norm, and mixing settings.

    variant="hidden" gives each agent a mixture over its true context and
    `spec.copies` perturbed copies; variant="exact" gives point masses.

    Each agent is generated from its own stream in two stages: its draws,
    in stream order, with only the scalars that decide whether a draw
    happens computed between them, then the vector math on all of its arms
    and copies at once.  A drawn direction that is degenerate after its
    projection (norm at most 1e-9) is drawn again, up to ``MAX_REJECTIONS``
    times: the agent's stream is replayed from its seed with that slot's
    redraw in place.
    """
    checked_variant(variant)
    root = np.random.SeedSequence(seed)
    theta_stream, agent_root = root.spawn(2)
    theta_rng = np.random.Generator(np.random.PCG64(theta_stream))
    agent_streams = agent_root.spawn(spec.M)

    thetas = np.zeros((spec.K, spec.d))
    if spec.theta_mode == "shared":
        thetas[:, 0] = 1.0
    else:
        for a in range(spec.K):
            v = theta_rng.normal(size=spec.d)
            v /= np.linalg.norm(v)
            thetas[a] = float(theta_rng.uniform(*THETA_SCALE_RANGE)) * v
    arms = _Arms.of(thetas)

    hidden = variant == "hidden"
    blocks = []
    for stream in agent_streams:
        redraws: dict[int, int] = {}
        while True:
            try:
                blocks.append(_agent_contexts(spec, hidden, stream, arms, redraws))
                break
            except _Redraw as exc:
                redraws[exc.slot] = redraws.get(exc.slot, 0) + 1
                if redraws[exc.slot] == MAX_REJECTIONS:
                    raise InfeasibleSpecError("could not sample a perturbation direction") from None

    # Agent i's contexts are consecutive ids: its base context, then its
    # copies, which share RHO evenly.
    weights = [1.0 - RHO] + [RHO / spec.copies] * spec.copies if hidden else [1.0]
    lo, hi = spec.norm_range
    return Scenario(
        bounds=Bounds(ell=lo, big_l=hi, s=1.0),
        rewards=thetas,
        features=np.ascontiguousarray(np.concatenate(blocks).swapaxes(0, 1)),
        mu=np.kron(np.eye(spec.M), weights),
        sigma=spec.sigma,
        name=f"{spec.name}-K{spec.K}-d{spec.d}-M{spec.M}",
    )


def load_features(path) -> Scenario:
    """Load and validate a scenario file, reporting offenders by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ValidationError(f"{path}: nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from exc
    try:
        return Scenario.from_json_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


@dataclass
class SweepResult:
    horizon: int
    trials: int
    rounds: list[int]  # the checkpoint rounds, shared by every cell
    # (variant, M) -> the cell's (trials, len(rounds)) per-agent average regret curves
    cells: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)


def curve_stats(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A cell's mean regret curve and its standard error (zero for one trial)."""
    mean = curves.mean(axis=0)
    if len(curves) == 1:
        return mean, np.zeros_like(mean)
    return mean, curves.std(axis=0, ddof=1) / math.sqrt(len(curves))


def _scenario_for_trial(source, trial: int, base_seed: int, m_max: int) -> Scenario:
    if isinstance(source, Scenario):
        return source
    spec = replace(source, M=max(source.M, m_max))
    return generate_synthetic(spec, seed=(base_seed, 1, trial), variant="hidden")


def _run_cell(task):
    (scenario, variant, m, trial, base_seed, schedule, delta, extras) = task
    trace = run_protocol(
        scenario.restrict(m),
        schedule,
        delta=delta,
        master_seed=(base_seed, 2, trial),
        variant=variant,
        extra_checkpoints=extras,
    )
    return [v for _, v in trace.checkpoints]


def run_sweep(
    source,
    variants=("hidden",),
    agent_counts=(25,),
    trials: int = 20,
    horizon: int = 2**13,
    c: int = 1,
    n: int = 2,
    delta: float = 0.1,
    base_seed: int = 0,
    extra_checkpoints=(),
    workers: int = 1,
) -> SweepResult:
    """Run trials per (variant, M) cell and aggregate regret curves.

    All cells of a trial share one scenario, generated once per trial and
    restricted to the first M agents in each cell, and one run seed, so
    variant and M comparisons are paired.  Runs come back in task order
    (``map`` and ``pool.map`` both keep it), each cell as one block of
    ``trials`` runs, so the worker count cannot change the result.  The
    schedule and its checkpoint rounds are built once, before any run, and a
    cell is its ``(trials, len(rounds))`` curves (see ``curve_stats``).
    """
    trials = checked_count("trials", trials)
    workers = checked_count("workers", workers)
    variants = tuple(map(checked_variant, variants))
    agent_counts = tuple(checked_count("agent count M", m) for m in agent_counts)
    if not agent_counts:
        raise ConfigurationError("agent_counts names no agent count M")
    for what, values in (("variant", variants), ("agent count M", agent_counts)):
        if len(set(values)) < len(values):
            raise ConfigurationError(f"{what} {max(values, key=values.count)!r} is repeated")
    extras = tuple(extra_checkpoints)
    schedule = build_schedule(c, n, source.K, horizon)
    rounds = checkpoint_rounds(schedule, extras)

    m_max = max(agent_counts)
    scenarios = {t: _scenario_for_trial(source, t, base_seed, m_max) for t in range(trials)}
    cells = [(variant, m) for variant in variants for m in agent_counts]
    tasks = [
        (scenarios[trial], variant, m, trial, base_seed, schedule, delta, extras)
        for variant, m in cells
        for trial in range(trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]

    result = SweepResult(horizon=schedule.horizon, trials=trials, rounds=rounds)
    for j, key in enumerate(cells):
        result.cells[key] = np.array(outcomes[j * trials:(j + 1) * trials])
    return result


def sweep_csv_lines(result: SweepResult):
    yield CSV_HEADER
    for (variant, m), curves in sorted(result.cells.items()):
        means, stderrs = curve_stats(curves)
        for r, mean, err in zip(result.rounds, means.tolist(), stderrs.tolist()):
            yield f"{variant},{m},{r},{mean!r},{err!r},{result.trials}"


def write_sweep_csv(result: SweepResult, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in sweep_csv_lines(result):
            fh.write(line)
            fh.write("\n")


def sweep_summary(result: SweepResult) -> dict:
    cells = []
    for (variant, m), curves in sorted(result.cells.items()):
        mean, stderr = curve_stats(curves)
        cells.append({
            "variant": variant,
            "M": m,
            "rounds": list(result.rounds),
            "mean_regret": [float(x) for x in mean],
            "stderr": [float(x) for x in stderr],
            "final_mean": float(mean[-1]),
            "final_stderr": float(stderr[-1]),
        })
    return {"horizon": result.horizon, "trials": result.trials, "cells": cells}


def write_sweep_json(result: SweepResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sweep_summary(result), fh, indent=1, sort_keys=True)
        fh.write("\n")
