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

from .errors import ConfigurationError, InfeasibleSpecError, ProtocolError, ValidationError
from .model import Bounds, ContextDistribution, Scenario
from .protocol import build_schedule, run_protocol

MAX_REJECTIONS = 10**5

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
    rho: float = 0.5
    theta_mode: str = "shared"  # "shared": theta_a = e1 for all arms
    theta_scale_range: tuple[float, float] = (0.8, 1.0)  # per_arm mode only
    contested_frac: float = 0.0
    contested_gap_range: tuple[float, float] = (0.25, 0.35)
    name: str = "synthetic"

    def __post_init__(self):
        if self.d < 2:
            raise ConfigurationError("synthetic generation needs d >= 2")
        if self.K < 2 or self.M < 1:
            raise ConfigurationError("need K >= 2 and M >= 1")
        for lo, hi in (self.gap_range, self.norm_range, self.best_reward_range):
            if not (0.0 < lo <= hi):
                raise ConfigurationError(f"range [{lo}, {hi}] must satisfy 0 < lo <= hi")
        if self.norm_range[1] > 1.0:
            raise ConfigurationError("feature norms cannot exceed 1")
        if self.theta_mode not in ("shared", "per_arm"):
            raise ConfigurationError(f"unknown theta_mode {self.theta_mode!r}")
        if not (0.0 <= self.rho <= 1.0) or self.copies < 1:
            raise ConfigurationError("need 0 <= rho <= 1 and copies >= 1")
        lo, hi = self.norm_range
        if lo + self.perturbation > hi - self.perturbation:
            raise ConfigurationError(
                "perturbation too large for the norm range: need "
                f"lo + p <= hi - p, got lo={lo}, hi={hi}, p={self.perturbation}"
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
        rho=0.5,
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
        rho=0.5,
        contested_frac=0.35,
        contested_gap_range=(0.25, 0.35),
        name="desk",
    )


def _orthogonal_offset(rng, direction: np.ndarray, magnitude: float) -> np.ndarray:
    """Random vector of the given magnitude orthogonal to `direction`."""
    d = direction.shape[0]
    unit = direction / np.linalg.norm(direction)
    for _ in range(MAX_REJECTIONS):
        w = rng.normal(size=d)
        w -= (w @ unit) * unit
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-9:
            return (magnitude / nrm) * w
    raise InfeasibleSpecError("could not sample an orthogonal perturbation")


def _sphere_offset(rng, d: int, magnitude: float) -> np.ndarray:
    """Random vector of the given magnitude, any direction."""
    if magnitude == 0.0:
        return np.zeros(d)
    for _ in range(MAX_REJECTIONS):
        w = rng.normal(size=d)
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-9:
            return (magnitude / nrm) * w
    raise InfeasibleSpecError("could not sample a perturbation direction")


def _feature_for_reward(rng, theta: np.ndarray, reward: float,
                        norm_lo: float, norm_hi: float,
                        reach: float = 0.0) -> np.ndarray:
    """Vector phi with theta' phi = reward and ||phi|| in [norm_lo, norm_hi].

    `reach` raises the norm floor so the vector can later be retargeted to
    a reward of that magnitude without changing its norm.
    """
    theta_norm = float(np.linalg.norm(theta))
    base = (reward / theta_norm**2) * theta
    base_norm = float(np.linalg.norm(base))
    if max(base_norm, reach / theta_norm) > norm_hi + 1e-12:
        raise InfeasibleSpecError(
            f"reward {reward} (reach {reach}) unreachable within norm bound {norm_hi}"
        )
    lo = max(norm_lo, base_norm, reach / theta_norm)
    target = float(rng.uniform(lo, norm_hi))
    tail = math.sqrt(max(target**2 - base_norm**2, 0.0))
    if tail == 0.0:
        return base
    return base + _orthogonal_offset(rng, theta, tail)


def _retarget_reward(rng, theta: np.ndarray, feat: np.ndarray,
                     new_reward: float) -> np.ndarray:
    """Feature with the same norm and tail direction as `feat` but whose
    expected reward under `theta` is `new_reward`.

    Keeping the tail direction aligned with the original keeps the angle
    between old and new feature small, which protects the mixture psi's
    norm floor.
    """
    theta_norm = float(np.linalg.norm(theta))
    unit = theta / theta_norm
    norm = float(np.linalg.norm(feat))
    along = new_reward / theta_norm
    if abs(along) > norm + 1e-12:
        raise InfeasibleSpecError(
            f"reward {new_reward} unreachable at feature norm {norm}"
        )
    tail = feat - (feat @ unit) * unit
    tail_norm = float(np.linalg.norm(tail))
    tail_dir = tail / tail_norm if tail_norm > 1e-12 else _orthogonal_offset(rng, theta, 1.0)
    tail_len = math.sqrt(max(norm**2 - along**2, 0.0))
    return along * unit + tail_len * tail_dir


def generate_synthetic(spec: SyntheticSpec, seed, variant: str = "hidden") -> Scenario:
    """Random scenario honoring a SyntheticSpec's gap, norm, and mixing settings.

    variant="hidden" gives each agent a mixture over its true context and
    `spec.copies` perturbed copies; variant="exact" gives point masses.
    """
    if variant not in ("hidden", "exact"):
        raise ConfigurationError(f"variant must be 'exact' or 'hidden', got {variant!r}")
    root = np.random.SeedSequence(seed)
    theta_stream, agent_root = root.spawn(2)
    theta_rng = np.random.Generator(np.random.PCG64(theta_stream))
    agent_streams = agent_root.spawn(spec.M)

    lo, hi = spec.norm_range
    base_lo, base_hi = lo + spec.perturbation, hi - spec.perturbation

    if spec.theta_mode == "shared":
        theta = np.zeros(spec.d)
        theta[0] = 1.0
        thetas = [theta] * spec.K
        s = 1.0
    else:
        thetas = []
        for _ in range(spec.K):
            v = theta_rng.normal(size=spec.d)
            v /= np.linalg.norm(v)
            thetas.append(float(theta_rng.uniform(*spec.theta_scale_range)) * v)
        s = 1.0

    gap_lo, gap_hi = spec.gap_range

    rows: list[np.ndarray] = []  # rows[c]: the (K, d) features of context id c
    contexts: dict[int, np.ndarray] = {}
    mus = []
    for i in range(spec.M):
        rng = np.random.Generator(np.random.PCG64(agent_streams[i]))
        best = int(rng.integers(spec.K))
        r_best = float(rng.uniform(*spec.best_reward_range))
        rewards = np.empty(spec.K)
        for a in range(spec.K):
            if a == best:
                rewards[a] = r_best
            else:
                rewards[a] = r_best - float(rng.uniform(gap_lo, gap_hi))

        # Contested agents: the perturbed copies prefer a rival arm the
        # base context does not, so the mixture average ties the top two.
        rival = -1
        if spec.contested_frac > 0.0 and float(rng.random()) < spec.contested_frac:
            rival = int(rng.integers(spec.K - 1))
            if rival >= best:
                rival += 1
            rewards[rival] = r_best - float(rng.uniform(*spec.contested_gap_range))

        base_id = len(rows)
        contexts[base_id] = rng.normal(size=spec.d)
        base_feats = np.empty((spec.K, spec.d))
        for a in range(spec.K):
            reach = 0.0
            if rival >= 0 and a in (best, rival):
                reach = max(abs(rewards[best]), abs(rewards[rival]))
            base_feats[a] = _feature_for_reward(
                rng, thetas[a], rewards[a], base_lo, base_hi, reach=reach
            )
        rows.append(base_feats)

        if variant == "exact":
            mus.append(ContextDistribution.point_mass(base_id))
            continue

        copy_ids = []
        for _ in range(spec.copies):
            cid = len(rows)
            contexts[cid] = contexts[base_id] + 0.1 * rng.normal(size=spec.d)
            row = np.empty((spec.K, spec.d))
            for a in range(spec.K):
                if rival >= 0 and a in (best, rival):
                    swapped = rewards[rival] if a == best else rewards[best]
                    row[a] = _retarget_reward(rng, thetas[a], base_feats[a], swapped)
                else:
                    mag = spec.perturbation * float(rng.uniform(0.5, 1.0))
                    row[a] = base_feats[a] + _sphere_offset(rng, spec.d, mag)
            rows.append(row)
            copy_ids.append(cid)
        support = [(base_id, 1.0 - spec.rho)]
        support += [(cid, spec.rho / spec.copies) for cid in copy_ids]
        mus.append(ContextDistribution(support))

    return Scenario(
        d=spec.d,
        K=spec.K,
        M=spec.M,
        bounds=Bounds(ell=lo, big_l=hi, s=s),
        rewards=thetas,
        features=np.stack(rows, axis=1),
        mus=mus,
        sigma=spec.sigma,
        contexts=contexts,
        name=f"{spec.name}-K{spec.K}-d{spec.d}-M{spec.M}",
    )


def load_features(path) -> Scenario:
    """Load and validate a scenario file, reporting offenders by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from exc
    try:
        return Scenario.from_json_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


@dataclass
class SweepCell:
    variant: str
    m: int
    rounds: list[int]
    curves: np.ndarray  # (trials, len(rounds)) per-agent average regret
    mean: np.ndarray
    stderr: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])

    def per_trial_final(self) -> np.ndarray:
        return self.curves[:, -1]


@dataclass
class SweepResult:
    horizon: int
    trials: int
    cells: dict[tuple[str, int], SweepCell] = field(default_factory=dict)

    def cell(self, variant: str, m: int) -> SweepCell:
        return self.cells[(variant, m)]


def _scenario_for_trial(source, trial: int, base_seed: int, m_max: int) -> Scenario:
    if isinstance(source, Scenario):
        return source
    spec = replace(source, M=max(source.M, m_max))
    return generate_synthetic(spec, seed=(base_seed, 1, trial), variant="hidden")


def _run_cell(task):
    (scenario, variant, m, trial, base_seed, c, n, horizon, delta, extras) = task
    scenario = scenario.restrict(m)
    schedule = build_schedule(c, n, scenario.K, horizon)
    trace = run_protocol(
        scenario,
        schedule,
        delta=delta,
        master_seed=(base_seed, 2, trial),
        variant=variant,
        extra_checkpoints=extras,
    )
    rounds = [r for r, _ in trace.checkpoints]
    values = [v for _, v in trace.checkpoints]
    return (variant, m, trial), rounds, values


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
    variant and M comparisons are paired.  Aggregation is a keyed merge:
    worker count and completion order cannot change the result.
    """
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    variants = tuple(variants)
    for v in variants:
        if v not in ("exact", "hidden"):
            raise ConfigurationError(f"unknown variant {v!r}")
    agent_counts = tuple(int(m) for m in agent_counts)
    m_max = max(agent_counts)
    extras = tuple(sorted(set(int(r) for r in extra_checkpoints)))

    scenarios = {t: _scenario_for_trial(source, t, base_seed, m_max) for t in range(trials)}
    tasks = [
        (scenarios[trial], variant, m, trial, base_seed, c, n, horizon, delta, extras)
        for variant in variants
        for m in agent_counts
        for trial in range(trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]

    by_cell: dict[tuple[str, int], dict[int, list[float]]] = {}
    rounds_by_cell: dict[tuple[str, int], list[int]] = {}
    for (variant, m, trial), rounds, values in outcomes:
        key = (variant, m)
        rounds_by_cell.setdefault(key, rounds)
        if rounds_by_cell[key] != rounds:
            raise ProtocolError(f"checkpoint rounds differ across trials for cell {key}")
        by_cell.setdefault(key, {})[trial] = values

    result = SweepResult(horizon=horizon, trials=trials)
    for key, per_trial in sorted(by_cell.items()):
        curves = np.array([per_trial[t] for t in range(trials)])
        mean = curves.mean(axis=0)
        if trials > 1:
            stderr = curves.std(axis=0, ddof=1) / math.sqrt(trials)
        else:
            stderr = np.zeros_like(mean)
        result.cells[key] = SweepCell(
            variant=key[0],
            m=key[1],
            rounds=rounds_by_cell[key],
            curves=curves,
            mean=mean,
            stderr=stderr,
        )
    return result


def sweep_csv_lines(result: SweepResult):
    yield CSV_HEADER
    for (variant, m), cell in sorted(result.cells.items()):
        for idx, r in enumerate(cell.rounds):
            yield (
                f"{variant},{m},{r},{float(cell.mean[idx])!r},"
                f"{float(cell.stderr[idx])!r},{result.trials}"
            )


def write_sweep_csv(result: SweepResult, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in sweep_csv_lines(result):
            fh.write(line)
            fh.write("\n")


def sweep_summary(result: SweepResult) -> dict:
    return {
        "horizon": result.horizon,
        "trials": result.trials,
        "cells": [
            {
                "variant": cell.variant,
                "M": cell.m,
                "rounds": list(cell.rounds),
                "mean_regret": [float(x) for x in cell.mean],
                "stderr": [float(x) for x in cell.stderr],
                "final_mean": cell.final_mean,
                "final_stderr": cell.final_stderr,
            }
            for _, cell in sorted(result.cells.items())
        ],
    }


def write_sweep_json(result: SweepResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sweep_summary(result), fh, indent=1, sort_keys=True)
        fh.write("\n")
