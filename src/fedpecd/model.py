"""Domain types for the bandit problem.

A scenario bundles everything the simulator needs: the feature map
phi(arm, context), per-agent context distributions, the reward parameters,
and the norm bounds they were generated under.  Context ids are opaque
integers; the environment (not the agent) knows which context each agent
actually has.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FeatureLookupError, ValidationError

PROB_SUM_TOL = 1e-9
NORM_TOL = 1e-9

SCENARIO_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Bounds:
    """Norm bounds: ell <= ||phi|| <= big_l for features, ||theta|| <= s."""

    ell: float
    big_l: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.ell <= self.big_l <= 1.0):
            raise ValidationError(
                f"need 0 < ell <= L <= 1, got ell={self.ell}, L={self.big_l}"
            )
        if self.s < 0.0:
            raise ValidationError(f"need s >= 0, got s={self.s}")


class ContextDistribution:
    """Finite-support distribution over context ids."""

    def __init__(self, support):
        entries = [(int(c), float(p)) for c, p in support]
        if not entries:
            raise ValidationError("context distribution must have nonempty support")
        entries.sort(key=lambda e: e[0])
        ids = [c for c, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate context id in support")
        probs = np.array([p for _, p in entries], dtype=float)
        if np.any(probs < 0.0):
            raise ValidationError("negative probability in support")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
        self.ids: tuple[int, ...] = tuple(ids)
        self.probs: np.ndarray = probs
        self.probs.setflags(write=False)

    @classmethod
    def point_mass(cls, context_id: int) -> "ContextDistribution":
        return cls([(context_id, 1.0)])

    @property
    def is_point_mass(self) -> bool:
        return len(self.ids) == 1

    def sample(self, rng: np.random.Generator) -> int:
        idx = rng.choice(len(self.ids), p=self.probs)
        return self.ids[int(idx)]

    def __eq__(self, other):
        return (
            isinstance(other, ContextDistribution)
            and self.ids == other.ids
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):
        pairs = ", ".join(f"{c}: {p:g}" for c, p in zip(self.ids, self.probs))
        return f"ContextDistribution({{{pairs}}})"


class FeatureMap:
    """Table of feature vectors phi(arm, context id) -> R^d."""

    def __init__(self, table: dict, dim: int, bounds: Bounds | None = None):
        self.dim = int(dim)
        self._table: dict[int, dict[int, np.ndarray]] = {}
        for arm, per_ctx in table.items():
            arm = int(arm)
            row = {}
            for ctx, vec in per_ctx.items():
                v = np.asarray(vec, dtype=float)
                if v.shape != (self.dim,):
                    raise ValidationError(
                        f"feature phi({arm},{ctx}) has shape {v.shape}, expected ({self.dim},)"
                    )
                if not np.all(np.isfinite(v)):
                    raise ValidationError(f"feature phi({arm},{ctx}) is not finite")
                if bounds is not None:
                    nrm = float(np.linalg.norm(v))
                    if not (bounds.ell - NORM_TOL <= nrm <= bounds.big_l + NORM_TOL):
                        raise ValidationError(
                            f"||phi({arm},{ctx})|| = {nrm} outside "
                            f"[{bounds.ell}, {bounds.big_l}]"
                        )
                v = v.copy()
                v.setflags(write=False)
                row[int(ctx)] = v
            self._table[arm] = row

    @property
    def arms(self) -> list[int]:
        return sorted(self._table)

    def contexts(self, arm: int) -> list[int]:
        return sorted(self._table[arm])

    def vector(self, arm: int, context_id: int) -> np.ndarray:
        try:
            return self._table[arm][context_id]
        except KeyError:
            raise FeatureLookupError(
                f"no feature stored for arm {arm}, context {context_id}"
            ) from None


class RewardParams:
    """Per-arm reward parameters theta_a, ||theta_a|| <= s."""

    def __init__(self, thetas, s: float | None = None):
        vecs = []
        for a, th in enumerate(thetas):
            v = np.asarray(th, dtype=float)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise ValidationError(f"theta_{a} must be a finite vector")
            if s is not None and np.linalg.norm(v) > s + NORM_TOL:
                raise ValidationError(
                    f"||theta_{a}|| = {np.linalg.norm(v)} exceeds s = {s}"
                )
            v = v.copy()
            v.setflags(write=False)
            vecs.append(v)
        if not vecs:
            raise ValidationError("need at least one arm")
        dims = {v.shape[0] for v in vecs}
        if len(dims) != 1:
            raise ValidationError("theta vectors have inconsistent dimensions")
        self.thetas: tuple[np.ndarray, ...] = tuple(vecs)

    def __getitem__(self, arm: int) -> np.ndarray:
        return self.thetas[arm]

    def __len__(self):
        return len(self.thetas)


def expected_feature(phi: FeatureMap, mu: ContextDistribution, arm: int) -> np.ndarray:
    """psi = sum_c mu(c) phi(arm, c), exact over the finite support."""
    out = np.zeros(phi.dim)
    for ctx, p in zip(mu.ids, mu.probs):
        out += p * phi.vector(arm, ctx)
    return out


def build_psi_set(
    phi: FeatureMap,
    mus: list[ContextDistribution],
    bounds: Bounds,
) -> np.ndarray:
    """Compute psi for every (agent, arm) as one read-only ``(M, K, d)``
    array, arms in ``phi.arms`` order; reject norms below the ell floor.

    The estimators divide by ||psi||^2, so scenarios whose mixing drives a
    psi below ell are rejected outright instead of silently producing
    near-singular updates.
    """
    psi = np.array([[expected_feature(phi, mu, a) for a in phi.arms] for mu in mus])
    for i, row in enumerate(psi):
        for a, v in zip(phi.arms, row):
            nrm = float(np.linalg.norm(v))
            if nrm < bounds.ell - NORM_TOL:
                raise ConfigurationError(
                    f"||psi|| = {nrm} below floor ell = {bounds.ell} "
                    f"for agent {i}, arm {a}"
                )
    psi.setflags(write=False)
    return psi


@dataclass
class Scenario:
    """Complete problem instance consumed by the environment and protocol."""

    d: int
    K: int
    M: int
    bounds: Bounds
    rewards: RewardParams
    features: FeatureMap
    mus: list[ContextDistribution]
    sigma: float = 0.0
    contexts: dict[int, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.d < 1 or self.K < 1 or self.M < 1:
            raise ValidationError("d, K, M must all be positive")
        if len(self.rewards) != self.K:
            raise ValidationError(
                f"expected {self.K} theta vectors, got {len(self.rewards)}"
            )
        if self.rewards[0].shape[0] != self.d:
            raise ValidationError("theta dimension does not match d")
        if len(self.mus) != self.M:
            raise ValidationError(f"expected {self.M} agents, got {len(self.mus)}")
        if self.sigma < 0.0:
            raise ValidationError("sigma must be nonnegative")
        for a in range(self.K):
            nrm = float(np.linalg.norm(self.rewards[a]))
            if nrm > self.bounds.s + NORM_TOL:
                raise ValidationError(
                    f"||theta_{a}|| = {nrm} exceeds s = {self.bounds.s}"
                )
        # Every context an agent can see must have features for every arm.
        for i, mu in enumerate(self.mus):
            for ctx in mu.ids:
                for a in range(self.K):
                    try:
                        self.features.vector(a, ctx)
                    except FeatureLookupError:
                        raise ValidationError(
                            f"agent {i}: no feature for arm {a}, context {ctx}"
                        ) from None

    def restrict(self, m: int) -> "Scenario":
        """Scenario with only the first m agents (shared feature table)."""
        if not (1 <= m <= self.M):
            raise ValidationError(f"cannot restrict to {m} of {self.M} agents")
        if m == self.M:
            return self
        return Scenario(
            d=self.d,
            K=self.K,
            M=m,
            bounds=self.bounds,
            rewards=self.rewards,
            features=self.features,
            mus=self.mus[:m],
            sigma=self.sigma,
            contexts=self.contexts,
            name=self.name,
        )

    def to_json_dict(self) -> dict:
        feats = {
            str(a): {
                str(c): [float(x) for x in self.features.vector(a, c)]
                for c in self.features.contexts(a)
            }
            for a in self.features.arms
        }
        return {
            "v": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "d": self.d,
            "K": self.K,
            "M": self.M,
            "sigma": self.sigma,
            "bounds": {
                "ell": self.bounds.ell,
                "L": self.bounds.big_l,
                "s": self.bounds.s,
            },
            "thetas": [[float(x) for x in self.rewards[a]] for a in range(self.K)],
            "contexts": {
                str(c): [float(x) for x in vec] for c, vec in sorted(self.contexts.items())
            },
            "features": feats,
            "agents": [
                {"mu": [[c, float(p)] for c, p in zip(mu.ids, mu.probs)]}
                for mu in self.mus
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        try:
            bounds = Bounds(
                ell=float(data["bounds"]["ell"]),
                big_l=float(data["bounds"]["L"]),
                s=float(data["bounds"]["s"]),
            )
            d = int(data["d"])
            table = {
                int(a): {int(c): vec for c, vec in per_ctx.items()}
                for a, per_ctx in data["features"].items()
            }
            features = FeatureMap(table, dim=d, bounds=bounds)
            rewards = RewardParams(data["thetas"], s=bounds.s)
            mus = [ContextDistribution(agent["mu"]) for agent in data["agents"]]
            contexts = {
                int(c): np.asarray(vec, dtype=float)
                for c, vec in data.get("contexts", {}).items()
            }
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed scenario document: {exc}") from exc
        return cls(
            d=d,
            K=int(data["K"]),
            M=int(data["M"]),
            bounds=bounds,
            rewards=rewards,
            features=features,
            mus=mus,
            sigma=float(data.get("sigma", 0.0)),
            contexts=contexts,
            name=str(data.get("name", "")),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
