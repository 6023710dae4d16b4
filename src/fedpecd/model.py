"""Domain types for the bandit problem.

A scenario bundles everything the simulator needs: the features as one
read-only ``(K, C, d)`` array, ``features[a, c] = phi(a, c)`` over the dense
context ids ``0..C-1``, the reward parameters as a read-only ``(K, d)``
array, per-agent context distributions, and the norm bounds.  An agent
works with psi_i(a) = sum_c mu_i(c) phi(a, c), one contraction of the
feature array with its context distribution (``build_psi_set``); the
environment (not the agent) knows which context each agent actually has.
Scenario files keep the schema-v1 table {arm: {context: phi}}, which must
hold every arm at exactly the context ids ``0..C-1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ValidationError

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
        # Negated comparisons, so a NaN fails them.
        if not (probs >= 0.0).all():
            raise ValidationError("negative or NaN probability in support")
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROB_SUM_TOL:
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


def build_psi_set(
    features: np.ndarray,
    mus: list[ContextDistribution],
    bounds: Bounds,
) -> np.ndarray:
    """psi_i(a) = sum_c mu_i(c) phi(a, c) for every (agent, arm), as one
    read-only ``(M, K, d)`` array; reject norms below the ell floor.

    Each agent's support terms are added in context-id order, for all arms
    at once.  The estimators divide by ||psi||^2, so scenarios whose mixing
    drives a psi below ell are rejected outright instead of silently
    producing near-singular updates.
    """
    k, _, d = features.shape
    psi = np.zeros((len(mus), k, d))
    for out, mu in zip(psi, mus):
        for c, p in zip(mu.ids, mu.probs):
            out += p * features[:, c]
    norms = np.linalg.norm(psi, axis=2)
    below = np.argwhere(norms < bounds.ell - NORM_TOL)
    if below.size:
        i, a = below[0]
        raise ConfigurationError(
            f"||psi|| = {norms[i, a]} below floor ell = {bounds.ell} "
            f"for agent {i}, arm {a}"
        )
    psi.setflags(write=False)
    return psi


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _check_norms(vecs: np.ndarray, name: str, lo: float, hi: float):
    """Reject the first vector, in index order, whose norm is not finite or
    lies outside [lo, hi]."""
    with np.errstate(over="ignore"):  # an overflowing norm reads inf: rejected
        norms = np.linalg.norm(vecs, axis=-1)
    bad = np.argwhere(~((lo - NORM_TOL <= norms) & (norms <= hi + NORM_TOL)))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        raise ValidationError(
            f"||{name}{list(at)}|| = {norms[at]} outside [{lo}, {hi}]"
        )


def _dense_table(table: dict, k: int) -> list:
    """A schema-v1 feature table {arm: {context: phi}} as nested ``(K, C, d)``
    lists; every arm 0..K-1 must hold exactly the context ids 0..C-1."""
    rows = {int(a): {int(c): v for c, v in per_ctx.items()} for a, per_ctx in table.items()}
    if sorted(rows) != list(range(k)):
        raise ValidationError(f"features cover arms {sorted(rows)}, expected 0..{k - 1}")
    n_ctx = 1 + max((c for row in rows.values() for c in row), default=-1)
    for a in range(k):
        odd = set(range(n_ctx)) ^ set(rows[a])
        if odd:
            c = min(odd)  # an id outside 0..C-1 can only be negative
            raise ValidationError(f"arm {a}: " + (
                f"context id {c} outside 0..{n_ctx - 1}" if c < 0
                else f"no feature for context {c}"))
    return [[rows[a][c] for c in range(n_ctx)] for a in range(k)]


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance consumed by the environment and protocol;
    immutable (read-only arrays, ``mus`` a tuple), so validation holds."""

    d: int
    K: int
    M: int
    bounds: Bounds
    rewards: np.ndarray  # (K, d) theta_a rows, read-only
    features: np.ndarray  # (K, C, d) phi(a, c) over context ids 0..C-1, read-only
    mus: tuple[ContextDistribution, ...]
    sigma: float = 0.0
    contexts: dict[int, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rewards", _frozen(self.rewards))
        object.__setattr__(self, "features", _frozen(self.features))
        object.__setattr__(self, "mus", tuple(self.mus))
        self.validate()

    def validate(self):
        """Check shapes, finiteness, the norm bounds, sigma and the support
        ids in one place."""
        if self.d < 1 or self.K < 1 or self.M < 1:
            raise ValidationError("d, K, M must all be positive")
        if self.rewards.shape != (self.K, self.d):
            raise ValidationError(
                f"thetas have shape {self.rewards.shape}, expected ({self.K}, {self.d})"
            )
        if self.features.ndim != 3 or self.features.shape[::2] != (self.K, self.d):
            raise ValidationError(
                f"features have shape {self.features.shape}, expected ({self.K}, C, {self.d})"
            )
        if len(self.mus) != self.M:
            raise ValidationError(f"expected {self.M} agents, got {len(self.mus)}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValidationError(
                f"sigma = {self.sigma} is outside the supported noise range [0, 1]"
            )
        _check_norms(self.features, "phi", self.bounds.ell, self.bounds.big_l)
        _check_norms(self.rewards, "theta", 0.0, self.bounds.s)
        n_ctx = self.features.shape[1]
        for i, mu in enumerate(self.mus):
            # ids are sorted, so the ends are the only candidates.
            bad = [c for c in (mu.ids[0], mu.ids[-1]) if not 0 <= c < n_ctx]
            if bad:
                raise ValidationError(
                    f"agent {i}: context id {bad[0]} outside 0..{n_ctx - 1}"
                )

    def restrict(self, m: int) -> "Scenario":
        """Scenario with only the first m agents (same features and thetas)."""
        if not (1 <= m <= self.M):
            raise ValidationError(f"cannot restrict to {m} of {self.M} agents")
        return self if m == self.M else replace(self, M=m, mus=self.mus[:m])

    def to_json_dict(self) -> dict:
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
            "thetas": self.rewards.tolist(),
            "contexts": {
                str(c): [float(x) for x in vec] for c, vec in sorted(self.contexts.items())
            },
            "features": {
                str(a): {str(c): vec for c, vec in enumerate(row)}
                for a, row in enumerate(self.features.tolist())
            },
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
            d, k, m = int(data["d"]), int(data["K"]), int(data["M"])
            features = np.array(_dense_table(data["features"], k), dtype=float)
            rewards = np.array(data["thetas"], dtype=float)
            mus = [ContextDistribution(agent["mu"]) for agent in data["agents"]]
            contexts = {
                int(c): np.asarray(vec, dtype=float)
                for c, vec in data.get("contexts", {}).items()
            }
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed scenario document: {exc}") from exc
        return cls(
            d=d,
            K=k,
            M=m,
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
