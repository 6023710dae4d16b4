"""Domain types for the bandit problem.

A scenario bundles everything the simulator needs: the features as one
read-only ``(K, C, d)`` array, ``features[a, c] = phi(a, c)`` over the dense
context ids ``0..C-1``, the reward parameters as a read-only ``(K, d)``
array, the agents' context distributions as a read-only ``(M, C)`` array
``mu`` (row i is agent i's distribution), and the norm bounds.  An agent
works with psi_i(a) = sum_c mu[i, c] phi(a, c), one contraction of the
feature array with the distributions (``build_psi_set``); the environment
(not the agent) knows which context each agent actually has.  Scenario
files keep the schema-v1 table {arm: {context: phi}}, which must hold
every arm at exactly the context ids ``0..C-1``, and each agent's support
as [[context id, probability], ...]."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain

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
        if not self.s >= 0.0:  # negated, so a NaN fails it
            raise ValidationError(f"need s >= 0, got s={self.s}")


def build_psi_set(features: np.ndarray, mu: np.ndarray, bounds: Bounds) -> np.ndarray:
    """psi_i(a) = sum_c mu[i, c] phi(a, c) for every (agent, arm), as one
    read-only ``(M, K, d)`` array; reject norms below the ell floor.

    Each agent's nonzero terms are added in context-id order, one support
    slot at a time for all agents and arms at once, so a psi carries the
    bits of summing its support left to right.  The estimators divide by
    ||psi||^2, so scenarios whose mixing drives a psi below ell are
    rejected outright instead of silently producing near-singular updates.
    """
    rows, cols = np.nonzero(mu)
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    psi = np.zeros((mu.shape[0], features.shape[0], features.shape[2]))
    for s in range(slot.max(initial=-1) + 1):
        r, c = rows[slot == s], cols[slot == s]
        psi[r] += mu[r, c, None, None] * features[:, c].swapaxes(0, 1)
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


def _table_id(key: str, what: str) -> int:
    """A feature-table key as its id: ASCII digits, no sign, space, underscore or leading zero."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit() and str(int(key)) == key):
        raise ValidationError(f'{what} key {key!r} is not written as an id ("0", "1", "2", ...)')
    return int(key)


def _dense_table(table: dict, k: int) -> list:
    """A schema-v1 feature table {arm: {context: phi}} as nested ``(K, C, d)``
    lists, read by key lookup: every arm ``"0"``..``"K-1"`` must hold contexts
    ``"0"``..``"C-1"``, so no id has two keys.  Only a table that fails is walked."""
    if not isinstance(table, dict):
        raise ValidationError("features is not an object {arm: {context: phi}}")
    # The count first, so a huge declared K is not looked up.
    if len(table) == k and all(isinstance(table.get(str(a)), dict) for a in range(k)):
        rows = [table[str(a)] for a in range(k)]
        keys = [str(c) for c in range(max(map(len, rows), default=0))]
        if all(c in row for row in rows for c in keys):
            return [[row[c] for c in keys] for row in rows]
    ids = {}
    for a_key, row in table.items():
        a = _table_id(a_key, "arm")
        if not isinstance(row, dict):
            raise ValidationError(f"arm {a}: features are not an object {{context: phi}}")
        ids[a] = {_table_id(c_key, f"arm {a}: context") for c_key in row}
    if len(ids) != k or sorted(ids) != list(range(k)):
        raise ValidationError(f"features cover arms {sorted(ids)}, expected 0..{k - 1}")
    most = max(map(len, ids.values()))  # no arm can hold an id at or above it
    for a in range(k):
        if max(ids[a], default=-1) >= most:
            raise ValidationError(f"arm {a}: context id {max(ids[a])} outside 0..{most - 1}, "
                                  f"as no arm names more than {most} contexts")
    a = next(a for a in range(k) if len(ids[a]) < most)
    raise ValidationError(f"arm {a}: no feature for context {min(set(range(most)) - ids[a])}")


def _is_real(t: type) -> bool:
    """Whether values of type ``t`` are JSON numbers: int or float, not bool."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _leaves(values, what: str, depth: int = 0, integer: bool = False):
    """A document's numbers nested ``depth`` lists deep as a float array, or
    at depth 0 the number itself: a float, or with ``integer`` an int (not a
    bool, nor a float such as 2.0).  A rectangular document's leaf types are
    checked once; only one that fails is walked in index order to name its
    first leaf that is not a number, a list ``depth`` lists deep included."""
    is_number = (lambda t: t is int) if integer else _is_real
    leaves, shape = [values], []
    try:
        for _ in range(depth):
            (n,) = set(map(len, leaves))  # ragged or empty: ValueError
            shape.append(n)
            leaves = list(chain.from_iterable(leaves))
        rectangular = all(map(is_number, set(map(type, leaves))))
    except (TypeError, ValueError):  # TypeError: a number stands where a list should
        rectangular = False
    if rectangular and depth:
        return np.array(leaves, dtype=float).reshape(shape)
    if rectangular:
        return values if integer else float(values)

    todo = [((), values)]
    while todo:
        at, v = todo.pop()
        if len(at) < depth and isinstance(v, list):
            todo += [((*at, j), w) for j, w in enumerate(v)][::-1]  # popped in index order
        elif not is_number(type(v)):
            raise ValidationError(f"{what}{list(at) if at else ''} = {v!r} is not "
                                  + ("an integer" if integer else "a number"))
    return np.array(values, dtype=float)  # not rectangular: numpy names the defect


def _dense_mu(agents: list, n_ctx: int) -> np.ndarray:
    """The agents' schema-v1 supports [[c, p], ...] as one dense ``(M, C)``
    array.  Checked here, as only a document can get them wrong: every
    support is nonempty, its ids are integers in 0..C-1 and none appears
    twice.  ``Scenario.validate`` checks the probabilities."""
    sizes = np.array([len(agent["mu"]) for agent in agents], dtype=int)
    owner = np.repeat(np.arange(sizes.size), sizes)
    ids = [c for agent in agents for c, _ in agent["mu"]]
    probs = [p for agent in agents for _, p in agent["mu"]]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValidationError(f"agent {empty[0]}: context distribution has an empty support")
    j = next((j for j, c in enumerate(ids) if type(c) is not int or not 0 <= c < n_ctx), None)
    if j is not None:
        where = f"agent {owner[j]}: context id"
        _leaves(ids[j], where, integer=True)  # names a non-integer id as such
        raise ValidationError(f"{where} {ids[j]} outside 0..{n_ctx - 1}")
    j = next((j for j, p in enumerate(probs) if not _is_real(type(p))), None)
    if j is not None:  # names the first probability that is not a number
        _leaves(probs[j], f"agent {owner[j]}: probability of context {ids[j]}")
    mu = np.zeros((sizes.size, n_ctx))
    mu[owner, ids] = 1.0
    twice = np.flatnonzero(np.count_nonzero(mu, axis=1) != sizes)
    if twice.size:
        raise ValidationError(f"agent {twice[0]}: duplicate context id in support")
    mu[owner, ids] = probs
    return mu


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete problem instance consumed by the environment and protocol;
    immutable (read-only arrays), so validation holds.  ``d``, ``K`` and
    ``M`` are read from the arrays.  Equality is identity: the fields are
    arrays, which compare elementwise."""

    bounds: Bounds
    rewards: np.ndarray  # (K, d) theta_a rows, read-only
    features: np.ndarray  # (K, C, d) phi(a, c) over context ids 0..C-1, read-only
    mu: np.ndarray  # (M, C) row i: agent i's distribution over context ids, read-only
    sigma: float = 0.0
    name: str = ""

    def __post_init__(self):
        for name in ("rewards", "features", "mu"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        self.validate()

    @property
    def d(self) -> int:
        return self.features.shape[2]

    @property
    def K(self) -> int:
        return self.features.shape[0]

    @property
    def M(self) -> int:
        return self.mu.shape[0]

    def validate(self):
        """Check shapes, finiteness, the norm bounds, sigma and the context
        distributions in one place."""
        if self.features.ndim != 3 or 0 in self.features.shape:
            raise ValidationError(
                f"features have shape {self.features.shape}, expected (K, C, d), all positive"
            )
        if self.rewards.shape != (self.K, self.d):
            raise ValidationError(
                f"thetas have shape {self.rewards.shape}, expected ({self.K}, {self.d})"
            )
        n_ctx = self.features.shape[1]
        if self.mu.ndim != 2 or self.mu.shape[1] != n_ctx or self.mu.shape[0] < 1:
            raise ValidationError(
                f"mu has shape {self.mu.shape}, expected (M, {n_ctx}) with M >= 1"
            )
        if not 0.0 <= self.sigma <= 1.0:
            raise ValidationError(
                f"sigma = {self.sigma} is outside the supported noise range [0, 1]"
            )
        # Negated comparisons, so a NaN fails them.
        negative = ~(self.mu >= 0.0).all(axis=1)
        totals = self.mu.sum(axis=1)
        bad = np.flatnonzero(negative | ~(np.abs(totals - 1.0) <= PROB_SUM_TOL))
        if bad.size:
            i = bad[0]
            raise ValidationError(f"agent {i}: " + (
                "negative or NaN probability" if negative[i]
                else f"probabilities sum to {totals[i]}, expected 1"))
        _check_norms(self.features, "phi", self.bounds.ell, self.bounds.big_l)
        _check_norms(self.rewards, "theta", 0.0, self.bounds.s)

    def restrict(self, m: int) -> "Scenario":
        """Scenario with only the first m agents (same features and thetas)."""
        if not (1 <= m <= self.M):
            raise ValidationError(f"cannot restrict to {m} of {self.M} agents")
        return self if m == self.M else replace(self, mu=self.mu[:m])

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
            "features": {
                str(a): {str(c): vec for c, vec in enumerate(row)}
                for a, row in enumerate(self.features.tolist())
            },
            "agents": [
                {"mu": [[c, p] for c, p in enumerate(row) if p]} for row in self.mu.tolist()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        try:
            bounds = Bounds(
                ell=_leaves(data["bounds"]["ell"], "bounds.ell"),
                big_l=_leaves(data["bounds"]["L"], "bounds.L"),
                s=_leaves(data["bounds"]["s"], "bounds.s"),
            )
            sigma = _leaves(data.get("sigma", 0.0), "sigma")
            declared = {key: _leaves(data[key], key, integer=True) for key in ("d", "K", "M")}
            features = _leaves(_dense_table(data["features"], declared["K"]), "features", 3)
            rewards = _leaves(data["thetas"], "thetas", 2)
            mu = _dense_mu(data["agents"], features.shape[1] if features.ndim == 3 else 0)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed scenario document: {exc}") from exc
        scenario = cls(
            bounds=bounds,
            rewards=rewards,
            features=features,
            mu=mu,
            sigma=sigma,
            name=str(data.get("name", "")),
        )
        for key, value in declared.items():
            if value != getattr(scenario, key):
                raise ValidationError(
                    f"{key} = {value} disagrees with the arrays, which hold {getattr(scenario, key)}"
                )
        return scenario

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
