"""Multi-agent exploration design over per-agent simplices.

Each agent must split its per-phase exploration budget across its active
arms.  The solver maximizes the separable log-determinant surrogate

    F(pi) = sum_a  logdet_span( sum_{i in R_a} pi_{a,i} e_{a,i} e_{a,i}^T )

where R_a is the set of agents with arm a active and e_{a,i} are unit
direction vectors.  Each arm's log-determinant is evaluated on the span of
its roster directions: if an allocation drives an arm's Gram matrix below
the rank that span supports, the term is -inf.  Without that convention
the pseudo-determinant would reward collapsing an arm's Gram to a lower
rank, and the problem would have spurious boundary maxima.

The solver is cyclic block-coordinate ascent over agents; each agent block
takes pairwise Frank-Wolfe steps on its simplex: mass moves from the
in-support arm with the smallest gradient to the arm with the largest,
with a closed-form optimal step length.  Pairwise steps avoid the
zigzagging that makes plain Frank-Wolfe too slow for the sweep-improvement
stopping rule.  The optimal step is always strictly short of the pole
where an arm's Gram would lose rank, so every roster direction stays
inside the range of its arm Gram and the rank-1 line-search formula is
exact at every iterate.

The state is dense: pi is (M, K), the directions (M, K, d) with zero rows
for pairs that have none, and each arm keeps its Gram's range
pseudo-inverse W_a^+ in a (K, d, d) stack.  A block reads all of its
gradients g = e' W^+ e with one einsum, tracks them through its steps in
closed form, and then refreshes W_a^+ for each arm it moved by one
Sherman-Morrison update, exact on the range because that range never
shrinks.  Once per sweep W is rebuilt from pi with one einsum, and W^+ and
the objective's eigenvalues come from one batched eigh, so the number of
eigendecompositions grows with sweeps, not steps.  The returned
allocation carries the Frank-Wolfe duality gap, which bounds the distance
to the optimum because F is concave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import eigh_range

UNIT_NORM_TOL = 1e-9
SIMPLEX_TOL = 1e-9

# Uniform mass blended into a warm start so restored rosters stay interior.
_WARM_BLEND = 1e-2
_INNER_STEPS = 40


@dataclass
class DesignProblem:
    """Active sets per agent and unit directions per (agent, arm) pair.

    A pair may lack a direction (the server never learned one for it);
    such pairs contribute nothing to any Gram matrix and attract no budget.
    """

    active_sets: list[list[int]]
    directions: dict[tuple[int, int], np.ndarray]
    dim: int

    def __post_init__(self):
        if not self.active_sets:
            raise ValidationError("need at least one agent")
        self.active_sets = [sorted(int(a) for a in s) for s in self.active_sets]
        for i, arms in enumerate(self.active_sets):
            if not arms:
                raise ValidationError(f"agent {i} has an empty active set")
        pairs = {
            (i, a) for i, arms in enumerate(self.active_sets) for a in arms
        }
        dirs = {}
        for (i, a), vec in self.directions.items():
            if (i, a) not in pairs:
                raise ValidationError(f"direction for inactive pair (agent {i}, arm {a})")
            v = np.asarray(vec, dtype=float)
            if v.shape != (self.dim,):
                raise ValidationError(
                    f"direction for (agent {i}, arm {a}) has shape {v.shape}"
                )
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > UNIT_NORM_TOL:
                raise ValidationError(
                    f"direction for (agent {i}, arm {a}) has norm {nrm}, expected 1"
                )
            dirs[(i, a)] = v
        self.directions = dirs

    @property
    def n_agents(self) -> int:
        return len(self.active_sets)

    def rosters(self) -> dict[int, list[int]]:
        """arm -> sorted agents with that arm active."""
        out: dict[int, list[int]] = {}
        for i, arms in enumerate(self.active_sets):
            for a in arms:
                out.setdefault(a, []).append(i)
        return {a: sorted(members) for a, members in sorted(out.items())}


@dataclass
class DesignAllocation:
    """Exploration fractions pi_{a,i}; one distribution per agent.

    ``gap`` is the Frank-Wolfe duality gap at the returned iterate, an
    upper bound on how far ``objective`` is below the optimum (nan for an
    allocation the solver did not produce).
    """

    pi: list[dict[int, float]]
    converged: bool = True
    objective: float = 0.0
    sweeps: int = 0
    objective_trace: list[float] = field(default_factory=list)
    gap: float = math.nan


def _layout(prob: DesignProblem) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Dense view: arm ids by column, (M, K) active mask, (M, K, d) directions.

    Pairs without a direction keep a zero row, so they add nothing to any
    Gram matrix and score zero.
    """
    arms = sorted({a for s in prob.active_sets for a in s})
    col = {a: k for k, a in enumerate(arms)}
    active = np.zeros((prob.n_agents, len(arms)), dtype=bool)
    dirs = np.zeros((prob.n_agents, len(arms), prob.dim))
    for i, s in enumerate(prob.active_sets):
        active[i, [col[a] for a in s]] = True
    for (i, a), vec in prob.directions.items():
        dirs[i, col[a]] = vec
    return arms, active, dirs


def _pi_array(prob: DesignProblem, arms: list[int], pi: list[dict[int, float]]) -> np.ndarray:
    return np.array([[p.get(a, 0.0) for a in arms] for p in pi[: prob.n_agents]])


def _grams(pi: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """W_a = sum_i pi_{a,i} e_{a,i} e_{a,i}^T for every arm, as (K, d, d)."""
    return np.einsum("ik,ikj,ikl->kjl", pi, dirs, dirs)


def _scores(dirs: np.ndarray, pinvs: np.ndarray) -> np.ndarray:
    """g_{a,i} = e_{a,i}' W_a^+ e_{a,i} for every pair, as (M, K)."""
    return np.einsum("ikj,kjl,ikl->ik", dirs, pinvs, dirs)


def _span_ranks(dirs: np.ndarray) -> np.ndarray:
    """Achievable rank per arm: rank of the unweighted direction Gram."""
    return eigh_range(_grams(np.ones(dirs.shape[:2]), dirs))[1].sum(axis=-1)


def _logdet_span(w: np.ndarray, keep: np.ndarray, ranks: np.ndarray) -> float:
    """Sum of per-arm log-dets on the range; -inf if any arm lost span rank."""
    if np.any(keep.sum(axis=-1) < ranks):
        return -np.inf
    return float(np.sum(np.log(w, out=np.zeros_like(w), where=keep)))


def design_objective(prob: DesignProblem, pi: list[dict[int, float]]) -> float:
    """Span-restricted log-det objective at an arbitrary feasible point."""
    arms, _, dirs = _layout(prob)
    w, keep, _ = eigh_range(_grams(_pi_array(prob, arms, pi), dirs))
    return _logdet_span(w, keep, _span_ranks(dirs))


def _start_pi(
    prob: DesignProblem, arms: list[int], active: np.ndarray,
    warm: DesignAllocation | None,
) -> np.ndarray:
    """Uniform start, or the warm allocation restricted to the active arms,
    renormalized and blended with uniform so restored rosters stay interior."""
    uniform = active / active.sum(axis=1, keepdims=True)
    if warm is None:
        return uniform
    prev = np.zeros(active.shape)
    prev[: len(warm.pi)] = np.maximum(_pi_array(prob, arms, warm.pi), 0.0)
    prev[~active] = 0.0
    total = prev.sum(axis=1, keepdims=True)
    kept = total >= 1e-9
    share = np.divide(prev, total, out=np.zeros_like(prev), where=kept)
    return np.where(kept, (1.0 - _WARM_BLEND) * share + _WARM_BLEND * uniform, uniform)


class _Solver:
    """Dense solver state.

    ``pi`` is (M, K), ``dirs`` (M, K, d), and ``pinv`` holds the range
    pseudo-inverse W_a^+ of every arm Gram as (K, d, d).  A block step
    changes W_a only along the agent's own direction e_{a,i}, so after a
    block each touched arm's W_a^+ is brought up to date by one exact
    Sherman-Morrison update on the range; W, W^+ and the objective's
    eigenvalues are rebuilt from pi once per sweep.
    """

    def __init__(self, prob: DesignProblem, warm: DesignAllocation | None):
        arms, self.active, self.dirs = _layout(prob)
        self.ranks = _span_ranks(self.dirs)
        self.pi = _start_pi(prob, arms, self.active, warm)
        self.cols = [np.flatnonzero(row) for row in self.active]
        self.agent_dirs = [d[c] for d, c in zip(self.dirs, self.cols)]
        self._rebuild()

    def _rebuild(self):
        w, keep, self.pinv = eigh_range(_grams(self.pi, self.dirs))
        self.objective = _logdet_span(w, keep, self.ranks)

    def gap(self) -> float:
        """Frank-Wolfe duality gap sum_i (max_a g_{a,i} - sum_a pi_{a,i} g_{a,i})."""
        g = _scores(self.dirs, self.pinv)
        best = np.max(g, axis=1, where=self.active, initial=-np.inf)
        return float(np.sum(best - np.sum(self.pi * g, axis=1)))

    def _block_update(self, agent: int, tol: float) -> float:
        """Pairwise Frank-Wolfe steps on one agent's simplex; returns the gain.

        Each step moves mass from the in-support arm with the smallest
        gradient to the arm with the largest.  The exact step length for
        h(t) = log(1 + t g_b) + log(1 - t g_w) is t* = (g_b - g_w) /
        (2 g_b g_w), which always lies strictly before the pole 1/g_w;
        clamping at the full away mass therefore never drops an arm Gram's
        rank.  A step of t along e changes g = e' W^+ e to g / (1 + t g),
        so the gradients stay current without touching W^+ inside the loop.
        """
        cols = self.cols[agent]
        if cols.size == 1:
            return 0.0
        e = self.agent_dirs[agent]
        pe = np.einsum("kjl,kl->kj", self.pinv[cols], e)
        g0 = np.einsum("kj,kj->k", pe, e)
        if not g0.max() > 0.0:
            return 0.0
        g = g0.copy()
        start = self.pi[agent, cols]
        # Gradients of the in-support arms, +inf elsewhere: the away choice.
        away = np.where(start > 0.0, g, np.inf)
        weights = start.tolist()
        total = 0.0
        for _ in range(_INNER_STEPS):
            best = int(g.argmax())  # first max = lowest arm index on ties
            worst = int(away.argmin())
            g_b, g_w = g.item(best), g.item(worst)
            if best == worst or g_b <= 0.0 or g_b <= g_w:
                break
            if g_w <= 0.0:
                # Away arm carries no information; move its whole mass.
                step = weights[worst]
                gain = math.log1p(step * g_b)
            else:
                step = (g_b - g_w) / (2.0 * g_b * g_w)
                step = min(step, weights[worst])
                gain = math.log1p(step * g_b) + math.log1p(-step * g_w)
            if step <= 0.0 or gain <= 0.0:
                break
            weights[best] += step
            weights[worst] -= step
            if weights[worst] < 1e-15:
                weights[worst] = 0.0
            g[best] = away[best] = g_b / (1.0 + step * g_b)
            g[worst] = g_w / (1.0 - step * g_w)
            away[worst] = g[worst] if weights[worst] > 0.0 else np.inf
            total += gain
            if gain < tol * 1e-3:
                break
        weights = np.array(weights)
        self.pi[agent, cols] = weights
        # Net change of W_a is delta * e e'.  Every roster direction lies in
        # its arm's range and the range never shrinks, so Sherman-Morrison
        # is exact there:  W^+ -= delta (W^+ e)(W^+ e)' / (1 + delta g0),
        # with 1 / (1 + delta g0) = g / g0 from the tracked gradients.
        delta = weights - start
        moved = (delta != 0.0) & (g0 > 0.0)
        if np.any(moved):
            c = delta[moved] * g[moved] / g0[moved]
            p = pe[moved]
            self.pinv[cols[moved]] -= c[:, None, None] * p[:, :, None] * p[:, None, :]
        return total

    def sweep(self, tol: float) -> float:
        total = 0.0
        for agent in range(len(self.cols)):
            total += self._block_update(agent, tol)
        # Rebuild from pi so rank-1 update drift cannot accumulate.
        self._rebuild()
        return total


def solve_design(
    prob: DesignProblem,
    max_iters: int = 500,
    tol: float = 1e-6,
    warm_start: DesignAllocation | None = None,
) -> DesignAllocation:
    """Block-coordinate ascent for the separable log-det design.

    Runs full sweeps over agents until the objective improves by less than
    ``tol`` in a sweep, or ``max_iters`` sweeps elapse (in which case the
    best iterate is returned with ``converged=False``).  The allocation's
    ``gap`` certifies the result; it does not enter the stopping rule.
    """
    if max_iters < 1:
        raise ValidationError("max_iters must be at least 1")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")

    solver = _Solver(prob, warm_start)
    trace = [solver.objective]
    converged = False
    sweeps = 0
    for _ in range(max_iters):
        improvement = solver.sweep(tol)
        sweeps += 1
        trace.append(solver.objective)
        if improvement < tol:
            converged = True
            break

    total = solver.pi.sum(axis=1, keepdims=True)
    # Kill float drift so each agent's budget sums to one.
    drift = (np.abs(total - 1.0) > SIMPLEX_TOL) & (total > 0.0)
    pi = np.divide(solver.pi, total, out=solver.pi.copy(), where=drift)
    return DesignAllocation(
        pi=[
            {a: float(pi[i, k]) for a, k in zip(prob.active_sets[i], solver.cols[i])}
            for i in range(prob.n_agents)
        ],
        converged=converged,
        objective=trace[-1],
        sweeps=sweeps,
        objective_trace=trace,
        gap=solver.gap(),
    )


def design_score(
    prob: DesignProblem, alloc: DesignAllocation
) -> dict[tuple[int, int], float]:
    """g_{a,i} = e' (sum_j pi_{a,j} e_j e_j^T)^+ e for each active pair.

    Pairs without a stored direction are omitted.
    """
    for i, arms in enumerate(prob.active_sets):
        total = sum(alloc.pi[i].get(a, 0.0) for a in arms)
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"allocation for agent {i} sums to {total}")
    arms, _, dirs = _layout(prob)
    col = {a: k for k, a in enumerate(arms)}
    g = _scores(dirs, eigh_range(_grams(_pi_array(prob, arms, alloc.pi), dirs))[2])
    return {(i, a): float(g[i, col[a]]) for (i, a) in sorted(prob.directions)}
