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
zigzagging that makes plain Frank-Wolfe slow to close its duality gap.
The optimal step is always strictly short of the pole where an arm's
Gram would lose rank, so every roster direction stays inside the range
of its arm Gram and the rank-1 line-search formula is exact at every
iterate.

The input, the state and the output are dense.  A problem takes the
rosters and directions as the server keeps them, over arm ids 0..K-1: an
(M, K) active mask and an (M, K, d) array with a has-direction mask.  The
solver works on the K' arms some agent keeps active: it holds pi as
(M, K'), the directions (M, K', d) with zero rows for pairs that have
none, and each arm keeps its Gram's range pseudo-inverse W_a^+ in a
(K', d, d) stack.  The returned allocation is (M, K) again, zero off each
agent's active set.  A block reads all of its
gradients g = e' W^+ e with one einsum, tracks them through its steps in
closed form, and then refreshes W_a^+ for each arm it moved by one
Sherman-Morrison update, exact on the range because that range never
shrinks.  Once per sweep W is rebuilt from pi with one einsum, and W^+ and
the objective's eigenvalues come from one batched eigh, so the number of
eigendecompositions grows with sweeps, not steps.  After each sweep the
solver computes the Frank-Wolfe duality gap, which bounds the distance to
the optimum because F is concave, and stops once that gap certifies the
allocation; the returned allocation carries it.
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
# A block stops stepping after a step that gains less than this.
_MIN_STEP_GAIN = 1e-9


@dataclass
class DesignProblem:
    """Active sets and unit directions per (agent, arm) pair.

    The input is dense over arm ids 0..K-1: ``active`` is the ``(M, K)``
    mask of each agent's active arms, ``directions`` is ``(M, K, d)``, and
    the ``(M, K)`` mask ``has_direction`` marks the pairs that have one;
    only active pairs may be marked.  A pair may lack a direction (the
    server never learned one for it); such pairs contribute nothing to any
    Gram matrix and attract no budget.  Validation also builds the view
    the solver works on: ``arms`` (the ids of the arms some agent keeps
    active, one column each) and the ``(M, K', d)`` ``dirs`` over those
    columns, with a zero row for each pair without a direction.
    """

    active: np.ndarray
    directions: np.ndarray
    has_direction: np.ndarray
    arms: list[int] = field(init=False, repr=False)
    dirs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=bool)
        self.directions = np.asarray(self.directions, dtype=float)
        self.has_direction = np.asarray(self.has_direction, dtype=bool)
        if self.active.ndim != 2 or not self.active.shape[0]:
            raise ValidationError(f"active has shape {self.active.shape}, expected (M, K), M >= 1")
        empty = np.flatnonzero(~self.active.any(axis=1))
        if empty.size:
            raise ValidationError(f"agent {empty[0]} has an empty active set")
        m, k = self.active.shape
        shape = self.directions.shape
        if len(shape) != 3 or shape[:2] != (m, k):
            raise ValidationError(f"directions have shape {shape}, expected ({m}, {k}, d)")
        if self.has_direction.shape != (m, k):
            raise ValidationError(
                f"has_direction has shape {self.has_direction.shape}, expected {(m, k)}"
            )
        stray = np.argwhere(self.has_direction & ~self.active)
        if stray.size:
            i, a = stray[0]
            raise ValidationError(f"direction for inactive pair (agent {i}, arm {a})")
        norms = np.linalg.norm(self.directions[self.has_direction], axis=-1)
        # Negated so that a NaN norm fails too.
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
        if bad.size:
            i, a = np.argwhere(self.has_direction)[bad[0]]
            raise ValidationError(
                f"direction for (agent {i}, arm {a}) has norm {norms[bad[0]]}, expected 1"
            )
        self.arms = np.flatnonzero(self.active.any(axis=0)).tolist()
        # C order: the solver's einsums round differently on other layouts.
        self.dirs = np.ascontiguousarray(
            np.where(self.has_direction[:, self.arms, None], self.directions[:, self.arms], 0.0)
        )


@dataclass
class DesignAllocation:
    """Exploration fractions pi_{a,i}; one distribution per agent.

    ``pi`` is ``(M, K)`` over arm ids 0..K-1 and zero off each agent's
    active set.  ``gap`` is the Frank-Wolfe duality gap at the returned
    iterate, an upper bound on how far ``objective`` is below the optimum
    (nan for an allocation the solver did not produce).  ``converged``
    says whether that gap met the solver's stopping rule.
    """

    pi: np.ndarray
    converged: bool = True
    objective: float = 0.0
    sweeps: int = 0
    objective_trace: list[float] = field(default_factory=list)
    gap: float = math.nan


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


def design_objective(prob: DesignProblem, pi: np.ndarray) -> float:
    """Span-restricted log-det objective at an arbitrary feasible ``(M, K)`` point."""
    w, keep, _ = eigh_range(_grams(pi[:, prob.arms], prob.dirs))
    return _logdet_span(w, keep, _span_ranks(prob.dirs))


def _start_pi(
    active: np.ndarray, arms: list[int], warm: DesignAllocation | None
) -> np.ndarray:
    """Uniform over each row of the ``(M, K')`` mask ``active``, or the warm
    allocation restricted to the active arms, renormalized and blended with
    uniform so restored rosters stay interior."""
    uniform = active / active.sum(axis=1, keepdims=True)
    if warm is None:
        return uniform
    prev = np.where(active, np.maximum(warm.pi[:, arms], 0.0), 0.0)
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
        # C order, as ``dirs``: row sums round differently on other layouts.
        self.active = np.ascontiguousarray(prob.active[:, prob.arms])
        self.dirs = prob.dirs
        self.ranks = _span_ranks(self.dirs)
        self.pi = _start_pi(self.active, prob.arms, warm)
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

    def _block_update(self, agent: int):
        """Pairwise Frank-Wolfe steps on one agent's simplex.

        Each step moves mass from the in-support arm with the smallest
        gradient to the arm with the largest.  The exact step length for
        h(t) = log(1 + t g_b) + log(1 - t g_w) is t* = (g_b - g_w) /
        (2 g_b g_w), which always lies strictly before the pole 1/g_w;
        clamping at the full away mass therefore never drops an arm Gram's
        rank.  A step of t along e changes g = e' W^+ e to g / (1 + t g),
        so the gradients stay current without touching W^+ inside the loop.
        Stepping ends after a step that gains less than ``_MIN_STEP_GAIN``.
        """
        cols = self.cols[agent]
        if cols.size == 1:
            return
        e = self.agent_dirs[agent]
        pe = np.einsum("kjl,kl->kj", self.pinv[cols], e)
        g0 = np.einsum("kj,kj->k", pe, e)
        if not g0.max() > 0.0:
            return
        g = g0.copy()
        start = self.pi[agent, cols]
        # Gradients of the in-support arms, +inf elsewhere: the away choice.
        away = np.where(start > 0.0, g, np.inf)
        weights = start.tolist()
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
            if gain < _MIN_STEP_GAIN:
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

    def sweep(self):
        for agent in range(len(self.cols)):
            self._block_update(agent)
        # Rebuild from pi so rank-1 update drift cannot accumulate.
        self._rebuild()


def solve_design(
    prob: DesignProblem,
    max_iters: int = 500,
    tol: float = 1e-6,
    warm_start: DesignAllocation | None = None,
) -> DesignAllocation:
    """Block-coordinate ascent for the separable log-det design.

    Runs full sweeps over agents and stops after the first sweep whose
    Frank-Wolfe duality gap is at most ``tol`` times the summed span ranks
    of the arms, so ``tol`` is the gap allowed per unit of rank.  F is
    concave, so that gap bounds how far the objective is below the
    optimum.  If ``max_iters`` sweeps elapse first, the last iterate is
    returned with ``converged=False``; it is still a feasible allocation.
    """
    if max_iters < 1:
        raise ValidationError("max_iters must be at least 1")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")

    solver = _Solver(prob, warm_start)
    allowed = tol * float(solver.ranks.sum())
    trace = [solver.objective]
    converged = False
    for sweeps in range(1, max_iters + 1):
        solver.sweep()
        trace.append(solver.objective)
        gap = solver.gap()
        if gap <= allowed:
            converged = True
            break

    total = solver.pi.sum(axis=1, keepdims=True)
    # Kill float drift so each agent's budget sums to one.
    drift = (np.abs(total - 1.0) > SIMPLEX_TOL) & (total > 0.0)
    pi = np.zeros(prob.active.shape)
    pi[:, prob.arms] = np.divide(solver.pi, total, out=solver.pi.copy(), where=drift)
    return DesignAllocation(
        pi=pi,
        converged=converged,
        objective=trace[-1],
        sweeps=sweeps,
        objective_trace=trace,
        gap=gap,
    )


def design_score(prob: DesignProblem, alloc: DesignAllocation) -> np.ndarray:
    """g_{a,i} = e' (sum_j pi_{a,j} e_j e_j^T)^+ e for every pair, as ``(M, K)``.

    Pairs without a direction, and pairs off the active sets, score 0.
    """
    total = np.where(prob.active, alloc.pi, 0.0).sum(axis=1)
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-6)
    if bad.size:
        raise ValidationError(f"allocation for agent {bad[0]} sums to {total[bad[0]]}")
    g = np.zeros(prob.active.shape)
    pinvs = eigh_range(_grams(alloc.pi[:, prob.arms], prob.dirs))[2]
    g[:, prob.arms] = _scores(prob.dirs, pinvs)
    return g
