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

The solver is cyclic block-coordinate ascent over agents, and each agent
block is maximized exactly.  Moving one agent's weights changes each arm
Gram only along that agent's direction, so by the matrix determinant
lemma on the range the block objective is separable and concave,
sum_a log(1 + delta_a g_a) with g_a = e' W_a^+ e, and its maximizer over
the simplex is a closed-form water-filling (Tseng 2001: cyclic
block-coordinate ascent converges when each block is maximized exactly).
The maximizer keeps positive weight on every arm whose Gram rests on this
agent alone along its direction, so every roster direction stays inside
the range of its arm Gram and the rank-1 formulas stay exact.

The input, the state and the output are dense over arm ids 0..K-1.  A
problem takes the rosters and directions as the server keeps them: an
(M, K) active mask and an (M, K, d) array whose zero rows mark the pairs
without a direction.  The solver holds pi as (M, K), zero off each
agent's active set, and each arm keeps its Gram's range pseudo-inverse
W_a^+ in a (K, d, d) stack; an arm no agent keeps active has a zero Gram
and scores 0.  A block reads all of its scores g = e' W^+ e with
one einsum, water-fills, and then refreshes W_a^+ for each arm it moved
by one Sherman-Morrison update, exact on the range because that range
never shrinks.  W is rebuilt from pi with one einsum, and W^+ and the
objective's eigenvalues come from one batched eigh, only at the start and
to confirm a certificate about to stop the solve, so the number of
eigendecompositions does not grow with sweeps.

The solver stops on a per-agent Kiefer-Wolfowitz certificate.  At the
optimum every agent's block satisfies its KKT conditions, so each agent's
worst score max_a g_{a,i} equals its budget-weighted mean score
sum_a pi_{a,i} g_{a,i}.  The solver reads every score from the W^+ the
blocks keep, at the start and after each sweep, and stops once, for every
agent, the worst score is at most (1 + tol) times the mean: the
eps-approximate optimality of Todd (Minimum-Volume Ellipsoids, 2016,
ch. 3).  A passing check after a sweep is confirmed on W^+ rebuilt from
pi, and sweeping goes on if an agent fails there, so the certificate,
gap and objective returned are those of the returned weights.  A start
that already certifies costs no sweep, and a sweep updates only the
agents whose own ratio failed the last check (Gauss-Southwell-type block
selection, Nutini et al., ICML 2015).  Elimination widths scale with
sqrt(g), so this bounds how far each agent's widest confidence interval
sits above the optimum's.  Summed over agents the mean scores make up
sum_a rank(W_a), so the certificate also bounds the Frank-Wolfe duality
gap, and with it the distance of F to its optimum, by tol * sum_a rank_a.
The returned allocation carries both the worst ratio and the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import eigh_range

UNIT_NORM_TOL = 1e-9
SIMPLEX_TOL = 1e-9

# Uniform mass blended into a warm start whose restriction lost span rank.
_WARM_BLEND = 1e-2


@dataclass
class DesignProblem:
    """Active sets and unit directions per (agent, arm) pair.

    The input is dense over arm ids 0..K-1: ``active`` is the ``(M, K)``
    mask of each agent's active arms and ``directions`` is ``(M, K, d)``,
    with a zero row for each pair that has no direction.  Only active
    pairs may have one.  A pair may lack a direction (the server never
    learned one for it); such pairs contribute nothing to any Gram matrix
    and attract no budget.
    """

    active: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=bool)
        self.directions = np.asarray(self.directions, dtype=float)
        if self.active.ndim != 2 or not self.active.shape[0]:
            raise ValidationError(f"active has shape {self.active.shape}, expected (M, K), M >= 1")
        empty = np.flatnonzero(~self.active.any(axis=1))
        if empty.size:
            raise ValidationError(f"agent {empty[0]} has an empty active set")
        m, k = self.active.shape
        shape = self.directions.shape
        if len(shape) != 3 or shape[:2] != (m, k):
            raise ValidationError(f"directions have shape {shape}, expected ({m}, {k}, d)")
        given = self.directions.any(axis=-1)
        stray = np.argwhere(given & ~self.active)
        if stray.size:
            i, a = stray[0]
            raise ValidationError(f"direction for inactive pair (agent {i}, arm {a})")
        norms = np.linalg.norm(self.directions[given], axis=-1)
        # Negated so that a NaN norm fails too.
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
        if bad.size:
            i, a = np.argwhere(given)[bad[0]]
            raise ValidationError(
                f"direction for (agent {i}, arm {a}) has norm {norms[bad[0]]}, expected 1"
            )


@dataclass
class DesignAllocation:
    """Exploration fractions pi_{a,i}; one distribution per agent.

    ``pi`` is ``(M, K)`` over arm ids 0..K-1 and zero off each agent's
    active set.  ``certificate`` is the worst per-agent ratio of the
    largest score to the budget-weighted mean score at the returned
    iterate (1 at the optimum), and ``gap`` the Frank-Wolfe duality gap
    there, an upper bound on how far ``objective`` is below the optimum;
    both are nan for an allocation the solver did not produce.
    ``converged`` says whether the certificate met the solver's stop rule.
    ``sweeps`` counts the sweeps run, 0 when the start already certified,
    and ``blocks`` the agent block updates they did: a sweep updates only
    the agents whose ratio failed the certificate before it.
    """

    pi: np.ndarray
    converged: bool = True
    objective: float = 0.0
    sweeps: int = 0
    gap: float = math.nan
    certificate: float = math.nan
    blocks: int = 0


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


def _start_pi(active: np.ndarray, warm: DesignAllocation | None, blend: float) -> np.ndarray:
    """Uniform over each row of the ``(M, K)`` mask ``active``, or the warm
    allocation restricted to the active arms and renormalized, with a
    ``blend`` share of uniform mixed in (an agent that kept no weight on its
    active arms starts uniform).  The solver starts unblended, so an arm the
    last solve gave no weight keeps none until a block moves it, and blends
    in ``_WARM_BLEND`` only if that start lost span rank on some arm."""
    uniform = active / active.sum(axis=1, keepdims=True)
    if warm is None:
        return uniform
    prev = np.where(active, np.maximum(warm.pi, 0.0), 0.0)
    total = prev.sum(axis=1, keepdims=True)
    kept = total >= 1e-9
    share = np.divide(prev, total, out=np.zeros_like(prev), where=kept)
    return np.where(kept, (1.0 - blend) * share + blend * uniform, uniform)


class _Solver:
    """Dense solver state.

    ``pi`` is (M, K), ``directions`` (M, K, d), and ``pinv`` holds the range
    pseudo-inverse W_a^+ of every arm Gram as (K, d, d).  A block sets one
    agent's weights to their exact maximizer, which changes W_a only along
    the agent's own direction e_{a,i}, so each touched arm's W_a^+ is
    brought up to date by one exact Sherman-Morrison update on the range;
    W, W^+ and ``objective`` are rebuilt from pi by ``_rebuild``, which
    the solve calls at the start and to confirm a certificate.
    """

    def __init__(self, prob: DesignProblem, warm: DesignAllocation | None):
        # C order: along the rows of a Fortran-ordered mask numpy adds one
        # column at a time instead of pairwise, so the warm start's row sums
        # would round differently.
        self.active = np.ascontiguousarray(prob.active)
        self.directions = prob.directions
        self.ranks = _span_ranks(self.directions)
        self.pi = _start_pi(self.active, warm, 0.0)
        self.cols = [np.flatnonzero(row) for row in self.active]
        self.agent_dirs = [d[c] for d, c in zip(self.directions, self.cols)]
        self._rebuild()
        if self.objective == -np.inf:
            # The restricted warm start lost span rank on some arm.
            self.pi = _start_pi(self.active, warm, _WARM_BLEND)
            self._rebuild()

    def _rebuild(self):
        w, keep, self.pinv = eigh_range(_grams(self.pi, self.directions))
        self.objective = _logdet_span(w, keep, self.ranks)

    def certify(self) -> tuple[np.ndarray, float]:
        """The ``(M,)`` per-agent ratios max_a g_{a,i} / sum_a pi_{a,i} g_{a,i}
        and the Frank-Wolfe duality gap sum_i (max_a g_{a,i} - sum_a pi_{a,i} g_{a,i}).

        An agent whose scores are all 0 has nothing to balance and counts
        as ratio 1; one with a positive score but a zero mean, as inf.
        """
        g = _scores(self.directions, self.pinv)
        best = np.max(g, axis=1, where=self.active, initial=-np.inf)
        mean = np.sum(self.pi * g, axis=1)
        ratio = np.divide(best, mean, out=np.where(best > 0.0, np.inf, 1.0), where=mean > 0.0)
        return ratio, float(np.sum(best - mean))

    def _block_update(self, agent: int):
        """Set one agent's weights to the exact maximizer of its block.

        Moving the agent's weights by delta changes each arm Gram W_a only
        along the agent's direction e_a, so by the matrix determinant
        lemma on the range F changes by sum_a log(1 + delta_a g_a), with
        g_a = e_a' W_a^+ e_a.  That is separable and concave on the
        simplex, and its KKT conditions give the water-filling rule
        w_a = max(0, tau - c_a) with level c_a = 1/g_a - pi_a and tau set
        so that the weights sum to one.  Arms with g_a = 0 carry no
        information and get no weight.  An arm whose Gram rests on this
        agent alone along e_a (pi_a g_a = 1) has c_a = 0 < tau, so it keeps
        positive weight and never loses rank.  The levels are few (one per
        active arm), so plain Python sorts them faster than numpy calls.
        """
        cols = self.cols[agent]
        if cols.size == 1:
            return
        e = self.agent_dirs[agent]
        pinv = self.pinv[cols]
        pe = np.einsum("kjl,kl->kj", pinv, e)
        g = np.einsum("kj,kj->k", pe, e).tolist()
        start = self.pi[agent, cols].tolist()
        levels = [1.0 / gj - pj if gj > 0.0 else math.inf for gj, pj in zip(g, start)]
        order = sorted(levels)
        if order[0] == math.inf:
            return  # no arm carries information; leave the weights
        # tau = (1 + sum of the n lowest levels) / n for the largest n whose
        # n-th lowest level lies below it.
        total, n = 1.0, 0
        for c in order:
            if n and c * n >= total:
                break
            total += c
            n += 1
        tau = total / n
        weights = [max(0.0, tau - c) for c in levels]
        self.pi[agent, cols] = weights
        # Net change of W_a is delta * e e'.  Every roster direction lies in
        # its arm's range and the range never shrinks, so Sherman-Morrison
        # is exact there:  W^+ -= delta (W^+ e)(W^+ e)' / (1 + delta g).
        # An arm that did not move, or has no direction, gets coefficient 0,
        # which leaves its W^+ exactly as it was.
        coef = []
        for w, p, gj in zip(weights, start, g):
            delta = w - p
            coef.append(delta / (1.0 + delta * gj) if gj > 0.0 else 0.0)
        step = np.array(coef)[:, None] * pe
        self.pinv[cols] = pinv - step[:, :, None] * pe[:, None, :]

    def sweep(self, agents):
        """Update the blocks of ``agents`` in order.  W^+ stays the one the
        blocks keep by Sherman-Morrison, and ``objective`` is stale until
        the next ``_rebuild``."""
        for agent in agents:
            self._block_update(agent)


def solve_design(
    prob: DesignProblem,
    max_iters: int = 500,
    tol: float = 1e-6,
    warm_start: DesignAllocation | None = None,
) -> DesignAllocation:
    """Block-coordinate ascent for the separable log-det design.

    Stops at the first iterate, the start included, at which every agent i
    has max_a g_{a,i} <= (1 + tol) * sum_a pi_{a,i} g_{a,i} over its active
    arms, so ``tol`` is the relative slack allowed on each agent's worst
    score (an agent whose scores are all 0 passes).  Summed over agents
    this bounds the Frank-Wolfe duality gap by ``tol`` times the summed
    span ranks of the arms, and F is concave, so the gap bounds how far the
    objective is below the optimum.  The start is uniform, or
    ``warm_start`` restricted to the active arms (see ``_start_pi``); if it
    certifies, the result reports 0 sweeps.  Each sweep updates, in agent
    order, only the agents whose ratio exceeded 1 + tol at the last check,
    and ``blocks`` counts those updates.  After a sweep the check reads the
    W^+ the blocks keep up to date; once every agent passes it, or
    ``max_iters`` sweeps have run, W^+ is rebuilt from pi and the check is
    made again there, and an agent that fails it is swept on.  So
    ``certificate``, ``gap`` and ``objective`` are always those of the
    returned weights, free of rank-1 update drift.  If ``max_iters`` sweeps
    elapse first, the last iterate is returned with ``converged=False``; it
    is still a feasible allocation.
    """
    if max_iters < 1:
        raise ValidationError("max_iters must be at least 1")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")

    solver = _Solver(prob, warm_start)
    ratio, gap = solver.certify()
    sweeps = blocks = 0
    rebuilt = True
    while True:
        # Negated so that a NaN ratio fails the certificate.
        failing = np.flatnonzero(~(ratio <= 1.0 + tol))
        if failing.size and sweeps < max_iters:
            solver.sweep(failing.tolist())
            sweeps += 1
            blocks += failing.size
            rebuilt = False
        elif rebuilt:
            break
        else:
            # About to stop: confirm on W^+ rebuilt from pi, free of drift.
            solver._rebuild()
            rebuilt = True
        ratio, gap = solver.certify()

    total = solver.pi.sum(axis=1, keepdims=True)
    # Kill float drift so each agent's budget sums to one.
    drift = (np.abs(total - 1.0) > SIMPLEX_TOL) & (total > 0.0)
    pi = np.divide(solver.pi, total, out=solver.pi.copy(), where=drift)
    return DesignAllocation(
        pi=pi,
        converged=not failing.size,
        objective=solver.objective,
        sweeps=sweeps,
        gap=gap,
        certificate=float(ratio.max()),
        blocks=blocks,
    )

