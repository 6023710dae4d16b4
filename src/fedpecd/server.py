"""Server-side protocol: aggregation, design solving, allocation.

Initialization and every phase share one aggregation formula; they differ
only in which uploads they accept (init: every agent, every arm, f = 1;
phase: each (agent, arm) pair the server issued pulls for, with the
issued count f), and every pair issued a pull must report.  All arms
are aggregated in one stacked pass with one batched pseudo-inverse; each
arm's terms are added in agent order, so the order of the uploads cannot
change a bit of the result.  Inside the server and the design, rosters
and allocations are dense over arm ids 0..K-1: each phase's active sets
are an ``(M, K)`` bool mask and the issued pull counts an ``(M, K)`` int
array; only the messages carry them as dicts.

The server only ever sees uploaded estimates and active sets.  Direction
vectors for the exploration design are recovered from the uploads
themselves: an estimate y psi / ||psi||^2 is collinear with the uploading
agent's psi, so each (agent, arm) direction is fixed by the init upload and
learned once, there, into a dense ``(M, K, d)`` array that every phase's
design reads as it is.  No later phase can add one: a pair lacks a
direction only if its init estimate is exactly 0.0.  With sigma = 0 every later
estimate of that pair is 0.0 as well; with sigma > 0 the init estimate is
0.0 only through a reward draw of exactly 0.0.  The design reads a
direction e only through e e' and e' W^+ e, so its sign does not matter
and no sign rule is applied.
"""

from __future__ import annotations

import math

import numpy as np

from .design import DesignAllocation, DesignProblem, solve_design
from .errors import DegenerateArmError, NotPSDError, ProtocolError
from .linalg import eigen_cutoff, pinv
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload

# Relief subtracted before ceil() so float dust cannot inflate a count.
_CEIL_RELIEF = 1e-9

# Duality gap per unit of span rank at which each phase's design stops.
# Phased elimination needs only a constant-factor G-optimal design
# (Lattimore & Szepesvari 2020, Bandit Algorithms, ch. 21-22: a design
# whose largest score is at most twice the optimal one costs only a
# constant factor in regret); a gap of 1e-3 per rank is far tighter.
DESIGN_TOL = 1e-3


def _sq_norms(th: np.ndarray) -> np.ndarray:
    """||th||^2 along the last axis, bit-identical to ``th @ th`` per vector.

    A stacked matmul reduces each vector as ``th @ th`` does; an einsum or
    ``np.linalg.norm(axis=-1)`` can differ in the last bit.
    """
    return (th[..., None, :] @ th[..., :, None])[..., 0, 0]


def _check_psd(v: np.ndarray, arms: list[int]):
    """Reject a ``(K, d, d)`` stack of V naming the first non-PSD arm.

    The tolerance is relative per matrix: V = Gram^+ has norm ~1 /
    lambda_min(Gram), so its rounding error scales with it.
    """
    w = np.linalg.eigvalsh(0.5 * (v + np.swapaxes(v, -1, -2)))
    low = np.min(w, axis=-1, initial=np.inf)
    bad = np.flatnonzero(low < -eigen_cutoff(w))
    if bad.size:
        k = bad[0]
        raise NotPSDError(f"aggregated V for arm {arms[k]} has eigenvalue {low[k]}")


def _aggregate(
    phase: int,
    arms: list[int],
    f: np.ndarray,
    th: np.ndarray,
    prev: GlobalBroadcast | None,
) -> GlobalBroadcast:
    """Per arm: V = pinv(sum_i f_i th th' / ||th||^2), theta = V (sum_i f_i th).

    ``f`` is ``(M, K)`` and ``th`` ``(M, K, d)``: agent i's pull count and
    estimate for ``arms[k]``, with f = 0 where the agent sent none.  Terms
    with f < 1 are skipped.  Estimates that are exactly zero (zero observed
    reward) carry no direction and are skipped in the Gram sum; their
    contribution to the linear term is zero anyway.  An arm with no usable
    estimate keeps its model from ``prev``, since a zero model would
    spuriously eliminate it; without ``prev`` (initialization) it is
    degenerate.

    Every arm is aggregated in one stacked pass that gives the bits of
    adding each arm's terms one by one in agent order: a skipped term
    enters the sums as -0.0, the exact additive identity, and ``cumsum``
    adds along the agent axis in order (a ``reduceat`` sum does not give
    the same bits).  One ``pinv`` call inverts the ``(K, d, d)`` Gram stack.
    """
    usable = f >= 1
    norm_sq = _sq_norms(th)
    in_gram = usable & (norm_sq != 0.0)
    has_gram = in_gram.any(axis=0)
    if prev is None and not has_gram.all():
        a = arms[int(np.argmin(has_gram))]
        raise DegenerateArmError(f"all initial estimates for arm {a} are zero")
    linear = np.cumsum(np.where(usable[..., None], f[..., None] * th, -0.0), axis=0)[-1]
    coef = np.divide(f, norm_sq, out=np.zeros_like(norm_sq), where=in_gram)
    outer = coef[..., None, None] * (th[..., :, None] * th[..., None, :])
    gram = np.cumsum(np.where(in_gram[..., None, None], outer, -0.0), axis=0)[-1]
    v = pinv(gram)
    _check_psd(v, arms)
    theta = (v @ linear[..., None])[..., 0]
    models = {
        a: (theta[k], v[k]) if has_gram[k] else prev.models[a] for k, a in enumerate(arms)
    }
    return GlobalBroadcast(phase=phase, models=models)


def _rejected(u: LocalEstimateUpload | ActiveSetUpload, arm, problem: str) -> ProtocolError:
    """The error naming an upload's agent, arm (or arm list) and phase."""
    return ProtocolError(f"agent {u.agent}, arm {arm}, phase {u.phase}: {problem}")


def _checked_theta(u: LocalEstimateUpload, e, d: int) -> np.ndarray:
    """An estimate's theta_hat as a finite (d,) array, or its rejection."""
    th = np.asarray(e.theta_hat, dtype=float)
    if th.shape != (d,) or not all(map(math.isfinite, th.tolist())):
        raise _rejected(u, e.arm, f"theta_hat must be finite of shape ({d},), got {th.shape}")
    return th


def _init_stack(uploads: list[LocalEstimateUpload], m: int, k: int, d: int) -> np.ndarray:
    """The ``(M, K, d)`` stack of checked init estimates, by agent then arm."""
    return np.array(
        [
            [e.theta_hat for e in sorted(u.estimates, key=lambda e: e.arm)]
            for u in sorted(uploads, key=lambda u: u.agent)
        ],
        dtype=float,
    ).reshape(m, k, d)


def aggregate_init(uploads: list[LocalEstimateUpload], m: int, k: int, d: int) -> GlobalBroadcast:
    """Aggregate the single-pull estimates into the first global model.

    Needs one phase-0 upload per agent covering every arm with finite
    ``(d,)`` estimates; each enters the aggregation with f = 1.
    """
    seen: set[int] = set()
    for u in uploads:
        arms = sorted(e.arm for e in u.estimates)
        if u.phase != 0:
            raise _rejected(u, arms, "initial uploads must be phase 0")
        if u.agent in seen:
            raise _rejected(u, arms, "second initial upload from this agent")
        seen.add(u.agent)
        if arms != list(range(k)):
            raise _rejected(u, arms, f"initial upload must cover all {k} arms")
        for e in u.estimates:
            _checked_theta(u, e, d)
    if seen != set(range(m)):
        raise ProtocolError(f"initialization needs uploads from all {m} agents")
    return _aggregate(1, list(range(k)), np.ones((m, k)), _init_stack(uploads, m, k, d), None)


def aggregate_phase(
    uploads: list[LocalEstimateUpload],
    issued: np.ndarray,
    active: np.ndarray,
    prev: GlobalBroadcast,
) -> GlobalBroadcast:
    """Aggregate phase-p uploads into the next global model.

    ``issued`` holds the ``(M, K)`` pull counts the server issued and
    ``active`` the ``(M, K)`` mask of the active sets they were issued for;
    the model covers the union of those sets.  Each upload must be stamped
    with the phase of ``prev``, and each (agent, arm) estimate must be
    finite, shaped like ``prev``'s models and come from an active pair, at
    most once, with the issued pull count; every pair issued at least one
    pull must report.
    """
    d = len(next(iter(prev.models.values()))[0])
    m, k = issued.shape
    # Indexed by agent, so each arm's terms add in agent order whatever
    # the order of the uploads.
    th = np.zeros((m, k, d))
    seen = np.zeros((m, k), dtype=bool)
    for u in uploads:
        if u.phase != prev.phase:
            arms = [e.arm for e in u.estimates]
            raise _rejected(u, arms, f"expected phase {prev.phase}")
        for e in u.estimates:
            # Range first: a negative id would wrap around the arrays.
            if not (0 <= u.agent < m and 0 <= e.arm < k and active[u.agent, e.arm]):
                raise _rejected(u, e.arm, "upload outside the agent's roster")
            if seen[u.agent, e.arm]:
                raise _rejected(u, e.arm, "second upload for this pair")
            seen[u.agent, e.arm] = True
            f = issued[u.agent, e.arm]
            if e.pulls != f:
                raise _rejected(u, e.arm, f"uploaded {e.pulls} pulls, server issued {f}")
            th[u.agent, e.arm] = _checked_theta(u, e, d)
    missing = np.argwhere((issued >= 1) & ~seen)
    if missing.size:
        i, a = missing[0]
        raise ProtocolError(
            f"agent {i}, arm {a}, phase {prev.phase}: no upload for {issued[i, a]} issued pulls"
        )
    union = np.flatnonzero(active.any(axis=0))
    return _aggregate(prev.phase + 1, union.tolist(), issued[:, union], th[:, union], prev)


def allocate(alloc: DesignAllocation, f_p: int) -> np.ndarray:
    """Pull counts f = ceil(pi * f_p) as ``(M, K)`` ints; exact zeros stay zero."""
    if f_p < 1:
        raise ProtocolError(f"phase budget must be at least 1, got {f_p}")
    pi = alloc.pi
    return np.where(pi == 0.0, 0, np.ceil(pi * f_p - _CEIL_RELIEF)).astype(int)


class CentralServer:
    """Synchronous-round server: one barrier per phase.

    Per (agent, arm) it keeps the direction learned at initialization, as
    the dense ``(M, K, d)`` ``directions`` with the ``(M, K)`` mask
    ``has_direction``; the ``(M, K)`` mask ``active`` of the last active
    sets it planned for (every arm before the first phase); and the
    ``(M, K)`` pull counts ``issued`` for them.  ``design`` is the last
    phase's design solve, run at ``design_tol``; it also warm-starts the
    next one.  The server proceeds on an unconverged solve: its allocation
    is feasible, and ``design.converged`` reports it.
    """

    def __init__(self, m: int, k: int, d: int):
        self.m = m
        self.k = k
        self.d = d
        self.model: GlobalBroadcast | None = None
        self.directions = np.zeros((m, k, d))
        self.has_direction = np.zeros((m, k), dtype=bool)
        self.design_tol = DESIGN_TOL
        self.design: DesignAllocation | None = None
        self.active = np.ones((m, k), dtype=bool)
        self.issued: np.ndarray | None = None

    def ingest_init(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        self.model = aggregate_init(uploads, self.m, self.k, self.d)
        th = _init_stack(uploads, self.m, self.k, self.d)
        # np.linalg.norm of one vector is sqrt(th @ th): the same bits.
        norm = np.sqrt(_sq_norms(th))
        self.has_direction = norm > 0.0
        self.directions = np.divide(
            th, norm[..., None], out=np.zeros_like(th), where=self.has_direction[..., None]
        )
        return self.model

    def plan_phase(
        self, active_uploads: list[ActiveSetUpload], f_p: int
    ) -> list[AllocationMessage]:
        """Check the active sets, solve the design, and issue pull counts.

        Each upload must be stamped with the phase of the current model, and
        each agent's arms must be distinct, nonempty and within its previous
        active set.
        """
        ordered = sorted(active_uploads, key=lambda u: u.agent)
        if [u.agent for u in ordered] != list(range(self.m)):
            raise ProtocolError("need exactly one active-set upload per agent")
        active = np.zeros((self.m, self.k), dtype=bool)
        for u in ordered:
            if self.model is None:
                raise _rejected(u, u.arms, "active set before initialization")
            if u.phase != self.model.phase:
                raise _rejected(u, u.arms, f"expected phase {self.model.phase}")
            if not u.arms:
                raise ProtocolError(f"agent {u.agent} reported an empty active set")
            for a in u.arms:
                # Range first: a negative id would wrap around the masks.
                if not (0 <= a < self.k and self.active[u.agent, a]):
                    raise _rejected(u, a, "arm outside the agent's previous active set")
                if active[u.agent, a]:
                    raise _rejected(u, a, "arm reported twice")
                active[u.agent, a] = True
        prob = DesignProblem(active, self.directions, self.has_direction & active)
        self.design = solve_design(prob, tol=self.design_tol, warm_start=self.design)
        self.active = active
        self.issued = allocate(self.design, f_p)
        return [
            AllocationMessage(
                agent=i,
                phase=self.model.phase,
                counts=dict(zip(np.flatnonzero(row).tolist(), self.issued[i, row].tolist())),
            )
            for i, row in enumerate(active)
        ]

    def ingest_phase(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        if self.issued is None or self.model is None:
            raise ProtocolError("phase uploads arrived before planning")
        self.model = aggregate_phase(uploads, self.issued, self.active, self.model)
        return self.model
