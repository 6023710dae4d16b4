"""Server-side protocol: round checks, aggregation, design solving, allocation.

The server keeps everything dense over agents 0..M-1 and arm ids 0..K-1,
the format of the rounds it receives and sends (see ``messages``): a
phase's active sets are an ``(M, K)`` bool mask, its issued pull counts an
``(M, K)`` int array and a round's estimates an ``(M, K, d)`` array.  Every
round is checked whole before any of it is used: shape, dtypes and phase
stamps (``check_round``), then mask checks on its pairs (``check_pairs``).

Initialization and every phase share one aggregation formula; they differ
only in which pairs they accept (init: every agent, every arm, f = 1;
phase: each (agent, arm) pair of the active sets the server planned for,
with the issued count f), and every pair issued a pull must report.  All
arms are aggregated in one stacked pass with one batched pseudo-inverse;
each arm's terms are added in agent order.

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

import numpy as np

from .design import DesignAllocation, DesignProblem, solve_design
from .errors import DegenerateArmError, NotPSDError, ProtocolError
from .linalg import eigen_cutoff, pinv, sq_norms
from .messages import (ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload,
                       check_pairs, check_round)

# Relief subtracted before ceil() so float dust cannot inflate a count.
_CEIL_RELIEF = 1e-9

# Slack eps of each phase's design certificate: an agent's worst score may
# exceed its budget-weighted mean score, which it equals at the optimum, by
# a factor 1 + eps.  Widths scale with sqrt(g), so eps = 2e-2 allows a
# factor sqrt(1.02) on a width.  On the seed-1 benchmark solves the worst
# scores stayed within 1.045 of a tol = 1e-7 solve's, widths within about
# 2.2%.  Phased elimination needs only a constant-factor G-optimal design
# (Lattimore & Szepesvari 2020, Bandit Algorithms, ch. 21-22: a design
# whose largest score is at most twice the optimal one costs only a
# constant factor in regret).
DESIGN_TOL = 2e-2


def _check_psd(v: np.ndarray, arms: np.ndarray):
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
    f: np.ndarray,
    th: np.ndarray,
    arms: np.ndarray,
    prev: GlobalBroadcast | None,
) -> GlobalBroadcast:
    """Per arm: V = pinv(sum_i f_i th th' / ||th||^2), theta = V (sum_i f_i th).

    ``f`` is ``(M, K)`` and ``th`` ``(M, K, d)``: agent i's pull count and
    estimate for each arm, with f = 0 where the agent sent none; the
    broadcast carries a model for each of ``arms``.  Terms with f < 1 are
    skipped.  Estimates that are exactly zero (zero observed reward) carry
    no direction and are skipped in the Gram sum; their contribution to the
    linear term is zero anyway.  An arm with no usable estimate keeps its
    model from ``prev``, since a zero model would spuriously eliminate it;
    without ``prev`` (initialization) it is degenerate.

    Every arm is aggregated in one stacked pass that gives the bits of
    adding each arm's terms one by one in agent order: a skipped term
    enters the sums as -0.0, the exact additive identity, and ``cumsum``
    adds along the agent axis in order (a ``reduceat`` sum does not give
    the same bits).  One ``pinv`` call inverts the ``(K, d, d)`` Gram stack.
    """
    k, d = th.shape[1:]
    f, th = f[:, arms], th[:, arms]
    usable = f >= 1
    norm_sq = sq_norms(th)
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
    if prev is not None:
        theta = np.where(has_gram[:, None], theta, prev.theta[arms])
        v = np.where(has_gram[:, None, None], v, prev.v[arms])
    out = GlobalBroadcast(phase, np.zeros((k, d)), np.zeros((k, d, d)), np.zeros(k, dtype=bool))
    out.theta[arms] = theta
    out.v[arms] = v
    out.has_model[arms] = True
    return out


def _aggregate_round(
    upload: LocalEstimateUpload,
    issued: np.ndarray,
    active: np.ndarray,
    phase: int,
    d: int,
    prev: GlobalBroadcast | None,
) -> GlobalBroadcast:
    """Check one round of estimates and aggregate it (see ``aggregate_phase``)."""
    m, k = issued.shape
    check_round(upload, phase, m, k, d)
    reported, pulls = upload.arms, upload.pulls
    check_pairs(phase, [
        (reported & ~active, "arm outside the agent's roster"),
        (reported & ~np.isfinite(upload.theta_hat).all(axis=-1), "theta_hat is not finite"),
        (reported & (pulls != issued),
         lambda i, a: f"uploaded {pulls[i, a]} pulls, server issued {issued[i, a]}"),
        ((issued >= 1) & ~reported, lambda i, a: f"no upload for {issued[i, a]} issued pulls"),
    ])
    th = np.where(reported[..., None], upload.theta_hat, 0.0)
    union = np.flatnonzero(active.any(axis=0))
    return _aggregate(phase + 1, issued, th, union, prev)


def aggregate_init(upload: LocalEstimateUpload, m: int, k: int, d: int) -> GlobalBroadcast:
    """Aggregate the single-pull estimates into the first global model.

    Needs a phase-0 round in which every agent reports every arm with one
    pull and a finite ``(d,)`` estimate; each enters with f = 1.
    """
    return _aggregate_round(
        upload, np.ones((m, k), dtype=int), np.ones((m, k), dtype=bool), 0, d, None
    )


def aggregate_phase(
    upload: LocalEstimateUpload,
    issued: np.ndarray,
    active: np.ndarray,
    prev: GlobalBroadcast,
) -> GlobalBroadcast:
    """Aggregate a phase-p round of estimates into the next global model.

    ``issued`` holds the ``(M, K)`` pull counts the server issued and
    ``active`` the ``(M, K)`` mask of the active sets they were issued for;
    the model covers the union of those sets.  Every row is stamped with
    the phase of ``prev``; each reported estimate must be finite, shaped
    like ``prev``'s models and come from an active pair with the issued
    pull count; every pair issued at least one pull must report.
    """
    return _aggregate_round(upload, issued, active, prev.phase, prev.theta.shape[1], prev)


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
    ``(M, K)`` pull counts ``issued`` for them, both fresh arrays each phase
    that it never writes into later, and the phase ``planned`` they were
    issued for (0 before the first).  ``design`` is the last phase's design
    solve, run at ``DESIGN_TOL``; it also warm-starts the next one.  The
    server proceeds on an unconverged solve: its allocation is feasible,
    and ``design.converged`` reports it.
    """

    def __init__(self, m: int, k: int, d: int):
        self.m = m
        self.k = k
        self.d = d
        self.model: GlobalBroadcast | None = None
        self.directions = np.zeros((m, k, d))
        self.has_direction = np.zeros((m, k), dtype=bool)
        self.design: DesignAllocation | None = None
        self.active = np.ones((m, k), dtype=bool)
        self.issued: np.ndarray | None = None
        self.planned = 0

    def ingest_init(self, upload: LocalEstimateUpload) -> GlobalBroadcast:
        """Aggregate the init round and learn each pair's direction from it; a
        second init round is stale, since the model has moved past phase 0."""
        if self.model is not None:
            raise ProtocolError(f"phase {self.model.phase}: stale initialization round")
        self.model = aggregate_init(upload, self.m, self.k, self.d)
        th = np.asarray(upload.theta_hat, dtype=float)
        # np.linalg.norm of one vector is sqrt(th @ th): the same bits.
        norm = np.sqrt(sq_norms(th))
        self.has_direction = norm > 0.0
        self.directions = np.divide(
            th, norm[..., None], out=np.zeros_like(th), where=self.has_direction[..., None]
        )
        return self.model

    def plan_phase(self, upload: ActiveSetUpload, f_p: int) -> AllocationMessage:
        """Check the active sets, solve the design, and issue pull counts.

        The round must be stamped with the phase of the current model, and
        each agent's set must be nonempty and within its previous active
        set.  A second round for a phase already planned is stale.  The
        allocation names each agent's active arms with their counts, zero
        counts included.
        """
        if self.model is None:
            raise ProtocolError("planning before initialization")
        phase = self.model.phase
        if self.planned == phase:
            raise ProtocolError(f"phase {phase}: stale active-set round, phase already planned")
        check_round(upload, phase, self.m, self.k)
        active = upload.arms.copy()
        check_pairs(phase, [(active & ~self.active, "arm outside the agent's roster")])
        empty = np.flatnonzero(~active.any(axis=1))
        if empty.size:
            raise ProtocolError(f"agent {empty[0]}, arm [], phase {phase}: empty active set")
        prob = DesignProblem(active, self.directions, self.has_direction & active)
        self.design = solve_design(prob, tol=DESIGN_TOL, warm_start=self.design)
        self.active, self.planned = active, phase
        self.issued = allocate(self.design, f_p)
        return AllocationMessage(
            phase=np.full(self.m, phase), arms=active.copy(), counts=self.issued.copy()
        )

    def ingest_phase(self, upload: LocalEstimateUpload) -> GlobalBroadcast:
        if self.issued is None or self.model is None:
            raise ProtocolError("phase uploads arrived before planning")
        self.model = aggregate_phase(upload, self.issued, self.active, self.model)
        return self.model
