"""Server-side protocol: round checks, aggregation, design solving, allocation.

The server keeps everything dense over arm ids 0..K-1: a phase's active
sets are an ``(M, K)`` bool mask, its issued pull counts an ``(M, K)`` int
array and a round's estimates an ``(M, K, d)`` array.  Every round of
uploads passes one roster check (``_check_roster``): one upload per agent,
stamped with the expected phase, naming distinct arms it may report.

Initialization and every phase share one aggregation formula; they differ
only in which uploads they accept (init: every agent, every arm, f = 1;
phase: each (agent, arm) pair the server issued pulls for, with the
issued count f), and every pair issued a pull must report.  All arms
are aggregated in one stacked pass with one batched pseudo-inverse; each
arm's terms are added in agent order, so the order of the uploads cannot
change a bit of the result.

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
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload

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


def _rejected(u: LocalEstimateUpload | ActiveSetUpload, arm, problem: str) -> ProtocolError:
    """The error naming an upload's agent, arm (or arm list) and phase."""
    return ProtocolError(f"agent {u.agent}, arm {arm}, phase {u.phase}: {problem}")


def _check_roster(uploads, phase: int, allowed: np.ndarray) -> np.ndarray:
    """The ``(M, K)`` mask of the (agent, arm) pairs a round of uploads reports.

    Each agent 0..M-1 must send exactly one upload, stamped ``phase``,
    with an integer agent id and distinct integer arm ids ``allowed`` for
    it.  Uploads are checked in the order they arrive; an agent that sent
    none is named after them.
    """
    m, k = allowed.shape
    reported = np.zeros((m, k), dtype=bool)
    sent = np.zeros(m, dtype=bool)
    for u in uploads:
        ids = np.asarray(u.arms)
        arms = ids.tolist()
        if u.phase != phase:
            raise _rejected(u, arms, f"expected phase {phase}")
        # Integers first: a float id passes the range check, then fails to index.
        if np.asarray(u.agent).dtype.kind not in "iu" or (ids.size and ids.dtype.kind not in "iu"):
            raise _rejected(u, arms, "agent and arm ids must be integers")
        # Range next: a negative id would wrap around the masks.
        if not 0 <= u.agent < m:
            raise _rejected(u, arms, f"agent id outside 0..{m - 1}")
        if sent[u.agent]:
            raise _rejected(u, arms, "second upload from this agent")
        sent[u.agent] = True
        for a in arms:
            if not (0 <= a < k and allowed[u.agent, a]):
                raise _rejected(u, a, "arm outside the agent's roster")
            if reported[u.agent, a]:
                raise _rejected(u, a, "arm reported twice")
            reported[u.agent, a] = True
    missing = np.flatnonzero(~sent)
    if missing.size:
        i = missing[0]
        arms = np.flatnonzero(allowed[i]).tolist()
        raise ProtocolError(f"agent {i}, arm {arms}, phase {phase}: no upload")
    return reported


def _stack(uploads: list[LocalEstimateUpload], m: int, k: int, d: int):
    """The uploaded estimates and pull counts as ``(M, K, d)`` and ``(M, K)``
    arrays by agent and arm, zero where none was uploaded."""
    th = np.zeros((m, k, d))
    pulls = np.zeros((m, k))
    for u in uploads:
        n = len(u.arms)
        if np.shape(u.theta_hat) != (n, d) or np.shape(u.pulls) != (n,):
            arms = np.asarray(u.arms).tolist()
            raise _rejected(u, arms, f"theta_hat must be ({n}, {d}) and pulls ({n},)")
        th[u.agent, u.arms] = u.theta_hat
        pulls[u.agent, u.arms] = u.pulls
    return th, pulls


def _aggregate_round(
    uploads: list[LocalEstimateUpload],
    issued: np.ndarray,
    active: np.ndarray,
    phase: int,
    d: int,
    prev: GlobalBroadcast | None,
) -> GlobalBroadcast:
    """Check one round of estimate uploads and aggregate it (see ``aggregate_phase``)."""
    m, k = issued.shape
    reported = _check_roster(uploads, phase, active)
    th, pulls = _stack(uploads, m, k, d)
    for bad, problem in (
        (~np.isfinite(th).all(axis=-1), "theta_hat is not finite"),
        (reported & (pulls != issued), "uploaded {p:g} pulls, server issued {f}"),
        ((issued >= 1) & ~reported, "no upload for {f} issued pulls"),
    ):
        if bad.any():
            i, a = np.argwhere(bad)[0]
            problem = problem.format(p=pulls[i, a], f=issued[i, a])
            raise ProtocolError(f"agent {i}, arm {a}, phase {phase}: {problem}")
    union = np.flatnonzero(active.any(axis=0))
    return _aggregate(phase + 1, issued, th, union, prev)


def aggregate_init(uploads: list[LocalEstimateUpload], m: int, k: int, d: int) -> GlobalBroadcast:
    """Aggregate the single-pull estimates into the first global model.

    Needs one phase-0 upload per agent covering every arm with one pull and
    a finite ``(d,)`` estimate each; each enters the aggregation with f = 1.
    """
    return _aggregate_round(
        uploads, np.ones((m, k), dtype=int), np.ones((m, k), dtype=bool), 0, d, None
    )


def aggregate_phase(
    uploads: list[LocalEstimateUpload],
    issued: np.ndarray,
    active: np.ndarray,
    prev: GlobalBroadcast,
) -> GlobalBroadcast:
    """Aggregate phase-p uploads into the next global model.

    ``issued`` holds the ``(M, K)`` pull counts the server issued and
    ``active`` the ``(M, K)`` mask of the active sets they were issued for;
    the model covers the union of those sets.  Each agent sends one upload
    stamped with the phase of ``prev``; each of its estimates must be
    finite, shaped like ``prev``'s models and come from an active pair, at
    most once, with the issued pull count; every pair issued at least one
    pull must report.
    """
    return _aggregate_round(uploads, issued, active, prev.phase, prev.theta.shape[1], prev)


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
    that it never writes into later.  ``design`` is the last phase's design
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

    def ingest_init(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        self.model = aggregate_init(uploads, self.m, self.k, self.d)
        th, _ = _stack(uploads, self.m, self.k, self.d)
        # np.linalg.norm of one vector is sqrt(th @ th): the same bits.
        norm = np.sqrt(sq_norms(th))
        self.has_direction = norm > 0.0
        self.directions = np.divide(
            th, norm[..., None], out=np.zeros_like(th), where=self.has_direction[..., None]
        )
        return self.model

    def plan_phase(
        self, active_uploads: list[ActiveSetUpload], f_p: int
    ) -> list[AllocationMessage]:
        """Check the active sets, solve the design, and issue pull counts.

        Each agent 0..M-1 must send exactly one upload, stamped with the
        phase of the current model, and its arms must be distinct, nonempty
        and within its previous active set.  Uploads are checked in the
        order they arrive; an agent that sent none is named after them.
        """
        if self.model is None:
            if active_uploads:
                u = active_uploads[0]
                raise _rejected(u, u.arms, "active set before initialization")
            raise ProtocolError("planning before initialization")
        phase = self.model.phase
        active = _check_roster(active_uploads, phase, self.active)
        empty = np.flatnonzero(~active.any(axis=1))
        if empty.size:
            raise ProtocolError(f"agent {empty[0]}, arm [], phase {phase}: empty active set")
        prob = DesignProblem(active, self.directions, self.has_direction & active)
        self.design = solve_design(prob, tol=DESIGN_TOL, warm_start=self.design)
        self.active = active
        self.issued = allocate(self.design, f_p)
        return [
            AllocationMessage(
                agent=i, phase=phase, arms=np.flatnonzero(row), counts=self.issued[i, row]
            )
            for i, row in enumerate(active)
        ]

    def ingest_phase(self, uploads: list[LocalEstimateUpload]) -> GlobalBroadcast:
        if self.issued is None or self.model is None:
            raise ProtocolError("phase uploads arrived before planning")
        self.model = aggregate_phase(uploads, self.issued, self.active, self.model)
        return self.model
