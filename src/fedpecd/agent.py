"""Agent-side protocol for the whole population: scoring, elimination,
exploration.

Each agent sees its own psi table (expected features under its context
distribution), the confidence multiplier alpha, and the norm floor ell;
what it learns about other agents arrives through the broadcast models.
All M agents act in the same synchronous round, so their state is held
with one row per agent and stepped together: each phase scores every
active pair in one stacked pass (``score_arms``) and eliminates in one
vector comparison (``eliminate``).  Row i is computed from agent i's rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, NotPSDError, ProtocolError
from .linalg import sq_norms
from .messages import (ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload,
                       check_pairs, check_round)

# Quadratic forms down to this value are treated as zero (round-off).
NEG_QUADFORM_TOL = -1e-12


def score_arms(psi, theta_hat, v, alpha: float, ell: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: r_hat = <psi, theta_hat> and u = alpha * ||psi||_V / ell.

    Stacks: psi and theta_hat ``(n, d)``, V ``(n, d, d)``.  Quadratic forms
    down to NEG_QUADFORM_TOL are clamped to zero; anything more negative
    raises NotPSDError.
    """
    if psi.ndim != 2 or theta_hat.shape != psi.shape or v.shape != psi.shape + psi.shape[-1:]:
        raise DimensionError(f"psi {psi.shape}, theta_hat {theta_hat.shape}, V {v.shape} do not stack")
    if not np.isfinite(v).all():
        raise NonFiniteError("weight matrix contains non-finite entries")
    # Stacked matmuls in the association (psi' V) psi, not einsum, so each
    # row rounds exactly as the one-arm products do.
    row = psi[:, None, :]
    q = ((row @ (0.5 * (v + np.swapaxes(v, 1, 2)))) @ row.transpose(0, 2, 1))[:, 0, 0]
    if np.any(q < NEG_QUADFORM_TOL):
        raise NotPSDError(f"quadratic form {q.min()} is negative beyond tolerance")
    return (row @ theta_hat[:, :, None])[:, 0, 0], alpha * np.sqrt(np.maximum(q, 0.0)) / ell


def eliminate(active, r_hat, u) -> tuple[np.ndarray, np.ndarray]:
    """Per agent, keep the arms whose upper bound reaches the empirical
    best's lower bound; return the kept mask and the ``(M,)`` best arms.

    ``r_hat`` and ``u`` are finite ``(M, K)`` scores, read only where the
    mask ``active`` is set, and no row of it is empty.  A row's empirical
    best is its first maximum of r_hat over active arms; it survives.
    """
    if r_hat.shape != active.shape or u.shape != active.shape or not active.any(axis=1).all():
        raise ProtocolError(
            f"cannot eliminate from active sets {active.shape} with r_hat {r_hat.shape}, "
            f"u {u.shape}, or from an empty one"
        )
    best = np.argmax(np.where(active, r_hat, -np.inf), axis=1)
    rows = np.arange(len(best))
    floor = r_hat[rows, best] - u[rows, best]
    return active & (np.add(r_hat, u) >= floor[:, None]), best


class Agent:
    """The population of all M agents, stepped one phase at a time.

    ``psi`` is the ``(M, K, d)`` array of every agent's table, ``active``
    the ``(M, K)`` mask of their active sets (a fresh array each phase,
    never written into) and ``a_hat`` the ``(M,)`` empirical best arms of
    the last phase (None before the first).  All agents share one phase
    counter.  The class keeps the name ``Agent`` because the benchmark's
    tracer (``perfbench/tracer.py``) wraps its methods by that name.
    """

    def __init__(self, psi: np.ndarray, alpha: float, ell: float):
        self.psi = psi
        self.alpha = alpha
        self.ell = ell
        self.active = np.ones(psi.shape[:2], dtype=bool)
        self.phase = 0
        self.a_hat: np.ndarray | None = None
        self._norm_sq = sq_norms(psi)
        zero = np.argwhere(~(self._norm_sq > 0.0))
        if zero.size:
            i, a = zero[0]
            raise ProtocolError(f"agent {i}, arm {a}: psi has zero norm")

    def _upload(self, pulled: np.ndarray, y: np.ndarray, pulls: np.ndarray) -> LocalEstimateUpload:
        """The estimates y * psi / ||psi||^2 of the ``pulled`` pairs from their
        average rewards y, given in ``np.nonzero(pulled)`` order."""
        theta_hat = np.zeros(self.psi.shape)
        theta_hat[pulled] = (y / self._norm_sq[pulled])[:, None] * self.psi[pulled]
        return LocalEstimateUpload(
            phase=np.full(len(pulled), self.phase), arms=pulled, theta_hat=theta_hat, pulls=pulls
        )

    def initialize(self, pull) -> LocalEstimateUpload:
        """Each agent pulls each arm once, ``pull(i, a)``, and uploads the
        single-pull estimates."""
        m, k = self.active.shape
        y = np.array([pull(i, a) for i in range(m) for a in range(k)])
        return self._upload(np.ones((m, k), dtype=bool), y, np.ones((m, k), dtype=int))

    def begin_phase(self, broadcast: GlobalBroadcast) -> tuple[ActiveSetUpload, np.ndarray]:
        """Score every active pair against the broadcast model and eliminate.

        The broadcast must be stamped with the phase this call begins, be
        shaped ``(K, d)`` / ``(K, d, d)`` and carry a finite model for every
        active arm; agent 0 names a defect of the whole message.  Returns the
        active-set round and the ``(n, 2)`` scores (r_hat, u) of the scored
        pairs in ``np.nonzero`` order of the active sets before elimination.
        """
        phase = self.phase + 1
        k, d = self.psi.shape[1:]
        prefix = f"agent 0, arm {np.flatnonzero(self.active[0]).tolist()}, phase {phase}: broadcast"
        if broadcast.phase != phase:
            raise ProtocolError(f"{prefix} stamped with phase {broadcast.phase}")
        if broadcast.theta.shape != (k, d) or broadcast.has_model.shape != (k,):
            raise ProtocolError(f"{prefix} shaped {broadcast.theta.shape}, not {(k, d)}")
        if broadcast.v.shape != (k, d, d):
            raise ProtocolError(f"{prefix} V shaped {broadcast.v.shape}, not {(k, d, d)}")
        finite = np.isfinite(broadcast.theta).all(axis=1) & np.isfinite(broadcast.v).all(axis=(1, 2))
        usable = broadcast.has_model & finite
        check_pairs(phase, [(self.active & ~usable, "broadcast has no finite model")])
        rows, arms = np.nonzero(self.active)
        r_hat, u = score_arms(
            self.psi[rows, arms], broadcast.theta[arms], broadcast.v[arms], self.alpha, self.ell
        )
        dense = np.zeros((2,) + self.active.shape)
        dense[:, rows, arms] = r_hat, u
        kept, self.a_hat = eliminate(self.active, *dense)
        self.phase, self.active = phase, kept
        upload = ActiveSetUpload(phase=np.full(len(kept), phase), arms=kept.copy())
        return upload, np.stack((r_hat, u), axis=1)

    def explore_phase(
        self, assignment: AllocationMessage, pull_many
    ) -> tuple[LocalEstimateUpload, np.ndarray]:
        """Pull each allocated pair its count of times, ``pull_many(i, a, count)``,
        agent by agent and arms ascending; zero counts give no estimate.

        The whole round is checked before the first pull (``check_round``;
        only active arms allocated, counts nonnegative and zero outside the
        allocation).  Returns the upload and each agent's rounds used.
        """
        m, k = self.active.shape
        check_round(assignment, self.phase, m, k)
        counts = assignment.counts
        check_pairs(self.phase, [
            (assignment.arms & ~self.active, "allocation for inactive arm"),
            ((counts != 0) & ~assignment.arms, "pull count for an arm not allocated"),
            (counts < 0, lambda i, a: f"negative pull count {counts[i, a]}"),
        ])
        pulled = counts > 0
        rows, arms = np.nonzero(pulled)
        y = np.array([pull_many(i, a, c) for i, a, c in
                      zip(rows.tolist(), arms.tolist(), counts[pulled].tolist())])
        return self._upload(pulled, y, counts.copy()), counts.sum(axis=1)

    def exploit_remainder(self, rounds: np.ndarray, pull_many) -> None:
        """Each agent pulls its empirical best ``rounds[i]`` times; the rewards
        are not used for estimation."""
        negative = np.flatnonzero(rounds < 0)
        if negative.size:
            raise ProtocolError(f"agent {negative[0]}: exploitation rounds must be nonnegative")
        due = np.flatnonzero(rounds > 0)
        if due.size and self.a_hat is None:
            raise ProtocolError("no empirical best arm has been computed yet")
        for i, a, r in zip(due.tolist(), self.a_hat[due].tolist(), rounds[due].tolist()):
            pull_many(i, a, r)
