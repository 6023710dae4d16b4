"""Agent-side protocol: local estimates, batched scoring, elimination.

An agent sees its own psi table (expected features under its context
distribution), the confidence multiplier alpha, and the norm floor ell.
Everything it learns about other agents arrives through the server's
broadcast models.  At the start of a phase it scores all of its active
arms in one stacked pass (``score_arms``) and eliminates them in one
vector comparison (``eliminate``).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, NotPSDError, ProtocolError
from .linalg import sq_norms
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimateUpload

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


def eliminate(active: list[int], r_hat, u) -> list[int]:
    """Keep arms whose upper bound reaches the empirical best's lower bound.

    ``r_hat[j]`` and ``u[j]`` score ``active[j]``.  The empirical best (the
    first maximum of r_hat) always survives.
    """
    if not active or len(r_hat) != len(active) or len(u) != len(active):
        raise ProtocolError(
            f"cannot eliminate from active set {active} with {len(r_hat)} r_hat, {len(u)} u"
        )
    best = int(np.argmax(r_hat))
    keep = np.add(r_hat, u) >= r_hat[best] - u[best]
    return [a for a, k in zip(active, keep.tolist()) if k]


class Agent:
    """One agent's state across phases; ``psi`` is its ``(K, d)`` table."""

    def __init__(self, index: int, psi: np.ndarray, alpha: float, ell: float):
        self.index = index
        self.psi = psi
        self.alpha = alpha
        self.ell = ell
        self.active: list[int] = list(range(len(psi)))
        self.phase = 0
        self.a_hat: int | None = None
        self._norm_sq = sq_norms(psi)
        zero = np.flatnonzero(~(self._norm_sq > 0.0))
        if zero.size:
            raise ProtocolError(f"agent {index}, arm {zero[0]}: psi has zero norm")

    def _upload(self, arms: np.ndarray, y: np.ndarray, pulls: np.ndarray) -> LocalEstimateUpload:
        """The estimates y * psi / ||psi||^2 from the average rewards y of ``arms``."""
        theta_hat = (y / self._norm_sq[arms])[:, None] * self.psi[arms]
        return LocalEstimateUpload(
            agent=self.index, phase=self.phase, arms=arms, theta_hat=theta_hat, pulls=pulls
        )

    def _rejected(self, arm, problem: str) -> ProtocolError:
        return ProtocolError(f"agent {self.index}, arm {arm}, phase {self.phase}: {problem}")

    def initialize(self, pull) -> LocalEstimateUpload:
        """Pull each arm once and upload the single-pull estimates."""
        k = len(self.psi)
        y = np.array([pull(a) for a in range(k)])
        return self._upload(np.arange(k), y, np.ones(k, dtype=int))

    def begin_phase(
        self, broadcast: GlobalBroadcast
    ) -> tuple[ActiveSetUpload, list[tuple[int, float, float]]]:
        """Score the active arms against the broadcast model and eliminate.

        The broadcast must be stamped with the phase this call begins, have
        one ``(d,)`` theta row and one ``(d, d)`` V per arm and carry a
        model for every active arm.  The stats hold one ``(arm, r_hat, u)``
        per scored arm.
        """
        phase = self.phase + 1
        arms = self.active
        prefix = f"agent {self.index}, arm {arms}, phase {phase}: broadcast"
        if broadcast.phase != phase:
            raise ProtocolError(f"{prefix} stamped with phase {broadcast.phase}")
        if broadcast.theta.shape != self.psi.shape or len(broadcast.has_model) != len(self.psi):
            raise ProtocolError(f"{prefix} shaped {broadcast.theta.shape}, not {self.psi.shape}")
        v_shape = self.psi.shape + self.psi.shape[-1:]
        if broadcast.v.shape != v_shape:
            raise ProtocolError(f"{prefix} V shaped {broadcast.v.shape}, not {v_shape}")
        missing = [a for a in arms if not broadcast.has_model[a]]
        if missing:
            raise ProtocolError(
                f"agent {self.index}, arm {missing}, phase {phase}: broadcast has no model"
            )
        self.phase = phase
        r_hat, u = score_arms(
            self.psi[arms], broadcast.theta[arms], broadcast.v[arms], self.alpha, self.ell
        )
        self.a_hat = arms[int(np.argmax(r_hat))]
        self.active = eliminate(arms, r_hat, u)
        upload = ActiveSetUpload(agent=self.index, phase=self.phase, arms=list(self.active))
        return upload, list(zip(arms, r_hat.tolist(), u.tolist()))

    def explore_phase(
        self, assignment: AllocationMessage, pull_many
    ) -> tuple[LocalEstimateUpload, int]:
        """Pull each assigned arm its allotted number of times.

        The whole message is checked before the first pull: it must be
        addressed to this agent and its current phase, and its arms must be
        distinct, ascending, active integer ids, each with one nonnegative
        integer count.  Arms with a zero count produce no estimate.  Returns
        the upload and the number of rounds consumed.
        """
        if assignment.agent != self.index or assignment.phase != self.phase:
            raise ProtocolError(
                f"agent {self.index}, phase {self.phase}: allocation addressed to "
                f"agent {assignment.agent}, phase {assignment.phase}"
            )
        arms, counts = np.asarray(assignment.arms), np.asarray(assignment.counts)
        listed = arms.tolist()
        if arms.ndim != 1 or counts.shape != arms.shape or listed != sorted(set(listed)):
            raise self._rejected(
                listed, "allocation arms must be distinct and ascending, one count each"
            )
        if arms.size and (arms.dtype.kind not in "iu" or counts.dtype.kind not in "iu"):
            raise self._rejected(listed, "allocation arm ids and counts must be integers")
        for a, count in zip(listed, counts.tolist()):
            if a not in self.active:
                raise self._rejected(a, "allocation for inactive arm")
            if count < 0:
                raise self._rejected(a, f"negative pull count {count}")
        pulled = counts > 0
        arms, counts = arms[pulled], counts[pulled]
        y = np.array([pull_many(a, c) for a, c in zip(arms.tolist(), counts.tolist())])
        return self._upload(arms, y, counts), int(counts.sum())

    def exploit_remainder(self, rounds: int, pull_many) -> None:
        """Pull the current empirical best; rewards are not used for estimation."""
        if rounds < 0:
            raise ProtocolError("exploitation rounds must be nonnegative")
        if rounds == 0:
            return
        if self.a_hat is None:
            raise ProtocolError("no empirical best arm has been computed yet")
        pull_many(self.a_hat, rounds)
