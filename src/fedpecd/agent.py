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
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimate, LocalEstimateUpload

# Quadratic forms down to this value are treated as zero (round-off).
NEG_QUADFORM_TOL = -1e-12


def init_local_estimate(arm: int, y: float, psi: np.ndarray, pulls: int) -> LocalEstimate:
    """Estimate y * psi / ||psi||^2 from the average reward y of ``pulls`` pulls."""
    norm_sq = float(psi @ psi)
    if norm_sq <= 0.0:
        raise ProtocolError(f"arm {arm}: psi has zero norm")
    return LocalEstimate(arm=arm, theta_hat=(y / norm_sq) * psi, pulls=pulls)


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
    """One agent's state across phases."""

    def __init__(self, index: int, psi: dict[int, np.ndarray], alpha: float, ell: float):
        self.index = index
        self.psi = psi
        self.alpha = alpha
        self.ell = ell
        self.active: list[int] = sorted(psi)
        self.phase = 0
        self.a_hat: int | None = None

    def initialize(self, pull) -> LocalEstimateUpload:
        """Pull each arm once and upload the single-pull estimates."""
        estimates = [
            init_local_estimate(a, pull(a), self.psi[a], 1) for a in sorted(self.psi)
        ]
        return LocalEstimateUpload(agent=self.index, phase=0, estimates=estimates)

    def begin_phase(
        self, broadcast: GlobalBroadcast
    ) -> tuple[ActiveSetUpload, list[tuple[int, float, float]]]:
        """Score the active arms against the broadcast model and eliminate.

        The broadcast must be stamped with the phase this call begins and
        carry a model for every active arm.  The stats hold one
        ``(arm, r_hat, u)`` per scored arm.
        """
        phase = self.phase + 1
        arms = self.active
        if broadcast.phase != phase:
            raise ProtocolError(
                f"agent {self.index}, arm {arms}, phase {phase}: "
                f"broadcast stamped with phase {broadcast.phase}"
            )
        missing = [a for a in arms if a not in broadcast.models]
        if missing:
            raise ProtocolError(
                f"agent {self.index}, arm {missing}, phase {phase}: broadcast has no model"
            )
        self.phase = phase
        theta, v = zip(*(broadcast.models[a] for a in arms))
        psi = np.array([self.psi[a] for a in arms])
        r_hat, u = score_arms(psi, np.array(theta), np.array(v), self.alpha, self.ell)
        self.a_hat = arms[int(np.argmax(r_hat))]
        self.active = eliminate(arms, r_hat, u)
        upload = ActiveSetUpload(agent=self.index, phase=self.phase, arms=list(self.active))
        return upload, list(zip(arms, r_hat.tolist(), u.tolist()))

    def explore_phase(
        self, assignment: AllocationMessage, pull_many
    ) -> tuple[LocalEstimateUpload, int]:
        """Pull each assigned arm its allotted number of times.

        The message must be addressed to this agent and its current phase.
        Arms with a zero count produce no estimate.  Returns the upload and
        the number of rounds consumed.
        """
        if assignment.agent != self.index or assignment.phase != self.phase:
            raise ProtocolError(
                f"agent {self.index}, phase {self.phase}: allocation addressed to "
                f"agent {assignment.agent}, phase {assignment.phase}"
            )
        estimates = []
        rounds = 0
        for a in sorted(assignment.counts):
            count = assignment.counts[a]
            if count < 0:
                raise ProtocolError(f"negative pull count for arm {a}")
            if a not in self.active:
                raise ProtocolError(f"allocation for inactive arm {a}")
            if count == 0:
                continue
            estimates.append(
                init_local_estimate(a, pull_many(a, count), self.psi[a], count)
            )
            rounds += count
        upload = LocalEstimateUpload(agent=self.index, phase=self.phase, estimates=estimates)
        return upload, rounds

    def exploit_remainder(self, rounds: int, pull_many) -> None:
        """Pull the current empirical best; rewards are not used for estimation."""
        if rounds < 0:
            raise ProtocolError("exploitation rounds must be nonnegative")
        if rounds == 0:
            return
        if self.a_hat is None:
            raise ProtocolError("no empirical best arm has been computed yet")
        pull_many(self.a_hat, rounds)
