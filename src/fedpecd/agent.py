"""Agent-side protocol: local estimates, confidence stats, elimination.

An agent sees its own psi table (expected features under its context
distribution), the confidence multiplier alpha, and the norm floor ell.
Everything it learns about other agents arrives through the server's
broadcast models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .linalg import weighted_norm
from .messages import ActiveSetUpload, AllocationMessage, GlobalBroadcast, LocalEstimate, LocalEstimateUpload


@dataclass
class ArmStats:
    """Estimated reward and confidence width for one active arm."""

    arm: int
    r_hat: float
    u: float


def init_local_estimate(arm: int, y: float, psi: np.ndarray, pulls: int) -> LocalEstimate:
    """Estimate y * psi / ||psi||^2 from the average reward y of ``pulls`` pulls."""
    norm_sq = float(psi @ psi)
    if norm_sq <= 0.0:
        raise ProtocolError(f"arm {arm}: psi has zero norm")
    return LocalEstimate(arm=arm, theta_hat=(y / norm_sq) * psi, pulls=pulls)


def compute_arm_stats(
    psi: np.ndarray,
    arm: int,
    theta_hat: np.ndarray,
    v: np.ndarray,
    alpha: float,
    ell: float,
) -> ArmStats:
    """r_hat = <psi, theta_hat>; u = alpha * ||psi||_V / ell."""
    r_hat = float(psi @ theta_hat)
    u = alpha * weighted_norm(psi, v) / ell
    return ArmStats(arm=arm, r_hat=r_hat, u=u)


def eliminate(stats: list[ArmStats], active: list[int]) -> list[int]:
    """Keep arms whose upper bound reaches the empirical best's lower bound.

    The empirical best (ties -> lowest arm index) always survives.
    """
    if not active:
        raise ProtocolError("elimination called with an empty active set")
    by_arm = {s.arm: s for s in stats}
    if sorted(by_arm) != sorted(active):
        raise ProtocolError("stats do not cover exactly the active set")
    ordered = [by_arm[a] for a in sorted(active)]
    best = max(ordered, key=lambda s: s.r_hat)  # max() keeps the first on ties
    floor = best.r_hat - best.u
    return [s.arm for s in ordered if s.r_hat + s.u >= floor]


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
    ) -> tuple[ActiveSetUpload, list[ArmStats]]:
        """Score the active arms against the broadcast model and eliminate."""
        self.phase += 1
        stats = []
        for a in self.active:
            theta_hat, v = broadcast.models[a]
            stats.append(
                compute_arm_stats(self.psi[a], a, theta_hat, v, self.alpha, self.ell)
            )
        best = max(stats, key=lambda s: s.r_hat)
        self.a_hat = best.arm
        self.active = eliminate(stats, self.active)
        upload = ActiveSetUpload(agent=self.index, phase=self.phase, arms=list(self.active))
        return upload, stats

    def explore_phase(
        self, assignment: AllocationMessage, pull_many
    ) -> tuple[LocalEstimateUpload, int]:
        """Pull each assigned arm its allotted number of times.

        Arms with a zero count produce no estimate.  Returns the upload and
        the number of rounds consumed.
        """
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
