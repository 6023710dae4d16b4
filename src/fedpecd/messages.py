"""Message types crossing the agent/server boundary.

These dataclasses are the only messages agents send or receive; their
fields are the whole federation contract.  Outbound agent messages carry
active sets and reward-parameter estimates, never psi vectors, context
distributions, realized contexts, or raw rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LocalEstimate:
    """One arm's local estimate: a vector collinear with the agent's psi."""

    arm: int
    theta_hat: np.ndarray
    pulls: int


@dataclass
class LocalEstimateUpload:
    agent: int
    phase: int
    estimates: list[LocalEstimate]


@dataclass
class ActiveSetUpload:
    agent: int
    phase: int
    arms: list[int]


@dataclass
class GlobalBroadcast:
    phase: int
    models: dict[int, tuple[np.ndarray, np.ndarray]]  # arm -> (theta_hat, V)


@dataclass
class AllocationMessage:
    agent: int
    phase: int
    counts: dict[int, int]  # arm -> pull count
