"""Message types crossing the agent/server boundary.

These dataclasses are the only messages agents send or receive; their
fields are the whole federation contract.  Per-arm payloads are dense
arrays, the format the server and the design keep: row j of an upload or
an allocation belongs to ``arms[j]``.  A broadcast has one row per arm id
0..K-1; the rows of arms without ``has_model`` are zero.  An estimate is
collinear with the uploading agent's psi.  Outbound agent messages carry
active sets and reward-parameter estimates, never psi vectors, context
distributions, realized contexts, or raw rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LocalEstimateUpload:
    agent: int
    phase: int
    arms: np.ndarray  # (n,) arm ids
    theta_hat: np.ndarray  # (n, d)
    pulls: np.ndarray  # (n,)


@dataclass
class ActiveSetUpload:
    agent: int
    phase: int
    arms: list[int]


@dataclass
class GlobalBroadcast:
    phase: int
    theta: np.ndarray  # (K, d)
    v: np.ndarray  # (K, d, d)
    has_model: np.ndarray  # (K,) bool


@dataclass
class AllocationMessage:
    agent: int
    phase: int
    arms: np.ndarray  # (n,) arm ids
    counts: np.ndarray  # (n,) pull counts
