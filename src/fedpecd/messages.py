"""Message types crossing the agent/server boundary, and the round checks.

These dataclasses are the only messages agents send or receive; their
fields are the whole federation contract.  Each phase is one synchronous
round, so what the M agents send or receive is one dense round over agents
0..M-1 and arm ids 0..K-1: row i is agent i's message, stamped
``phase[i]``, and its ``arms`` mask marks the pairs the row speaks for (an
active set, an allocation, reported estimates); entries outside the mask
carry nothing.  The broadcast is one message to every agent, one row per
arm id, zero where ``has_model`` is False.  An estimate is collinear with
the uploading agent's psi.  Outbound agent messages carry active sets and
reward-parameter estimates, never psi vectors, context distributions,
realized contexts, or raw rewards.  A receiver checks a whole round
(``check_round``, then ``check_pairs``) before it acts on any row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError


@dataclass
class LocalEstimateUpload:
    phase: np.ndarray  # (M,) phase stamps
    arms: np.ndarray  # (M, K) bool: the pairs reported
    theta_hat: np.ndarray  # (M, K, d)
    pulls: np.ndarray  # (M, K) int


@dataclass
class ActiveSetUpload:
    phase: np.ndarray  # (M,) phase stamps
    arms: np.ndarray  # (M, K) bool: each agent's active set


@dataclass
class GlobalBroadcast:
    phase: int
    theta: np.ndarray  # (K, d)
    v: np.ndarray  # (K, d, d)
    has_model: np.ndarray  # (K,) bool


@dataclass
class AllocationMessage:
    phase: np.ndarray  # (M,) phase stamps
    arms: np.ndarray  # (M, K) bool: the arms allocated
    counts: np.ndarray  # (M, K) int pull counts, zero outside ``arms``


# Field -> the dtype kinds it must have, and their name in an error.
_KINDS = {"arms": ("b", "a bool mask"), "counts": ("iu", "integers"),
          "pulls": ("iu", "integers"), "theta_hat": ("fiu", "real numbers")}


def _wrong_kind(x: np.ndarray, kinds: str) -> np.ndarray | None:
    """None if the dtype is of ``kinds``, else the ``(M, K)`` offending pairs:
    the entries of a float array of counts that are not whole numbers, or
    every pair if there are none (or the array is not float)."""
    if x.dtype.kind in kinds:
        return None
    if x.dtype.kind == "f" and "i" in kinds:
        bad = ~(np.isfinite(x) & (x == np.floor(x)))
        if bad.any():
            return bad
    return np.ones(x.shape[:2], dtype=bool)


def check_pairs(phase, checks) -> None:
    """Raise for the first ``(bad, problem)`` whose ``(M, K)`` mask marks a
    pair, naming its first pair in agent order; ``problem`` is the text or
    a function of the pair ``(i, a)`` that returns it."""
    for bad, problem in checks:
        if bad.any():
            i, a = np.argwhere(bad)[0].tolist()
            text = problem(i, a) if callable(problem) else problem
            raise ProtocolError(f"agent {i}, arm {a}, phase {phase}: {text}")


def check_round(msg, phase: int, m: int, k: int, d: int = 0) -> None:
    """Check that each field is an array shaped for M agents over K arms (a
    mis-shaped round names only the phase), masks are bool, counts integers
    and estimates real, and every row is stamped ``phase``."""
    shapes = {"phase": (m,), "arms": (m, k), "counts": (m, k), "pulls": (m, k),
              "theta_hat": (m, k, d)}
    name = type(msg).__name__
    for field, value in vars(msg).items():
        if not isinstance(value, np.ndarray) or value.shape != shapes[field]:
            raise ProtocolError(
                f"phase {phase}: {name} {field} shaped {np.shape(value)}, not {shapes[field]}"
            )
    for field, (kinds, what) in _KINDS.items():
        value = getattr(msg, field, None)
        bad = None if value is None else _wrong_kind(value, kinds)
        if bad is not None:
            check_pairs(phase, [
                (bad, lambda i, a: f"{field} must be {what}, got {value[i, a].tolist()}")
            ])
    stale = np.flatnonzero(msg.phase != phase)
    if stale.size:
        i = stale[0]
        arms = np.flatnonzero(msg.arms[i]).tolist()
        raise ProtocolError(f"agent {i}, arm {arms}, phase {msg.phase[i]}: expected phase {phase}")
