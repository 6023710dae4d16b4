"""Dense small-matrix routines backing the aggregation protocol.

Everything here operates on symmetric matrices of size d x d with d around
ten or less, so plain eigendecompositions are used throughout.  The rank
cutoff is relative (scaled by the largest eigenvalue magnitude) because the
protocol repeatedly inverts Gram matrices whose scale varies by orders of
magnitude across phases.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError

# Relative eigenvalue cutoff: eps = d * max|eig| * RANK_CUTOFF_SCALE.
RANK_CUTOFF_SCALE = 1e-12


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    return a


def eigen_cutoff(eigvals: np.ndarray) -> np.ndarray:
    """Rank cutoff per symmetric matrix, from its eigenvalues on the last axis."""
    w = np.asarray(eigvals, dtype=float)
    if w.shape[-1] == 0:
        return np.zeros(w.shape[:-1])
    return w.shape[-1] * np.max(np.abs(w), axis=-1) * RANK_CUTOFF_SCALE


def eigh_range(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, range mask and pseudo-inverse of symmetric matrices.

    Works on one matrix or a stack ``(..., d, d)`` with one batched
    ``eigh``.  Eigenvalues with magnitude at or below each matrix's
    relative cutoff are treated as exact zeros: they are dropped from the
    mask and from the pseudo-inverse.
    """
    # Symmetrize first so accumulated round-off cannot leak into eigh.
    w, u = np.linalg.eigh(0.5 * (stack + np.swapaxes(stack, -1, -2)))
    keep = np.abs(w) > eigen_cutoff(w)[..., None]
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return w, keep, (u * inv_w[..., None, :]) @ np.swapaxes(u, -1, -2)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix or a ``(..., d, d)``
    stack of them, each bit-identical to inverting that matrix alone.

    Eigenvalues with magnitude at or below each matrix's relative cutoff
    are treated as exact zeros.
    """
    return eigh_range(_as_square(m))[2]


def sq_norms(v: np.ndarray) -> np.ndarray:
    """||v||^2 along the last axis, bit-identical to ``v @ v`` per vector.

    A stacked matmul reduces each vector as ``v @ v`` does; an einsum or
    ``np.linalg.norm(axis=-1)`` can differ in the last bit.
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]
