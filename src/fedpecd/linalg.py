"""Dense small-matrix routines backing the aggregation protocol.

Everything here operates on symmetric matrices of size d x d with d around
ten or less, so plain eigendecompositions are used throughout.  The rank
cutoff is relative (scaled by the largest eigenvalue magnitude) because the
protocol repeatedly inverts Gram matrices whose scale varies by orders of
magnitude across phases.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, NotPSDError

# Relative eigenvalue cutoff: eps = d * max|eig| * RANK_CUTOFF_SCALE.
RANK_CUTOFF_SCALE = 1e-12

# Quadratic forms down to this value are treated as zero (round-off).
NEG_QUADFORM_TOL = -1e-12


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def _as_vector(z, name: str = "vector") -> np.ndarray:
    v = np.asarray(z, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


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
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with magnitude at or below the relative cutoff are treated
    as exact zeros.
    """
    return eigh_range(_as_square(m))[2]


def rank(m) -> int:
    """Number of eigenvalues above the relative cutoff (by magnitude)."""
    return int(np.sum(eigh_range(_as_square(m))[1]))


def log_det_on_range(m) -> float:
    """Log pseudo-determinant: sum of log eigenvalues above the cutoff.

    The empty sum (zero matrix) is 0.0 by convention.
    """
    w, keep, _ = eigh_range(_as_square(m))
    return float(np.sum(np.log(w[keep & (w > 0.0)])))


def weighted_norm(z, v) -> float:
    """Matrix-weighted vector norm sqrt(z' V z) for symmetric PSD V.

    Tiny negative quadratic forms (>= NEG_QUADFORM_TOL) are clamped to
    zero; anything more negative raises NotPSDError.
    """
    zv = _as_vector(z)
    a = _as_square(v, "weight matrix")
    if a.shape[0] != zv.shape[0]:
        raise DimensionError(
            f"vector of length {zv.shape[0]} incompatible with "
            f"{a.shape[0]}x{a.shape[1]} weight matrix"
        )
    q = float(zv @ (0.5 * (a + a.T)) @ zv)
    if q < NEG_QUADFORM_TOL:
        raise NotPSDError(f"quadratic form {q} is negative beyond tolerance")
    return float(np.sqrt(max(q, 0.0)))
