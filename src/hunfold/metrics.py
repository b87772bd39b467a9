"""Recovery-quality metrics: normalised error and support hit rate.

Each metric scores a (total,) spectrum, returning a float, or a (total, B)
block with one trial per column, returning one value per column.  A vector
is a block of one column.  Both are scored as contiguous (B, total) rows,
so that a column's sums run along a contiguous axis and a block column
scores exactly as that column alone.
"""

from __future__ import annotations

import math

import numpy as np

from .cplx import ComplexArray

__all__ = ["hit_rate_metric", "nmse_metric", "top_k_indices"]


def _rows(x: ComplexArray) -> np.ndarray:
    """A vector or a (total, B) block as contiguous (B, total) rows."""
    z = x.z
    return np.ascontiguousarray(z[None, :] if z.ndim == 1 else z.T)


def _per_trial(values: np.ndarray, like: ComplexArray):
    return float(values[0]) if like.ndim == 1 else values


def _column(x: ComplexArray, i) -> str:
    return f" column {int(i)}" if x.ndim == 2 else ""


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(rows.real ** 2, axis=1) + np.sum(rows.imag ** 2, axis=1))


def nmse_metric(x_hat: ComplexArray, x_true: ComplexArray):
    """||x_true - x_hat|| / ||x_true|| per trial."""
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    truth = _rows(x_true)
    ref = _norms(truth)
    zero = np.flatnonzero(ref == 0.0)
    if zero.size:
        raise ValueError(f"ground truth{_column(x_true, zero[0])} is identically zero")
    return _per_trial(_norms(truth - _rows(x_hat)) / ref, x_true)


def top_k_indices(x: ComplexArray, k: int) -> np.ndarray:
    """Indices of the k largest moduli, ascending; ties resolve to the
    lowest index.  A block gives one row of k indices per column.

    A NaN modulus ranks below every number, so NaN entries are picked only
    when fewer than k entries are numbers, the lowest of them first.  The
    k-th largest modulus comes from a partition; every modulus above it is
    kept, and the ties at it fill the rest in ascending index.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rows = _rows(x)
    mag = np.hypot(rows.real, rows.imag)
    k = min(k, mag.shape[1])
    if k == 0:
        picked = np.empty((mag.shape[0], 0), dtype=np.intp)
    else:
        mag[np.isnan(mag)] = -1.0   # below every modulus
        kth = np.partition(mag, -k, axis=1)[:, -k, None]
        keep = mag >= kth
        if np.count_nonzero(keep) > mag.shape[0] * k:
            # some row has more entries at its k-th modulus than places left
            above, tied = mag > kth, mag == kth
            fill = k - above.sum(axis=1)
            keep = above | (tied & (np.cumsum(tied, axis=1) <= fill[:, None]))
        picked = np.nonzero(keep)[1].reshape(-1, k)
    return picked[0] if x.ndim == 1 else picked


def hit_rate_metric(x_hat: ComplexArray, x_true: ComplexArray, k: int,
                    tol_cells: int = 0, grid_shape=None):
    """Fraction of true components found among the k largest estimates,
    per trial.

    Strict matching requires the exact grid index.  With ``tol_cells`` > 0
    a true component counts as found when some top-k index lies within that
    many cells (Chebyshev distance over the grid axes; pass ``grid_shape``
    for 2-D problems).  A NaN truth entry is not a component.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    truth = _rows(x_true)
    shape = truth.shape[1:] if grid_shape is None else tuple(grid_shape)
    if math.prod(shape) != truth.shape[1]:
        raise ValueError(f"grid_shape {shape} does not hold {truth.shape[1]} entries")
    # |z| > 0 rather than z != 0, which would count a NaN entry
    nonzero = np.abs(truth) > 0.0
    counts = nonzero.sum(axis=1)
    wrong = np.flatnonzero(counts != k)
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"ground truth{_column(x_true, i)} has {counts[i]} "
                         f"nonzeros, expected {k}")
    support = np.nonzero(nonzero)[1].reshape(-1, k)
    picked = top_k_indices(x_hat, k).reshape(-1, k)
    if tol_cells == 0:
        # distinct indices on both sides: each component matches at most once
        hits = (support[:, :, None] == picked[:, None, :]).sum(axis=(1, 2))
    else:
        support = np.stack(np.unravel_index(support, shape), -1)
        picked = np.stack(np.unravel_index(picked, shape), -1)
        # (B, true component, picked index) Chebyshev distances
        dist = np.max(np.abs(support[:, :, None, :] - picked[:, None, :, :]), axis=-1)
        hits = np.any(dist <= tol_cells, axis=2).sum(axis=1)
    return _per_trial(hits / k, x_true)
