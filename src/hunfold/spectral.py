"""Toeplitz generators, their dense expansions and FFT convolution.

:func:`conv_full_planes` and :func:`conv_full2_planes` are standalone
convolutions on ``numpy.fft`` in complex128, broadcast over leading axes so
batches of rows transform in one call, at a transform length per axis that
the caller gives.  The network layers' windowed convolution,
:class:`hunfold.nets.Conv`, calls :func:`conv_full_planes` for a one-shot
``apply``: on a 1-D grid at the power of two at or above its kernel length,
shorter than the full linear length, because it keeps only a window that
cannot alias; on a 2-D grid at the product of those powers of two, with
the grid laid flat at a row stride of the first axis's power of two, so
that one 1-D transform does the work of a 2-D one.  A training step
instead transforms through ``numpy.fft`` in ``Conv`` itself, so that it
can keep the spectra and reuse them in the backward pass.
:func:`conv1d` is the direct windowed form, and dense expansions tie a
generator vector (or matrix) to the Toeplitz (or doubly-block-Toeplitz)
operator it induces.

Index conventions used throughout the package:

* a length ``2*size - 1`` kernel stores diagonal value d(p) at position
  ``p + size - 1`` for offsets p in ``-(size-1) .. size-1``;
* ``toeplitz_expand`` places d(i - k) at matrix entry (i, k);
* the two-axis kernel stores d(p, q) at ``(p + rows - 1, q + cols - 1)``
  and ``dbt_expand`` places d(s - i, t - j) at entry
  ``(s + t*rows, i + j*rows)`` -- the first kernel axis runs inside blocks,
  the second across blocks, matching a column-stacked vectorisation of a
  ``rows x cols`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cplx import ComplexArray, join_planes

__all__ = [
    "ToeplitzMat2D",
    "ToeplitzVec",
    "conv1d",
    "conv_full_planes",
    "conv_full2_planes",
    "dbt_expand",
    "dbt_extract",
    "next_pow2",
    "toeplitz_expand",
    "toeplitz_extract",
]


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class ToeplitzVec:
    """Generator of a size x size Toeplitz matrix.

    ``diags`` has length ``2*size - 1``; position p holds the value of
    diagonal offset ``p - (size - 1)``.
    """

    diags: ComplexArray
    size: int

    def __post_init__(self):
        if self.diags.ndim != 1 or self.diags.shape[0] != 2 * self.size - 1:
            raise ValueError(
                f"generator length {self.diags.shape} does not match size {self.size}")


@dataclass(frozen=True)
class ToeplitzMat2D:
    """Generator of a doubly-block-Toeplitz matrix.

    ``diags`` has shape ``(2*rows - 1, 2*cols - 1)``: the first axis indexes
    offsets inside an individual Toeplitz block, the second axis offsets
    between blocks.  The expanded operator acts on column-stacked
    ``rows x cols`` arrays.
    """

    diags: ComplexArray
    rows: int
    cols: int

    def __post_init__(self):
        want = (2 * self.rows - 1, 2 * self.cols - 1)
        if self.diags.shape != want:
            raise ValueError(f"generator shape {self.diags.shape}, expected {want}")


def conv1d(t: ToeplitzVec, x: ComplexArray) -> ComplexArray:
    """Windowed linear convolution: out[i] = sum_k d(i - k) x[k].

    Output index i runs over 0 .. size-1, exactly the action of the
    expanded Toeplitz matrix on x.  Direct summation.
    """
    if x.ndim != 1 or x.shape[0] != t.size:
        raise ValueError(f"input shape {x.shape} does not match grid size {t.size}")
    lo = t.size - 1
    return ComplexArray(np.convolve(t.diags.z, x.z)[lo:lo + t.size])


def _conv_full(k, x, n):
    """Convolution of complex arrays over their last ``len(n)`` (1 or 2)
    axes via FFT at ``n`` points per axis; leading axes broadcast.

    Each axis of the result is the ``n``-point circular convolution, cut to
    the full linear length ``k.shape[a] + x.shape[a] - 1`` where that is
    shorter: the full linear convolution whenever ``n`` reaches it, and an
    aliased one otherwise, whose entries are exact only where the caller
    knows no wrapped term lands.
    """
    ndim = len(n)
    full = [k.shape[a] + x.shape[a] - 1 for a in range(-ndim, 0)]
    fft, ifft = (np.fft.fft, np.fft.ifft) if ndim == 1 else (np.fft.fft2, np.fft.ifft2)
    s = n[0] if ndim == 1 else n
    out = ifft(fft(k, s) * fft(x, s))
    return out[(Ellipsis,) + tuple(slice(min(f, m)) for f, m in zip(full, n))]


def conv_full_planes(kr, ki, xr, xi, n):
    """Complex convolution along the last axis, via FFT at ``n`` points
    (see :func:`_conv_full`).

    Kernel planes (kr, ki) and input planes (xr, xi) broadcast over their
    leading axes, so a rank-1 kernel meets a batch and a batch of kernels
    meets a batch of inputs row by row.  Returns the real and imaginary
    planes.
    """
    out = _conv_full(join_planes(kr, ki), join_planes(xr, xi), (n,))
    return out.real, out.imag


def conv_full2_planes(kr, ki, xr, xi, n):
    """Complex convolution over the last two axes, via 2-D FFT at ``n``, a
    pair of per-axis transform lengths; same broadcasting as
    :func:`conv_full_planes`."""
    out = _conv_full(join_planes(kr, ki), join_planes(xr, xi), tuple(n))
    return out.real, out.imag


def toeplitz_expand(t: ToeplitzVec) -> ComplexArray:
    """Dense size x size matrix with entry (i, k) equal to d(i - k)."""
    m = t.size
    idx = np.arange(m)[:, None] - np.arange(m)[None, :] + (m - 1)
    return ComplexArray(t.diags.z[idx])


def toeplitz_extract(g: ComplexArray, size: int) -> ToeplitzVec:
    """Read a Toeplitz generator back out of a dense matrix.

    Takes the first row (negative offsets) and first column (non-negative
    offsets); exact only when the matrix really is Toeplitz.
    """
    if g.shape != (size, size):
        raise ValueError(f"matrix shape {g.shape}, expected {(size, size)}")
    return ToeplitzVec(ComplexArray(np.concatenate([g.z[0, :0:-1], g.z[:, 0]])), size)


def dbt_expand(t: ToeplitzMat2D) -> ComplexArray:
    """Dense doubly-block-Toeplitz matrix of a two-axis generator.

    Entry at (s + t*rows, i + j*rows) is d(s - i, t - j): an expanded grid
    of cols x cols Toeplitz-arranged blocks, each block a rows x rows
    Toeplitz matrix.
    """
    m1, m2 = t.rows, t.cols
    flat = np.arange(m1 * m2)
    s = flat % m1
    blk = flat // m1
    i1 = s[:, None] - s[None, :] + (m1 - 1)
    i2 = blk[:, None] - blk[None, :] + (m2 - 1)
    return ComplexArray(t.diags.z[i1, i2])


def dbt_extract(g: ComplexArray, rows: int, cols: int) -> ToeplitzMat2D:
    """Read a doubly-block-Toeplitz generator back out of a dense matrix."""
    total = rows * cols
    if g.shape != (total, total):
        raise ValueError(f"matrix shape {g.shape}, expected {(total, total)}")
    p1 = np.arange(-(rows - 1), rows)
    p2 = np.arange(-(cols - 1), cols)
    s = np.maximum(p1, 0)
    i = np.maximum(-p1, 0)
    t = np.maximum(p2, 0)
    j = np.maximum(-p2, 0)
    row_idx = s[:, None] + t[None, :] * rows
    col_idx = i[:, None] + j[None, :] * rows
    return ToeplitzMat2D(ComplexArray(g.z[row_idx, col_idx]), rows, cols)
