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
:func:`conv1d` is the direct windowed form on a 1-D grid, and
:func:`toeplitz_expand` ties a generator to the dense operator it induces.

Index conventions used throughout the package, one rule per grid axis:

* a :class:`Toeplitz` generator on ``grid`` stores diagonal value d(p) of
  an axis of g cells at position ``p + g - 1`` for offsets p in
  ``-(g-1) .. g-1``: ``2*g - 1`` entries per axis;
* the operator acts on the grid's column-stacked vector, the first axis
  fastest: cell ``(c0, c1, ...)`` sits at ``c0 + c1*g0 + ...``;
* ``toeplitz_expand`` places d(s - i), one offset per axis, at the entry
  of flat cells (s, i).  On one axis that is a Toeplitz matrix; on two,
  the first axis runs inside blocks and the second across them, a
  doubly-block-Toeplitz matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cplx import ComplexArray, join_planes

__all__ = [
    "Toeplitz",
    "conv1d",
    "conv_full_planes",
    "conv_full2_planes",
    "next_pow2",
    "toeplitz_expand",
    "toeplitz_extract",
]


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class Toeplitz:
    """Generator of a Toeplitz operator on a grid of any rank.

    ``grid`` gives the cells per axis, the first axis fastest: the operator
    acts on the grid's column-stacked vector, cell ``(c0, c1, ...)`` at flat
    index ``c0 + c1*grid[0] + ...``.  ``diags`` has ``2*g - 1`` entries per
    axis; position ``p + g - 1`` on an axis holds offset ``p``.  On one axis
    the operator is plain Toeplitz, on two doubly-block Toeplitz.
    """

    diags: ComplexArray
    grid: tuple[int, ...]

    def __post_init__(self):
        grid = tuple(int(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        want = tuple(2 * g - 1 for g in grid)
        if self.diags.shape != want:
            raise ValueError(f"generator shape {self.diags.shape} does not "
                             f"match grid {grid} (expected {want})")


# Kept as the 1-D constructor because perfbench/workloads.py (dense_twin)
# imports it by this name.
def ToeplitzVec(diags: ComplexArray, size: int) -> Toeplitz:
    """The generator of a size x size Toeplitz matrix."""
    return Toeplitz(diags, (size,))


def conv1d(t: Toeplitz, x: ComplexArray) -> ComplexArray:
    """Windowed linear convolution on a 1-D grid: out[i] = sum_k d(i - k) x[k].

    Output index i runs over 0 .. size-1, exactly the action of the
    expanded Toeplitz matrix on x.  Direct summation.
    """
    if len(t.grid) != 1 or x.ndim != 1 or x.shape[0] != t.grid[0]:
        raise ValueError(f"input shape {x.shape} does not match grid {t.grid}")
    lo = t.grid[0] - 1
    return ComplexArray(np.convolve(t.diags.z, x.z)[lo:lo + t.grid[0]])


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


def _cells(grid):
    """Per-axis cell index of every flat column-stacked position on ``grid``."""
    return np.unravel_index(np.arange(math.prod(grid)), grid, order="F")


def toeplitz_expand(t: Toeplitz) -> ComplexArray:
    """Dense operator of a generator: the entry at (flat s, flat i) is the
    diagonal d(s - i), one offset per grid axis."""
    idx = tuple(s[:, None] - s[None, :] + (g - 1)
                for s, g in zip(_cells(t.grid), t.grid))
    return ComplexArray(t.diags.z[idx])


def toeplitz_extract(g: ComplexArray, grid) -> Toeplitz:
    """Read a generator back out of a dense operator on ``grid``.

    Offset p on an axis is read at cells (max(p, 0), max(-p, 0)): the first
    block row and block column.  Exact only when the matrix really is
    Toeplitz on every axis.
    """
    grid = tuple(int(n) for n in grid)
    total = math.prod(grid)
    if g.shape != (total, total):
        raise ValueError(f"matrix shape {g.shape}, expected {(total, total)}")
    offs = np.ix_(*(np.arange(1 - n, n) for n in grid))
    rows, cols = (np.ravel_multi_index(tuple(np.maximum(sign * p, 0) for p in offs),
                                       grid, order="F") for sign in (1, -1))
    return Toeplitz(ComplexArray(g.z[rows, cols]), grid)
