"""Toeplitz generators, their dense expansions and FFT convolution.

:func:`conv_full_planes` and :func:`conv_full2_planes` are standalone
convolutions on ``numpy.fft`` in complex128, broadcast over leading axes so
batches of rows transform in one call, at a transform length per axis that
the caller gives.  The network layers' windowed convolution,
:class:`hunfold.nets.Conv`, calls :func:`conv_full_planes` for a one-shot
``apply``: on a 1-D grid at the power of two at or above its kernel length,
shorter than the full linear length, because it keeps only a window that
cannot alias; on a 2-D grid at the product of those powers of two, with
the grid laid flat at a row stride of the last axis's power of two, so
that one 1-D transform does the work of a 2-D one.  A training step
instead transforms through ``numpy.fft`` in ``Conv`` itself, so that it
can keep the spectra and reuse them in the backward pass.  A small ``Conv``
on a large batch computes with no transform at all, as the dense matrix
:func:`toeplitz_matrix` copies from its kernel, and sums its weight
gradient back onto the kernel with :func:`kernel_sum`.
:func:`conv1d` is the direct windowed form on a 1-D grid, and
:func:`toeplitz_expand` ties a generator to the dense operator it induces,
which :func:`toeplitz_extract` reads back at one entry per kernel position.

Index conventions used throughout the package, one rule per grid axis:

* a grid's cells flatten in numpy's C order, the last axis fastest, the
  order of the spectrum grid's Kronecker columns;
* a :class:`Toeplitz` generator on ``grid`` stores diagonal value d(p) of
  grid axis a (g cells) at position ``p + g - 1`` of its own axis a, for
  offsets p in ``-(g-1) .. g-1``: ``2*g - 1`` entries per axis;
* flat output cell s and input cell i read the kernel at position
  ``s - i + g_in - 1`` per axis, d(s - i): on one axis a Toeplitz matrix;
  on two, the last axis runs inside blocks and the first across them,
  doubly-block Toeplitz.  The rule is written once, as a read-only strided
  view of the kernel, with no index arrays: :func:`toeplitz_matrix` (and
  :func:`toeplitz_expand` through it) is one copy of that view of a kernel,
  so the dense matrix is its only M^2-sized allocation, and
  :func:`kernel_index` one copy of that view of each axis's kernel
  positions; :func:`kernel_sum`, its adjoint, bins a matrix's entries by
  that view of the flat positions.
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
    "kernel_index",
    "kernel_sum",
    "next_pow2",
    "toeplitz_expand",
    "toeplitz_extract",
    "toeplitz_matrix",
]


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class Toeplitz:
    """Generator of a Toeplitz operator on a grid of any rank.

    ``grid`` gives the cells per axis; the operator acts on the grid's
    flat vector in C order, the last axis fastest.  ``diags`` has
    ``2*g - 1`` entries per axis, its axis a on grid axis a; position
    ``p + g - 1`` on an axis holds offset ``p``.  On one axis the operator
    is plain Toeplitz, on two doubly-block Toeplitz.
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


def _toeplitz_view(a: np.ndarray, grid_in, grid_out) -> np.ndarray:
    """Read-only view of kernel ``a`` whose entry (s, i) is
    ``a[s - i + g_in - 1]`` per axis, for output cell s and input cell i.

    Its shape is ``grid_out + grid_in``, so reshaped to ``(prod(grid_out),
    prod(grid_in))`` its rows and columns are the flat cells.  ``a`` must
    have ``g_in + g_out - 1`` entries per axis.

    The view starts at the kernel centre ``a[g_in - 1]`` and steps ``+st``
    along an output axis and ``-st`` along an input axis, ``st`` being that
    axis's stride in ``a``.  It stays in bounds: with 0 <= s < g_out and
    0 <= i < g_in, the position ``g_in - 1 + s - i`` it reads runs from 0
    (s = 0, i = g_in - 1) to ``g_in + g_out - 2`` (s = g_out - 1, i = 0),
    the first and last entries of the axis.
    """
    centre = a[tuple(slice(g - 1, None) for g in grid_in)]
    return np.lib.stride_tricks.as_strided(
        centre, tuple(grid_out) + tuple(grid_in),
        a.strides + tuple(-s for s in a.strides), writeable=False)


def kernel_index(grid_in, grid_out) -> tuple[np.ndarray, ...]:
    """Per axis, the kernel position ``s - i + g_in - 1`` of every flat
    output cell s (a row) and input cell i (a column)."""
    shape = (math.prod(grid_out), math.prod(grid_in))
    pos = np.indices(tuple(gi + go - 1 for gi, go in zip(grid_in, grid_out)))
    return tuple(_toeplitz_view(p, grid_in, grid_out).copy().reshape(shape) for p in pos)


def toeplitz_matrix(a: np.ndarray, grid_in, grid_out) -> np.ndarray:
    """The (prod(grid_out), prod(grid_in)) matrix whose entry at (flat s,
    flat i) is kernel entry ``a[s - i + g_in - 1]`` per axis: one C-ordered
    copy of the kernel's strided view.  ``a`` must have ``g_in + g_out - 1``
    entries per axis."""
    return (_toeplitz_view(a, grid_in, grid_out).copy()
            .reshape(math.prod(grid_out), math.prod(grid_in)))


def kernel_sum(m: np.ndarray, bins: np.ndarray, shape) -> np.ndarray:
    """Per kernel position, the sum of the entries of the complex matrix
    ``m`` that :func:`toeplitz_matrix` reads from it, as a complex128 kernel
    of ``shape``: the adjoint of that expansion, one ``bincount`` of the
    matrix's float64 view over ``bins``, the flat kernel position p of each
    entry as ``2p`` (real part) and ``2p + 1`` (imaginary part), each
    position's entries added in row-major order."""
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).ravel()
    return np.bincount(bins, parts, 2 * math.prod(shape)).view(np.complex128).reshape(shape)


def toeplitz_expand(t: Toeplitz) -> ComplexArray:
    """Dense operator of a generator: the entry at (flat s, flat i) is the
    diagonal d(s - i), one offset per grid axis."""
    return ComplexArray(toeplitz_matrix(t.diags.z, t.grid, t.grid))


def toeplitz_extract(g: ComplexArray, grid) -> Toeplitz:
    """Read a generator back out of a dense operator on ``grid``.

    Each kernel position is read at its first row-major entry, which lies
    in the first block row or block column: offset p on an axis at output
    cell ``max(p, 0)`` and input cell ``max(-p, 0)``.  Exact only when the
    matrix really is Toeplitz on every axis.
    """
    grid = tuple(int(n) for n in grid)
    total = math.prod(grid)
    if g.shape != (total, total):
        raise ValueError(f"matrix shape {g.shape}, expected {(total, total)}")
    p = np.ix_(*(np.arange(1 - n, n) for n in grid))   # offsets per kernel axis
    cells = tuple(np.maximum(q, 0) for q in p) + tuple(np.maximum(-q, 0) for q in p)
    return Toeplitz(ComplexArray(g.z.reshape(grid + grid)[cells]), grid)
