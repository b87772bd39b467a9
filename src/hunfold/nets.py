"""Unfolded shrinkage networks with structured inhibition.

A layer is two linear branches and a complex soft threshold,
``x <- soft_threshold(W_obs y + W_inh x, theta)``.  Each branch is an
operator, :class:`Dense` (a matrix) or :class:`Conv` (a kernel applied by
windowed linear convolution on a 1-D or 2-D grid); :func:`branches` maps an
architecture to its two operators.  A network builds them once, as
``net.ops``, and refuses a layer whose weights (``filt`` on the observation
branch, ``inhibit`` on the inhibition branch) have other shapes, when it is
built and in every forward pass.  Operators act on spectra, the identity for
:class:`Dense` and FFTs for :class:`Conv`, so :func:`forward_planes`
transforms the observations once for every layer and can hand the backward
pass each layer's input and kernel spectra.  The architectures:

* ``lista``       Dense observation, Dense inhibition;
* ``toeplitz1d``  Dense observation, length 2M-1 Toeplitz inhibition kernel;
* ``toeplitz2d``  Dense observation, (2*M1-1, 2*M2-1) kernel on the (M1, M2) grid;
* ``convlista``   a length M+N-1 observation kernel and a Toeplitz kernel.

Parameters are untied across layers.  A kernel stays the parameter of its
branch, but :func:`route` decides per call how a :class:`Conv` computes: by
FFT, or, when its matrix has at most ``DENSE_MAX_ENTRIES`` entries and the
batch at least ``DENSE_MIN_BATCH`` rows, as that dense matrix, copied from
the kernel once per call, where that measured faster.  The forward and the
backward pass of a batch take the same route.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .cplx import (ComplexArray, NumericError, _all_finite, hermitian,
                   join_planes, lipschitz_constant, shrink)
from .harmonic import Dictionary
# conv_full2_planes is not called here.  It stays bound because the benchmark
# tracer (perfbench/tracing.py) wraps it on this module as well and reports a
# name it cannot find as absent.
from .spectral import (conv_full_planes, conv_full2_planes,  # noqa: F401
                       kernel_sum, next_pow2, toeplitz_matrix)

__all__ = [
    "ARCHS",
    "Conv",
    "Dense",
    "Layer",
    "UnfoldedNetwork",
    "branches",
    "forward",
    "init_network",
    "load_network",
    "param_count",
    "route",
    "save_network",
]

ARCHS = ("lista", "toeplitz1d", "toeplitz2d", "convlista")

MODEL_MAGIC = b"HUN1"


@dataclass
class Layer:
    """One unfolded iteration's learnable parameters.

    ``filt`` is the observation weight in its operator's shape: the M x N
    matrix, or for ``convlista`` a kernel of length M+N-1.  ``inhibit`` is
    the inhibition weight in its operator's shape: dense (M, M), a 1-D
    kernel of length 2M-1, or a 2-D kernel of shape (2*M1-1, 2*M2-1).
    ``threshold`` is a 0-d float64 array of the layer's own, copied from the
    value given, which training steps in place.  ``filt_kernel`` is a
    placeholder that must be None; it keeps the four-argument positional
    form ``Layer(filt, None, inhibit, threshold)`` that the benchmark
    harness (perfbench/workloads.py) builds.
    """

    filt: ComplexArray
    filt_kernel: None = field(repr=False)
    inhibit: ComplexArray
    threshold: np.ndarray

    def __post_init__(self):
        if self.filt_kernel is not None:
            raise ValueError("filt_kernel must be None: a convlista kernel goes in filt")
        self.threshold = theta = np.array(self.threshold, dtype=np.float64)
        if theta.ndim != 0 or not (math.isfinite(theta) and theta >= 0.0):
            raise ValueError(f"threshold must be a finite scalar >= 0, got {theta}")


@dataclass
class UnfoldedNetwork:
    arch: str
    shape: tuple[int, ...]   # spectrum grid: (M,) or (M1, M2)
    n_obs: int
    layers: list[Layer]
    # the (obs_op, inhibit_op) every layer shares, built once with the network
    ops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        self.ops = branches(self.arch, self.shape, self.n_obs)
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        _check_weights(self)

    @property
    def total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def depth(self) -> int:
        return len(self.layers)


def _check_weights(net: UnfoldedNetwork, finite: bool = False) -> None:
    """Refuse a layer whose weights do not have the shapes of ``net.ops``,
    naming the layer, the branch and both shapes, and with ``finite`` (a
    model file's check) one that holds an entry that is not finite.  A
    weight assigned to a layer after the network was built reaches only
    this check, which every forward pass runs before it reads a weight."""
    for t, layer in enumerate(net.layers):
        for name, w, op in zip(("observation", "inhibition"),
                               (layer.filt, layer.inhibit), net.ops):
            got = getattr(w, "shape", None)
            if got != op.shape:
                raise ValueError(f"layer {t} {name} weight has shape {got}, "
                                 f"expected {op.shape}")
            if finite and not _all_finite(w.z):
                raise ValueError(f"layer {t} {name} weight is not finite")


# -- branch operators ----------------------------------------------------------
# Each maps a complex batch (batch, n_in) -> (batch, n_out).  ``shape`` is the
# weight's shape.  An operator works on spectra: ``weight_spectrum``,
# ``in_spectrum`` and ``out_spectrum`` transform a weight, an input batch and
# an output-side gradient batch, and ``apply_hat`` (the branch),
# ``adjoint_hat`` (a gradient pulled back to the input) and ``grad_hat`` (the
# batch-summed gradient on the weight) take those spectra.  ``apply``,
# ``adjoint`` and ``grad`` compose the two (``Conv.apply`` computes the same
# in one shot), so a caller that holds a spectrum (the forward cache, the
# backward pass) reuses it instead of transforming the same data again.
# Two operators with equal ``out_transform`` give one gradient batch the
# same ``out_spectrum``.


class _Branch:
    """The branch maps on untransformed data: spectra, then the product."""

    def apply(self, w: ComplexArray, x):
        return self.apply_hat(self.weight_spectrum(w), self.in_spectrum(x))

    def adjoint(self, w: ComplexArray, g):
        return self.adjoint_hat(self.weight_spectrum(w), self.out_spectrum(g))

    def grad(self, g, x):
        return self.grad_hat(self.out_spectrum(g), self.in_spectrum(x))


@dataclass(frozen=True)
class Dense(_Branch):
    """A matrix branch: out = W x with W of shape (n_out, n_in).  Its
    spectrum is the identity: the weight's is the matrix, a batch's the
    batch."""

    n_out: int
    n_in: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_out, self.n_in)

    out_transform = None   # out_spectrum is the identity
    file_order = "C"       # HUN1 plane order, see save_network

    def weight_spectrum(self, w: ComplexArray):
        return w.z

    def in_spectrum(self, x):
        return x

    out_spectrum = in_spectrum

    def apply_hat(self, w, x):
        return x @ w.T

    def adjoint_hat(self, w, g):
        """g conj(W), taken as conj(conj(g) W): the batch is conjugated,
        never the (possibly large) weight."""
        out = np.conj(g) @ w
        return np.conjugate(out, out=out)

    def grad_hat(self, g, x):
        """Batch sum of g conj(x)^T."""
        return g.T @ np.conj(x)


@functools.lru_cache(maxsize=256)
def _flat_index(start, size, n):
    """Positions of the window of ``size`` cells per axis from ``start`` on
    a grid laid flat in C order at ``n`` points per axis, mod prod(n): a
    read-only index array of shape ``size`` that every caller shares."""
    axes = [np.arange(s, s + m) * math.prod(n[a + 1:])
            for a, (s, m) in enumerate(zip(start, size))]
    idx = functools.reduce(np.add.outer, axes) % math.prod(n)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class Conv(_Branch):
    """A kernel branch: windowed linear convolution on a 1-D or 2-D grid.

    The kernel has K = ``grid_in + grid_out - 1`` entries per axis; the
    output is the ``grid_out`` window of the full convolution that starts
    ``grid_in - 1`` past the kernel origin.  Grids are spectrum grids, and
    a batch row is a grid's flat vector in C order, the last axis fastest.

    Everything runs on 1-D transforms of ``prod(n)`` points, ``n =
    next_pow2(K)`` per axis.  A grid (a batch row, or the kernel) is laid
    flat in C order with every axis padded to ``n``, cell (r, c) at
    ``r*n[1] + c``; one inverse is read at the window of cells
    ``start + (i, j)`` mod prod(n):

    * ``apply``   window(K^ X^, start ``grid_in - 1``, size ``grid_out``);
    * ``adjoint`` window(conj(K^) G^, start ``-(grid_in - 1)``, size
      ``grid_in``), a correlation with the kernel;
    * ``grad``    window(sum_b G^_b conj(X^_b), start ``-(grid_in - 1)``,
      size K), a correlation with the input, summed over the batch before
      the single inverse.

    No kept entry aliases.  Per axis, every term differs from a kept entry
    by less than K <= n (apply: kept [grid_in - 1, K - 1] of linear
    [0, K + grid_in - 2]; adjoint: kept lags [-(grid_in - 1), 0] of
    [-(K - 1), grid_out - 1]; grad: both [-(grid_in - 1), grid_out - 1]),
    and indices equal mod n that differ by less than n are equal.  On the
    flat circle a term (r, c), whose c may run past n[1], lands on a kept
    (a, b) only if c = b mod n[1], so c = b; then r = a mod n[0], so r = a.

    ``matrix`` is the same operator computed densely, for small grids on
    large batches (:func:`route`); the parameter is the kernel either way.
    """

    grid_in: tuple[int, ...]
    grid_out: tuple[int, ...]
    file_order = "F"   # HUN1 plane order, see save_network

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(a + b - 1 for a, b in zip(self.grid_in, self.grid_out))

    @functools.cached_property
    def n(self) -> tuple[int, ...]:
        """Points per grid axis on the transform's circle."""
        return tuple(next_pow2(s) for s in self.shape)

    def _lay(self, a, grid):
        """Flat rows on ``grid`` laid at the transform's strides, each run
        of the last axis zero-padded to ``n[-1]`` cells (1-D: as it is)."""
        if len(grid) == 1:
            return a
        lead = a.shape[:-1]
        buf = np.zeros(lead + self.n, dtype=np.complex128)
        buf[(Ellipsis,) + tuple(slice(g) for g in grid)] = a.reshape(lead + grid)
        return buf.reshape(lead + (-1,))

    def _spectrum(self, a, grid):
        return np.fft.fft(self._lay(a, grid), math.prod(self.n))

    def _read(self, z, start, size):
        """Laid rows ``z`` read as flat rows at the window of ``size`` cells
        per axis from ``start``: a strided slice, or the cached index where
        a start is negative."""
        lead = z.shape[:-1]
        if min(start) >= 0:
            cut = tuple(slice(s, s + m) for s, m in zip(start, size))
            z = z.reshape(lead + (-1,) + self.n[1:])[(Ellipsis,) + cut]
        else:
            z = z[..., _flat_index(start, size, self.n)]
        return z.reshape(lead + (-1,))

    def _window(self, spec, start, size):
        """Inverse transform of ``spec``, read as :meth:`_read` does into a
        contiguous array, which later element-wise passes run faster on."""
        return np.ascontiguousarray(self._read(np.fft.ifft(spec), start, size))

    def apply(self, w: ComplexArray, x):
        """The branch in one shot, for a caller that keeps no spectra: one
        :func:`~hunfold.spectral.conv_full_planes` convolution of the laid
        kernel and batch at ``prod(n)`` points.  It takes the very
        transforms and product of ``apply_hat`` on ``weight_spectrum`` and
        ``in_spectrum`` and reads the same window, so the two agree bit for
        bit.  The benchmark tracer (perfbench/tracing.py) counts these
        calls as ``spectral.conv``."""
        k, x = self._lay(w.z.ravel(), self.shape), self._lay(x, self.grid_in)
        planes = conv_full_planes(k.real, k.imag, x.real, x.imag, math.prod(self.n))
        return join_planes(*(self._read(p, self._apply_start, self.grid_out)
                             for p in planes))

    @property
    def out_transform(self):
        """What ``out_spectrum`` does to a batch: operators with equal
        values give equal spectra of one gradient."""
        return self.grid_out, self.n

    def weight_spectrum(self, w: ComplexArray):
        return self._spectrum(w.z.ravel(), self.shape)

    def in_spectrum(self, x):
        return self._spectrum(x, self.grid_in)

    def out_spectrum(self, g):
        return self._spectrum(g, self.grid_out)

    @functools.cached_property
    def _apply_start(self) -> tuple[int, ...]:
        return tuple(a - 1 for a in self.grid_in)

    @functools.cached_property
    def _correlation_start(self) -> tuple[int, ...]:
        return tuple(1 - a for a in self.grid_in)

    def apply_hat(self, k, x):
        return self._window(k * x, self._apply_start, self.grid_out)

    def adjoint_hat(self, k, g):
        return self._window(np.conj(k) * g, self._correlation_start, self.grid_in)

    def grad_hat(self, g, x):
        return self._window(np.sum(g * np.conj(x), axis=0), self._correlation_start,
                            self.shape).reshape(self.shape)

    @functools.cached_property
    def matrix(self) -> "_ConvMatrix":
        """This operator computed as its dense matrix (see :func:`route`)."""
        return _ConvMatrix(math.prod(self.grid_out), math.prod(self.grid_in), self)

    @functools.cached_property
    def _bins(self) -> np.ndarray:
        """:func:`~hunfold.spectral.kernel_sum`'s bins: the matrix of a kernel
        that holds its own flat positions, as ``2p`` and ``2p + 1``."""
        pos = np.arange(math.prod(self.shape)).reshape(self.shape)
        flat = toeplitz_matrix(pos, self.grid_in, self.grid_out)
        return (2 * flat.reshape(-1, 1) + np.arange(2)).ravel()

    def kernel_sum(self, m) -> np.ndarray:
        """Per kernel position, the sum of the entries of a dense
        (prod(grid_out), prod(grid_in)) weight ``m`` that the operator's
        matrix reads from that position: the adjoint of building the
        matrix from the kernel."""
        return kernel_sum(m, self._bins, self.shape)


@dataclass(frozen=True)
class _ConvMatrix(Dense):
    """A :class:`Conv` computed as its dense Toeplitz matrix.

    The parameter is still the kernel, and ``shape`` the kernel's.  Its
    spectrum is the (n_out, n_in) matrix, one copy of the kernel's strided
    view (:func:`~hunfold.spectral.toeplitz_matrix`); ``apply_hat`` and
    ``adjoint_hat`` are :class:`Dense`'s products with it, and ``grad_hat``
    sums :class:`Dense`'s matrix gradient onto the kernel positions
    (:meth:`Conv.kernel_sum`).
    """

    conv: Conv

    @property
    def shape(self) -> tuple[int, ...]:
        return self.conv.shape

    def weight_spectrum(self, w: ComplexArray):
        return toeplitz_matrix(w.z, self.conv.grid_in, self.conv.grid_out)

    def grad_hat(self, g, x):
        return self.conv.kernel_sum(super().grad_hat(g, x))


# The dense route's crossover.  A Conv whose matrix has at most
# DENSE_MAX_ENTRIES entries runs as that matrix on a batch of DENSE_MIN_BATCH
# rows or more.  Measured on one BLAS thread (table in CHANGES.md), a 1-D
# training step on 8 or 16 rows ran faster on the dense route up to about
# 100 x 100 entries and slower from 112 x 112; on 128 rows it stayed faster up
# to 128 x 128.  The dense route was faster on one row too: the floor is there
# only so that calls on 1 to 4 rows, which the benchmark harness's own tests
# trace as FFT convolutions, stay on the FFT route.
DENSE_MAX_ENTRIES = 96 * 96
DENSE_MIN_BATCH = 8


def route(op, batch: int):
    """The operator that a call on ``batch`` rows runs ``op`` as: a small
    :class:`Conv` at a batch of at least ``DENSE_MIN_BATCH`` rows as its
    dense matrix (``op.matrix``), any other operator as itself.  A forward
    pass and its backward pass route alike, so the spectra one keeps are
    the ones the other reads."""
    if (isinstance(op, Conv) and batch >= DENSE_MIN_BATCH
            and math.prod(op.grid_in) * math.prod(op.grid_out) <= DENSE_MAX_ENTRIES):
        return op.matrix
    return op


def branches(arch: str, shape, n_obs: int):
    """(obs_op, inhibit_op): the two branch operators of an ``arch`` layer on
    a spectrum grid ``shape`` observed through ``n_obs`` samples."""
    shape = tuple(int(s) for s in shape)
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    if len(shape) not in (1, 2) or min(shape) < 1 or n_obs < 1:
        raise ValueError(f"grid {shape} with {n_obs} observations is not a problem")
    if arch.startswith("toeplitz") and arch != f"toeplitz{len(shape)}d":
        raise ValueError(f"{arch} needs a {arch[-2]}-D problem")
    total = math.prod(shape)
    obs = Conv((n_obs,), (total,)) if arch == "convlista" else Dense(total, n_obs)
    if arch == "lista":
        return obs, Dense(total, total)
    return obs, Conv(shape, shape)


def forward_planes(net: UnfoldedNetwork, yr, yi, keep_cache: bool = False):
    """Run the network on batch-major planes (batch, n_obs) -> (batch, M).

    The observations are transformed once, for every layer.  Returns the
    output's real and imaginary planes and, with ``keep_cache``, per layer
    its complex input ``"x"``, pre-threshold activation ``"u"`` and that
    activation's modulus ``"mag"`` (computed once, by the threshold),
    the inhibition branch's input and kernel spectra ``"xh"`` and ``"kh"``
    (None in layer 0, which has no inhibition) and the observation
    spectrum ``"yh"``, which the backward pass consumes.  Without
    ``keep_cache`` the inhibition branch runs the one-shot ``apply``, which
    gives the same numbers bit for bit.  Each branch runs as :func:`route`
    picks for the batch's row count; on the dense route a kernel's
    "spectrum" is its matrix and a batch's the batch itself.
    """
    y = join_planes(yr, yi)
    if y.shape[-1] != net.n_obs:
        raise ValueError(f"observation length {y.shape[-1]}, expected {net.n_obs}")
    _check_weights(net)
    obs_op, inhibit_op = (route(op, y.shape[0]) for op in net.ops)
    yh = obs_op.in_spectrum(y)
    x = np.zeros((y.shape[0], net.total), dtype=np.complex128)
    cache = [] if keep_cache else None
    for t, layer in enumerate(net.layers):
        u = obs_op.apply_hat(obs_op.weight_spectrum(layer.filt), yh)
        kh = xh = None
        if t > 0 and keep_cache:
            kh, xh = inhibit_op.weight_spectrum(layer.inhibit), inhibit_op.in_spectrum(x)
            u += inhibit_op.apply_hat(kh, xh)
        elif t > 0:
            u += inhibit_op.apply(layer.inhibit, x)
        x_in = x
        x, mag = shrink(u, layer.threshold)
        if keep_cache:
            cache.append({"x": x_in, "u": u, "mag": mag, "xh": xh, "kh": kh, "yh": yh})
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite activation after layer {t}")
    return x.real, x.imag, cache


def forward(net: UnfoldedNetwork, y: ComplexArray) -> ComplexArray:
    """Recover the length-M spectrum of one observation vector: one
    :func:`forward_planes` pass over a batch of one, without ``keep_cache``.
    Per-layer outputs are that pass with ``keep_cache``: layer t's output
    is layer t+1's cached input ``"x"``.
    """
    if y.ndim != 1:
        raise ValueError("forward expects a rank-1 observation")
    xr, xi, _ = forward_planes(net, y.re[None, :], y.im[None, :])
    return ComplexArray(join_planes(xr, xi)[0])


def init_network(arch: str, d: Dictionary, depth: int, lam: float,
                 phi_hat: ComplexArray | None = None) -> UnfoldedNetwork:
    """Starting point for training.

    Every layer gets the filter (1/L) phi_hat^H, an all-zero inhibition
    kernel and threshold lam / L, where L estimates the top eigenvalue of
    the Gram operator.  phi_hat is the true operator unless one of its
    shape is supplied, such as a least-squares estimate.  The convolutional
    baseline cannot start from a zero observation kernel (its gradient
    would vanish), so it gets the per-diagonal mean of the same filter
    instead.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"penalty weight must be finite and >= 0, got {lam}")
    obs_op, inhibit_op = branches(arch, d.shape, d.n_obs)
    phi_hat = d.phi if phi_hat is None else phi_hat
    if phi_hat.shape != d.phi.shape:
        raise ValueError(f"operator of shape {phi_hat.shape}, expected {d.phi.shape}")
    big_l = lipschitz_constant(phi_hat).value
    filt = hermitian(phi_hat).scale(1.0 / big_l)
    theta0 = lam / big_l
    if arch == "convlista":   # the mean entry at each kernel position
        counts = obs_op.kernel_sum(np.ones(filt.shape)).real
        filt = ComplexArray(obs_op.kernel_sum(filt.z) / counts)
    layers = [Layer(filt.copy(), None, ComplexArray.zeros(inhibit_op.shape), theta0)
              for _ in range(depth)]
    return UnfoldedNetwork(arch, d.shape, d.n_obs, layers)


def param_count(net: UnfoldedNetwork) -> dict:
    """Exact complex-parameter counts, per layer and total.

    The threshold counts as one parameter per layer.
    """
    obs_op, inhibit_op = net.ops
    filt = int(np.prod(obs_op.shape))
    inhib = int(np.prod(inhibit_op.shape))
    per_layer = {"filter": filt, "inhibition": inhib, "threshold": 1,
                 "total": filt + inhib + 1}
    t = net.depth
    return {
        "arch": net.arch,
        "depth": t,
        "per_layer": per_layer,
        "inhibition_total": inhib * t,
        "total": per_layer["total"] * t,
    }


def _read_planes(buf, off, op):
    cnt = math.prod(op.shape)
    planes = np.frombuffer(buf, dtype="<f8", count=2 * cnt, offset=off).reshape(2, cnt)
    re, im = (p.reshape(op.shape, order=op.file_order) for p in planes)
    return ComplexArray(re, im), off + cnt * 16


def save_network(path, net: UnfoldedNetwork, extra_meta: dict | None = None) -> None:
    """Binary model file plus a JSON sidecar at ``path + '.json'``.

    Layout: magic ``HUN1``; little-endian u32 architecture tag (index into
    ``ARCHS``); u32 depth; u32 grid rank; u32 dim1; u32 dim2 (0 when 1-D);
    u32 n_obs; then per layer the observation planes (filter matrix or
    kernel, re then im), the inhibition planes, and the threshold as f64.
    A matrix's planes are row-major.  A kernel's run its first axis fastest
    (Fortran order): a 2-D kernel of shape (2*M1-1, 2*M2-1) goes column by
    column, a 1-D kernel as it is.  Each operator's ``file_order`` names
    its order.  A weight that :func:`load_network` would refuse is refused.
    """
    try:
        _check_weights(net, finite=True)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    head = struct.pack("<4sIIIIII", MODEL_MAGIC, ARCHS.index(net.arch),
                       net.depth, len(net.shape), *(net.shape + (0,))[:2],
                       net.n_obs)
    with open(path, "wb") as fh:
        fh.write(head)
        for layer in net.layers:
            for w, op in zip((layer.filt, layer.inhibit), net.ops):
                for plane in (w.re, w.im):
                    fh.write(plane.astype("<f8").tobytes(op.file_order))
            fh.write(struct.pack("<d", layer.threshold))
    side = {
        "arch": net.arch,
        "shape": list(net.shape),
        "n_obs": net.n_obs,
        "depth": net.depth,
        "param_count": param_count(net),
        "format": MODEL_MAGIC.decode("ascii"),
    }
    if extra_meta:
        side.update(extra_meta)
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(path) -> UnfoldedNetwork:
    """Read a :func:`save_network` file; a malformed one raises a ValueError
    naming it."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 28 or buf[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    arch_tag, depth, rank, d1, d2, n_obs = struct.unpack_from("<IIIIII", buf, 4)
    try:
        if arch_tag >= len(ARCHS) or rank not in (1, 2) or (rank == 1 and d2 != 0):
            raise ValueError("corrupt header")
        arch = ARCHS[arch_tag]
        shape = (d1, d2)[:rank]
        obs_op, inhibit_op = branches(arch, shape, n_obs)
        want = 28 + depth * (16 * (math.prod(obs_op.shape) + math.prod(inhibit_op.shape)) + 8)
        if len(buf) != want:
            raise ValueError(f"file holds {len(buf)} bytes but its header implies {want}")
        off = 28
        layers = []
        for t in range(depth):
            obs, off = _read_planes(buf, off, obs_op)
            inhibit, off = _read_planes(buf, off, inhibit_op)
            (theta,) = struct.unpack_from("<d", buf, off)
            off += 8
            try:
                layers.append(Layer(obs, None, inhibit, theta))
            except ValueError as exc:
                raise ValueError(f"layer {t} {exc}") from None
        net = UnfoldedNetwork(arch, shape, n_obs, layers)
        _check_weights(net, finite=True)
        return net
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
