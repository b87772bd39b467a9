"""Unfolded shrinkage networks with structured inhibition.

A layer is two linear branches and a complex soft threshold,
``x <- soft_threshold(W_obs y + W_inh x, theta)``.  Each branch is an
operator, :class:`Dense` (a matrix) or :class:`Conv` (a kernel applied by
windowed linear convolution on a 1-D or 2-D grid); :func:`branches` maps an
architecture to its two operators.  Operators act on spectra, the identity
for :class:`Dense` and FFTs for :class:`Conv`, so :func:`forward_planes`
transforms the observations once for every layer and can hand the backward
pass each layer's input and kernel spectra.  The architectures:

* ``lista``       Dense observation, Dense inhibition;
* ``toeplitz1d``  Dense observation, length 2M-1 Toeplitz inhibition kernel;
* ``toeplitz2d``  Dense observation, two-axis kernel on the (M2, M1) grid;
* ``convlista``   a length M+N-1 observation kernel and a Toeplitz kernel.

Parameters are untied across layers.  Forward passes never densify a kernel.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cplx import (ComplexArray, NumericError, hermitian, join_planes,
                   lipschitz_constant, shrink)
from .harmonic import Dictionary, conv_grid
# conv_full2_planes is not called here.  It stays bound because the benchmark
# tracer (perfbench/tracing.py) wraps it on this module as well and reports a
# name it cannot find as absent.
from .spectral import conv_full_planes, conv_full2_planes, next_pow2  # noqa: F401

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
    "save_network",
]

ARCHS = ("lista", "toeplitz1d", "toeplitz2d", "convlista")

MODEL_MAGIC = b"HUN1"


@dataclass
class Layer:
    """One unfolded iteration's learnable parameters.

    ``filt`` is the M x N observation matrix (absent for ``convlista``,
    which keeps its observation kernel in ``filt_kernel`` instead);
    ``inhibit`` is the inhibition weight in its operator's shape: dense
    (M, M), a 1-D kernel of length 2M-1, or a 2-D kernel of shape
    (2*g1-1, 2*g2-1).
    """

    filt: ComplexArray | None
    filt_kernel: ComplexArray | None
    inhibit: ComplexArray
    threshold: float

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")

    @property
    def obs(self) -> ComplexArray:
        """The observation branch's weight, whichever slot holds it."""
        return self.filt if self.filt is not None else self.filt_kernel


def place_obs(arch: str, obs):
    """(filt, filt_kernel) with the observation weight in its ``arch`` slot."""
    return (None, obs) if arch == "convlista" else (obs, None)


@dataclass
class UnfoldedNetwork:
    arch: str
    shape: tuple[int, ...]   # spectrum grid: (M,) or (M1, M2)
    n_obs: int
    layers: list[Layer]

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        branches(self.arch, self.shape, self.n_obs)
        if not self.layers:
            raise ValueError("a network needs at least one layer")

    @property
    def total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def depth(self) -> int:
        return len(self.layers)


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
    a grid laid at strides (1, n[0], n[0]*n[1], ...), mod prod(n): a
    read-only index array, axes slowest first, that every caller shares."""
    strides = np.cumprod((1,) + n[:-1])
    axes = [np.arange(s, s + m) * st for s, m, st in zip(start, size, strides)]
    idx = functools.reduce(np.add.outer, reversed(axes)) % math.prod(n)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class Conv(_Branch):
    """A kernel branch: windowed linear convolution on a 1-D or 2-D grid.

    The kernel has K = ``grid_in + grid_out - 1`` entries per axis; the
    output is the ``grid_out`` window of the full convolution that starts
    ``grid_in - 1`` past the kernel origin.  A 2-D grid (rows, cols) holds
    its flat vector column-stacked, the layout of
    :func:`~hunfold.harmonic.conv_grid`.

    Everything runs on 1-D transforms of ``prod(n)`` points, ``n =
    next_pow2(K)`` per axis.  A grid (a batch row, or the kernel through
    its transposed view) is laid with cell (r, c) at ``r + c*n[0]``; one
    inverse is read at the window of cells ``start + (i, j)`` mod prod(n):

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
    flat circle a term (r, c), whose r may run past n[0], lands on a kept
    (a, b) only if r = a mod n[0], so r = a; then c = b mod n[1], so c = b.
    """

    grid_in: tuple[int, ...]
    grid_out: tuple[int, ...]

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(a + b - 1 for a, b in zip(self.grid_in, self.grid_out))

    @functools.cached_property
    def n(self) -> tuple[int, ...]:
        """Points per grid axis on the transform's circle."""
        return tuple(next_pow2(s) for s in self.shape)

    def _lay(self, a, grid):
        """Flat column-stacked rows on ``grid`` laid at the transform's
        strides, each column zero-padded to ``n[0]`` cells (1-D: as it is)."""
        if len(grid) == 1:
            return a
        lead = a.shape[:-1]
        buf = np.zeros(lead + self.n[::-1], dtype=np.complex128)
        cells = tuple(slice(g) for g in grid[::-1])
        buf[(Ellipsis,) + cells] = a.reshape(lead + grid[::-1])
        return buf.reshape(lead + (-1,))

    def _spectrum(self, a, grid):
        return np.fft.fft(self._lay(a, grid), math.prod(self.n))

    def _read(self, z, start, size, batch=True):
        """Laid rows ``z`` read at the window of ``size`` cells per axis from
        ``start``: a strided slice, or the cached index where a start is
        negative; a batch as flat column-stacked rows, a kernel in its shape."""
        lead = z.shape[:-1]
        if min(start) >= 0:
            cut = tuple(slice(s, s + m) for s, m in zip(start[::-1], size[::-1]))
            z = z.reshape(lead + (-1,) + self.n[-2::-1])[(Ellipsis,) + cut]
        else:
            z = z[..., _flat_index(start, size, self.n)]
        return z.reshape(lead + (-1,)) if batch else z.T

    def _window(self, spec, start, size, batch=True):
        """Inverse transform of ``spec``, read as :meth:`_read` does into a
        contiguous array, which later element-wise passes run faster on."""
        return np.ascontiguousarray(self._read(np.fft.ifft(spec), start, size, batch))

    def apply(self, w: ComplexArray, x):
        """The branch in one shot, for a caller that keeps no spectra: one
        :func:`~hunfold.spectral.conv_full_planes` convolution of the laid
        kernel and batch at ``prod(n)`` points.  It takes the very
        transforms and product of ``apply_hat`` on ``weight_spectrum`` and
        ``in_spectrum`` and reads the same window, so the two agree bit for
        bit.  The benchmark tracer (perfbench/tracing.py) counts these
        calls as ``spectral.conv``."""
        k, x = self._lay(w.z.T.ravel(), self.shape), self._lay(x, self.grid_in)
        planes = conv_full_planes(k.real, k.imag, x.real, x.imag, math.prod(self.n))
        return join_planes(*(self._read(p, self._apply_start, self.grid_out)
                             for p in planes))

    @property
    def out_transform(self):
        """What ``out_spectrum`` does to a batch: operators with equal
        values give equal spectra of one gradient."""
        return self.grid_out, self.n

    def weight_spectrum(self, w: ComplexArray):
        return self._spectrum(w.z.T.ravel(), self.shape)

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
                            self.shape, batch=False)


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
    grid = conv_grid(shape)
    return obs, Conv(grid, grid)


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
    gives the same numbers bit for bit.
    """
    y = join_planes(yr, yi)
    if y.shape[-1] != net.n_obs:
        raise ValueError(f"observation length {y.shape[-1]}, expected {net.n_obs}")
    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
    yh = obs_op.in_spectrum(y)
    x = np.zeros((y.shape[0], net.total), dtype=np.complex128)
    cache = [] if keep_cache else None
    for t, layer in enumerate(net.layers):
        u = obs_op.apply_hat(obs_op.weight_spectrum(layer.obs), yh)
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
    """Recover the length-M spectrum of one observation vector.

    Per-layer outputs come from :func:`forward_planes` with ``keep_cache``:
    layer t's output is layer t+1's cached input ``"x"``.
    """
    if y.ndim != 1:
        raise ValueError("forward expects a rank-1 observation")
    xr, xi, _ = forward_planes(net, y.re[None, :], y.im[None, :])
    return ComplexArray(join_planes(xr, xi)[0])


def _toeplitz_project(filt: ComplexArray, total: int, n_obs: int) -> ComplexArray:
    """Closest (per-diagonal mean) rectangular-Toeplitz kernel to a matrix."""
    k = np.empty(total + n_obs - 1, dtype=np.complex128)
    for p in range(total + n_obs - 1):
        k[p] = np.mean(np.diagonal(filt.z, offset=n_obs - 1 - p))
    return ComplexArray(k)


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
    _, inhibit_op = branches(arch, d.shape, d.n_obs)
    phi_hat = d.phi if phi_hat is None else phi_hat
    if phi_hat.shape != d.phi.shape:
        raise ValueError(f"operator of shape {phi_hat.shape}, expected {d.phi.shape}")
    big_l = lipschitz_constant(phi_hat).value
    filt = hermitian(phi_hat).scale(1.0 / big_l)
    theta0 = lam / big_l
    obs = _toeplitz_project(filt, d.total, d.n_obs) if arch == "convlista" else filt
    layers = [Layer(*place_obs(arch, obs.copy()), ComplexArray.zeros(inhibit_op.shape),
                    theta0)
              for _ in range(depth)]
    return UnfoldedNetwork(arch, d.shape, d.n_obs, layers)


def param_count(net: UnfoldedNetwork) -> dict:
    """Exact complex-parameter counts, per layer and total.

    The threshold counts as one parameter per layer.
    """
    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
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


def _write_planes(fh, a: ComplexArray):
    fh.write(a.re.astype("<f8").tobytes())
    fh.write(a.im.astype("<f8").tobytes())


def _read_planes(buf, off, shape):
    cnt = int(np.prod(shape))
    re = np.frombuffer(buf, dtype="<f8", count=cnt, offset=off).reshape(shape)
    im = np.frombuffer(buf, dtype="<f8", count=cnt, offset=off + cnt * 8).reshape(shape)
    return ComplexArray(re, im), off + cnt * 16


def save_network(path, net: UnfoldedNetwork, extra_meta: dict | None = None) -> None:
    """Binary model file plus a JSON sidecar at ``path + '.json'``.

    Layout: magic ``HUN1``; little-endian u32 architecture tag (index into
    ``ARCHS``); u32 depth; u32 grid rank; u32 dim1; u32 dim2 (0 when 1-D);
    u32 n_obs; then per layer the observation planes (filter matrix or
    kernel, re then im), the inhibition planes, and the threshold as f64.
    """
    head = struct.pack("<4sIIIIII", MODEL_MAGIC, ARCHS.index(net.arch),
                       net.depth, len(net.shape), *(net.shape + (0,))[:2],
                       net.n_obs)
    with open(path, "wb") as fh:
        fh.write(head)
        for layer in net.layers:
            _write_planes(fh, layer.obs)
            _write_planes(fh, layer.inhibit)
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
        want = 28 + depth * (16 * (int(np.prod(obs_op.shape))
                                   + int(np.prod(inhibit_op.shape))) + 8)
        if len(buf) != want:
            raise ValueError(f"file holds {len(buf)} bytes but its header implies {want}")
        off = 28
        layers = []
        for _ in range(depth):
            obs, off = _read_planes(buf, off, obs_op.shape)
            inhibit, off = _read_planes(buf, off, inhibit_op.shape)
            (theta,) = struct.unpack_from("<d", buf, off)
            off += 8
            layers.append(Layer(*place_obs(arch, obs), inhibit, theta))
        return UnfoldedNetwork(arch, shape, n_obs, layers)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
