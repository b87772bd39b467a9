"""Unfolded shrinkage networks with structured inhibition.

A layer is two linear branches and a complex soft threshold,
``x <- soft_threshold(W_obs y + W_inh x, theta)``.  Each branch is an
operator, :class:`Dense` (a matrix) or :class:`Conv` (a kernel applied by
windowed linear convolution on a 1-D or 2-D grid); :func:`branches` maps an
architecture to its two operators:

* ``lista``       Dense observation, Dense inhibition;
* ``toeplitz1d``  Dense observation, length 2M-1 Toeplitz inhibition kernel;
* ``toeplitz2d``  Dense observation, two-axis kernel on the (M2, M1) grid;
* ``convlista``   a length M+N-1 observation kernel and a Toeplitz kernel.

Parameters are untied across layers.  Forward passes never densify a kernel.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cplx import (ComplexArray, NumericError, hermitian, join_planes,
                   lipschitz_constant, soft_threshold_planes)
from .harmonic import Dictionary
from .spectral import conv_full_planes, conv_full2_planes, next_pow2

__all__ = [
    "ARCHS",
    "Conv",
    "Dense",
    "Layer",
    "UnfoldedNetwork",
    "branches",
    "conv_grid",
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


def conv_grid(shape) -> tuple[int, int]:
    """Convolution grid of a 2-D spectrum: (rows, cols) = (M2, M1).

    Flat spectrum index m1*M2 + m2 makes m2 the fast axis, so the kernel's
    in-block axis runs over m2.
    """
    if len(shape) != 2:
        raise ValueError("conv_grid is only defined for 2-D problems")
    return int(shape[1]), int(shape[0])


# -- branch operators ----------------------------------------------------------
# Each maps a complex batch (batch, n_in) -> (batch, n_out).  ``apply`` is
# the branch, ``adjoint`` pulls a gradient back to the input, ``grad`` is the
# batch-summed gradient on the weight, and ``shape`` is the weight's shape.


@dataclass(frozen=True)
class Dense:
    """A matrix branch: out = W x with W of shape (n_out, n_in)."""

    n_out: int
    n_in: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_out, self.n_in)

    def apply(self, w: ComplexArray, x):
        return x @ w.z.T

    def adjoint(self, w: ComplexArray, g):
        """g conj(W), taken as conj(conj(g) W): the batch is conjugated,
        never the (possibly large) weight."""
        out = np.conj(g) @ w.z
        return np.conjugate(out, out=out)

    def grad(self, g, x):
        """Batch sum of g conj(x)^T."""
        return g.T @ np.conj(x)


def _on_grid(x, grid):
    """Flat (batch, prod(grid)) batch laid column-stacked onto a 2-D grid."""
    if len(grid) == 1:
        return x
    return np.ascontiguousarray(x.reshape(-1, grid[1], grid[0]).swapaxes(1, 2))


@dataclass(frozen=True)
class Conv:
    """A kernel branch: windowed linear convolution on a 1-D or 2-D grid.

    The kernel has K = ``grid_in + grid_out - 1`` entries per axis; the
    output is the ``grid_out`` window of the full convolution that starts
    ``grid_in - 1`` past the kernel origin.  A 2-D grid (rows, cols) holds
    its flat vector column-stacked, the layout of :func:`conv_grid`.

    ``apply``, ``adjoint`` and ``grad`` all transform ``next_pow2(K)``
    points per axis, not the power of two of the full linear length.  No
    kept entry aliases: with a circular length n >= K, window index w in
    [grid_in-1, K-1] could only pick up linear index w+n >= 2*grid_in +
    grid_out - 2, past the last one, and ``grad``'s full length is K.
    """

    grid_in: tuple[int, ...]
    grid_out: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a + b - 1 for a, b in zip(self.grid_in, self.grid_out))

    def _conv(self, k, x):
        # looked up on this module at call time, so that a wrapper installed
        # here sees every convolution
        n = tuple(next_pow2(s) for s in self.shape)
        if len(n) == 1:
            return conv_full_planes(k.real, k.imag, x.real, x.imag, n[0])
        return conv_full2_planes(k.real, k.imag, x.real, x.imag, n)

    def _windowed(self, k, x, grid, size):
        """k * x for flat x on ``grid``: the ``size`` window that starts
        ``grid - 1`` past the kernel origin on each axis, flat."""
        planes = self._conv(k, _on_grid(x, grid))
        idx = (Ellipsis,) + tuple(slice(a - 1, a - 1 + n) for a, n in zip(grid, size))
        out = [p[idx] if len(size) == 1 else p[idx].swapaxes(1, 2) for p in planes]
        return join_planes(*out).reshape(len(x), -1)

    def apply(self, w: ComplexArray, x):
        return self._windowed(w.z, x, self.grid_in, self.grid_out)

    def adjoint(self, w: ComplexArray, g):
        """The flipped conjugate kernel on the mirrored window.  A kernel
        has far fewer entries than a batch, so here the weight is the cheap
        side to conjugate."""
        flip = (slice(None, None, -1),) * len(self.grid_in)
        return self._windowed(w.z[flip].conj(), g, self.grid_out, self.grid_in)

    def grad(self, g, x):
        """Correlation of the gradient with the conjugate input."""
        flip = (Ellipsis,) + (slice(None, None, -1),) * len(self.grid_in)
        rr, ri = self._conv(_on_grid(g, self.grid_out),
                            np.conj(_on_grid(x, self.grid_in)[flip]))
        return join_planes(rr.sum(axis=0), ri.sum(axis=0))


def branches(arch: str, shape, n_obs: int):
    """(obs_op, inhibit_op): the two branch operators of an ``arch`` layer on
    a spectrum grid ``shape`` observed through ``n_obs`` samples."""
    shape = tuple(int(s) for s in shape)
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    if len(shape) not in (1, 2) or min(shape) < 1 or n_obs < 1:
        raise ValueError(f"grid {shape} with {n_obs} observations is not a problem")
    if arch == "toeplitz1d" and len(shape) != 1:
        raise ValueError("toeplitz1d needs a 1-D problem")
    if arch == "toeplitz2d" and len(shape) != 2:
        raise ValueError("toeplitz2d needs a 2-D problem")
    total = math.prod(shape)
    obs = Conv((n_obs,), (total,)) if arch == "convlista" else Dense(total, n_obs)
    if arch == "lista":
        return obs, Dense(total, total)
    grid = (total,) if len(shape) == 1 else conv_grid(shape)
    return obs, Conv(grid, grid)


def forward_planes(net: UnfoldedNetwork, yr, yi, keep_cache: bool = False):
    """Run the network on batch-major planes (batch, n_obs) -> (batch, M).

    Returns the output's real and imaginary planes and, with ``keep_cache``,
    per layer its complex input spectrum ``"x"`` and pre-threshold
    activation ``"u"``, which the backward pass consumes.
    """
    y = join_planes(yr, yi)
    if y.shape[-1] != net.n_obs:
        raise ValueError(f"observation length {y.shape[-1]}, expected {net.n_obs}")
    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
    x = np.zeros((y.shape[0], net.total), dtype=np.complex128)
    cache = [] if keep_cache else None
    for t, layer in enumerate(net.layers):
        u = obs_op.apply(layer.obs, y)
        if t > 0:
            u += inhibit_op.apply(layer.inhibit, x)
        if keep_cache:
            cache.append({"x": x, "u": u})
        # a zero threshold, where training's clamp often leaves it, is the identity
        theta = layer.threshold
        x = u if theta == 0.0 else join_planes(*soft_threshold_planes(u.real, u.imag, theta))
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
                       net.depth, len(net.shape), net.shape[0],
                       net.shape[1] if len(net.shape) == 2 else 0, net.n_obs)
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
        shape = (d1,) if rank == 1 else (d1, d2)
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
