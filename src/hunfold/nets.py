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

from .cplx import (ComplexArray, NumericError, hermitian, lipschitz_constant,
                   soft_threshold_planes)
from .harmonic import Dictionary
from .spectral import conv_full_planes, conv_full2_planes

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
# Each maps batch-major planes (batch, n_in) -> (batch, n_out).  ``apply`` is
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

    def apply(self, w: ComplexArray, xr, xi):
        return xr @ w.re.T - xi @ w.im.T, xr @ w.im.T + xi @ w.re.T

    def adjoint(self, w: ComplexArray, gr, gi):
        return gr @ w.re + gi @ w.im, gi @ w.re - gr @ w.im

    def grad(self, gr, gi, xr, xi) -> ComplexArray:
        """Batch sum of g conj(x)^T."""
        return ComplexArray(gr.T @ xr + gi.T @ xi, gi.T @ xr - gr.T @ xi)


def _on_grid(p, grid):
    """Flat (batch, prod(grid)) plane laid column-stacked onto a 2-D grid."""
    if len(grid) == 1:
        return p
    return np.ascontiguousarray(p.reshape(-1, grid[1], grid[0]).swapaxes(1, 2))


@dataclass(frozen=True)
class Conv:
    """A kernel branch: windowed linear convolution on a 1-D or 2-D grid.

    The kernel has ``grid_in + grid_out - 1`` entries per axis; the output
    is the ``grid_out`` window of the full convolution that starts
    ``grid_in - 1`` past the kernel origin.  A 2-D grid (rows, cols) holds
    its flat vector column-stacked, the layout of :func:`conv_grid`.
    """

    grid_in: tuple[int, ...]
    grid_out: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a + b - 1 for a, b in zip(self.grid_in, self.grid_out))

    def _conv(self, kr, ki, xr, xi):
        # looked up on this module at call time, so that a wrapper installed
        # here sees every convolution
        conv = conv_full_planes if len(self.grid_in) == 1 else conv_full2_planes
        return conv(kr, ki, xr, xi)

    def _windowed(self, kr, ki, xr, xi, grid, size):
        """k * x for flat x on ``grid``: the ``size`` window that starts
        ``grid - 1`` past the kernel origin on each axis, flat."""
        full = self._conv(kr, ki, _on_grid(xr, grid), _on_grid(xi, grid))
        idx = (Ellipsis,) + tuple(slice(a - 1, a - 1 + n) for a, n in zip(grid, size))
        out = tuple(p[idx] for p in full)
        if len(size) == 1:
            return out
        return tuple(np.ascontiguousarray(p.swapaxes(1, 2)).reshape(len(p), -1) for p in out)

    def apply(self, w: ComplexArray, xr, xi):
        return self._windowed(w.re, w.im, xr, xi, self.grid_in, self.grid_out)

    def adjoint(self, w: ComplexArray, gr, gi):
        """The flipped conjugate kernel on the mirrored window."""
        flip = (slice(None, None, -1),) * len(self.grid_in)
        return self._windowed(w.re[flip], -w.im[flip], gr, gi, self.grid_out, self.grid_in)

    def grad(self, gr, gi, xr, xi) -> ComplexArray:
        """Correlation of the gradient with the conjugate input."""
        flip = (Ellipsis,) + (slice(None, None, -1),) * len(self.grid_in)
        rr, ri = self._conv(_on_grid(gr, self.grid_out), _on_grid(gi, self.grid_out),
                            _on_grid(xr, self.grid_in)[flip],
                            -_on_grid(xi, self.grid_in)[flip])
        return ComplexArray(rr.sum(axis=0), ri.sum(axis=0))


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

    With ``keep_cache`` each layer records its input spectrum and its
    pre-threshold activation, which the backward pass consumes.
    """
    if yr.shape[-1] != net.n_obs:
        raise ValueError(f"observation length {yr.shape[-1]}, expected {net.n_obs}")
    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
    xr = np.zeros((yr.shape[0], net.total))
    xi = np.zeros((yr.shape[0], net.total))
    cache = [] if keep_cache else None
    for t, layer in enumerate(net.layers):
        ur, ui = obs_op.apply(layer.obs, yr, yi)
        if t > 0:
            ir, ii = inhibit_op.apply(layer.inhibit, xr, xi)
            ur, ui = ur + ir, ui + ii
        if keep_cache:
            cache.append({"x_r": xr, "x_i": xi, "u_r": ur, "u_i": ui})
        # a zero threshold, where training's clamp often leaves it, is the identity
        theta = layer.threshold
        xr, xi = (ur, ui) if theta == 0.0 else soft_threshold_planes(ur, ui, theta)
        if not (np.all(np.isfinite(xr)) and np.all(np.isfinite(xi))):
            raise NumericError(f"non-finite activation after layer {t}")
    return xr, xi, cache


def forward(net: UnfoldedNetwork, y: ComplexArray, record_layers: bool = False):
    """Recover a spectrum from one observation vector.

    Returns the length-M estimate; with ``record_layers`` also the list of
    per-layer outputs.
    """
    if y.ndim != 1:
        raise ValueError("forward expects a rank-1 observation")
    xr, xi, cache = forward_planes(net, y.re[None, :], y.im[None, :],
                                   keep_cache=record_layers)
    final = ComplexArray(xr[0], xi[0])
    if not record_layers:
        return final
    # layer t's output is layer t+1's cached input
    outputs = [ComplexArray(c["x_r"][0], c["x_i"][0]) for c in cache[1:]]
    return final, outputs + [final]


def _toeplitz_project(filt: ComplexArray, total: int, n_obs: int) -> ComplexArray:
    """Closest (per-diagonal mean) rectangular-Toeplitz kernel to a matrix."""
    kr = np.empty(total + n_obs - 1)
    ki = np.empty(total + n_obs - 1)
    for p in range(total + n_obs - 1):
        off = n_obs - 1 - p
        kr[p] = np.mean(np.diagonal(filt.re, offset=off))
        ki[p] = np.mean(np.diagonal(filt.im, offset=off))
    return ComplexArray(kr, ki)


def init_network(arch: str, d: Dictionary, depth: int, lam: float,
                 dataset_for_estimate=None) -> UnfoldedNetwork:
    """Starting point for training.

    Every layer gets the filter (1/L) phi_hat^H, an all-zero inhibition
    kernel and threshold lam / L, where L estimates the top eigenvalue of
    the Gram operator.  When a dataset is supplied, phi_hat is the
    least-squares dictionary estimate from its labelled pairs; otherwise
    the true operator is used.  The convolutional baseline cannot start
    from a zero observation kernel (its gradient would vanish), so it gets
    the per-diagonal mean of the same filter instead.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if lam < 0.0:
        raise ValueError("penalty weight must be >= 0")
    _, inhibit_op = branches(arch, d.shape, d.n_obs)
    if dataset_for_estimate is not None:
        from .training import estimate_dictionary
        phi_hat = estimate_dictionary(dataset_for_estimate)
    else:
        phi_hat = d.phi
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
    re = np.frombuffer(buf, dtype="<f8", count=cnt, offset=off).reshape(shape).copy()
    off += cnt * 8
    im = np.frombuffer(buf, dtype="<f8", count=cnt, offset=off).reshape(shape).copy()
    off += cnt * 8
    return ComplexArray(re, im), off


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
