"""Unfolded shrinkage networks with structured inhibition.

Four architectures share one layer recursion
``x <- soft_threshold(bias(y) + inhibit(x), theta)``:

* ``lista``       dense filter matrix, dense inhibition matrix;
* ``toeplitz1d``  dense filter, inhibition as a length 2M-1 kernel applied
                  by linear convolution;
* ``toeplitz2d``  dense filter, inhibition as a two-axis kernel convolved
                  with the spectrum reshaped onto its (M2, M1) grid;
* ``convlista``   both branches convolutional: the observation feeds a
                  length M+N-1 kernel whose output is cropped to the first
                  M samples of the usual convolution window.

Parameters are untied across layers.  Forward passes never densify a
structured inhibition kernel.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .cplx import ComplexArray, hermitian, lipschitz_constant
from .harmonic import Dictionary
from .spectral import ToeplitzMat2D, ToeplitzVec, conv_full_planes, conv_full2_planes

__all__ = [
    "ARCHS",
    "Layer",
    "UnfoldedNetwork",
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

    ``filt`` is the M x N observation filter (absent for ``convlista``,
    which uses ``filt_kernel`` instead); ``inhibit`` carries the mutual
    inhibition in the architecture's native shape: dense (M, M), a 1-D
    kernel of length 2M-1, or a 2-D kernel of shape (2*g1-1, 2*g2-1).
    """

    filt: ComplexArray | None
    filt_kernel: ComplexArray | None
    inhibit: ComplexArray
    threshold: float

    def __post_init__(self):
        if self.threshold < 0.0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")


@dataclass
class UnfoldedNetwork:
    arch: str
    shape: tuple[int, ...]   # spectrum grid: (M,) or (M1, M2)
    n_obs: int
    layers: list[Layer]

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        self.shape = tuple(int(s) for s in self.shape)

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


def inhibition_shape(arch: str, shape) -> tuple[int, ...]:
    total = int(np.prod(shape))
    if arch == "lista":
        return (total, total)
    if arch == "toeplitz1d" or (arch == "convlista" and len(shape) == 1):
        return (2 * total - 1,)
    g1, g2 = conv_grid(shape)
    return (2 * g1 - 1, 2 * g2 - 1)


def _bias_planes(layer: Layer, arch: str, total: int, yr, yi):
    """Observation branch for a (batch, n) pair of planes -> (batch, M)."""
    if arch == "convlista":
        kr, ki = layer.filt_kernel.re, layer.filt_kernel.im
        n = yr.shape[-1]
        rr, ri = conv_full_planes(kr, ki, yr, yi)
        lo = n - 1
        return rr[..., lo:lo + total], ri[..., lo:lo + total]
    fr, fi = layer.filt.re, layer.filt.im
    return yr @ fr.T - yi @ fi.T, yr @ fi.T + yi @ fr.T


def _inhibit_planes(layer: Layer, net: UnfoldedNetwork, xr, xi):
    """Inhibition branch for (batch, M) planes -> (batch, M)."""
    arch = net.arch
    if arch == "lista":
        wr, wi = layer.inhibit.re, layer.inhibit.im
        return xr @ wr.T - xi @ wi.T, xr @ wi.T + xi @ wr.T
    kr, ki = layer.inhibit.re, layer.inhibit.im
    if kr.ndim == 1:
        m = net.total
        rr, ri = conv_full_planes(kr, ki, xr, xi)
        lo = m - 1
        return rr[..., lo:lo + m], ri[..., lo:lo + m]
    g1, g2 = conv_grid(net.shape)
    b = xr.shape[0]
    # flat index = m1*g1 + m2 with m2 fast: reshape to (m1, m2) then swap
    xr2 = np.ascontiguousarray(xr.reshape(b, g2, g1).swapaxes(1, 2))
    xi2 = np.ascontiguousarray(xi.reshape(b, g2, g1).swapaxes(1, 2))
    rr, ri = conv_full2_planes(kr, ki, xr2, xi2)
    lo1, lo2 = g1 - 1, g2 - 1
    rr = rr[..., lo1:lo1 + g1, lo2:lo2 + g2]
    ri = ri[..., lo1:lo1 + g1, lo2:lo2 + g2]
    return (np.ascontiguousarray(rr.swapaxes(1, 2)).reshape(b, -1),
            np.ascontiguousarray(ri.swapaxes(1, 2)).reshape(b, -1))


def forward_planes(net: UnfoldedNetwork, yr, yi, keep_cache: bool = False):
    """Run the network on batch-major planes (batch, n_obs) -> (batch, M).

    With ``keep_cache`` each layer records its input spectrum and its
    pre-threshold activation, which the backward pass consumes.
    """
    if yr.shape[-1] != net.n_obs:
        raise ValueError(f"observation length {yr.shape[-1]}, expected {net.n_obs}")
    total = net.total
    b = yr.shape[0]
    xr = np.zeros((b, total))
    xi = np.zeros((b, total))
    cache = [] if keep_cache else None
    for t, layer in enumerate(net.layers):
        br, bi = _bias_planes(layer, net.arch, total, yr, yi)
        if t > 0:
            ir, ii = _inhibit_planes(layer, net, xr, xi)
            ur = br + ir
            ui = bi + ii
        else:
            ur, ui = br, bi
        if keep_cache:
            cache.append({"x_r": xr, "x_i": xi, "u_r": ur, "u_i": ui})
        theta = layer.threshold
        if theta == 0.0:
            xr, xi = ur, ui
        else:
            mag = np.hypot(ur, ui)
            scl = 1.0 - theta / np.maximum(mag, theta)
            xr = ur * scl
            xi = ui * scl
        if not (np.all(np.isfinite(xr)) and np.all(np.isfinite(xi))):
            from .cplx import NumericError
            raise NumericError(f"non-finite activation after layer {t}")
    return xr, xi, cache


def forward(net: UnfoldedNetwork, y: ComplexArray, record_layers: bool = False):
    """Recover a spectrum from one observation vector.

    Returns the length-M estimate; with ``record_layers`` also the list of
    per-layer outputs.
    """
    if y.ndim != 1:
        raise ValueError("forward expects a rank-1 observation")
    outputs = []
    xr = np.zeros((1, net.total))
    xi = np.zeros((1, net.total))
    yr = y.re[None, :]
    yi = y.im[None, :]
    if not record_layers:
        xr, xi, _ = forward_planes(net, yr, yi)
        return ComplexArray(xr[0], xi[0])
    # re-run layer by layer to expose intermediate spectra
    total = net.total
    for t, layer in enumerate(net.layers):
        br, bi = _bias_planes(layer, net.arch, total, yr, yi)
        if t > 0:
            ir, ii = _inhibit_planes(layer, net, xr, xi)
            br, bi = br + ir, bi + ii
        theta = layer.threshold
        if theta == 0.0:
            xr, xi = br, bi
        else:
            mag = np.hypot(br, bi)
            scl = 1.0 - theta / np.maximum(mag, theta)
            xr, xi = br * scl, bi * scl
        outputs.append(ComplexArray(xr[0].copy(), xi[0].copy()))
    return outputs[-1], outputs


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
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    if arch == "toeplitz1d" and d.is_2d:
        raise ValueError("toeplitz1d needs a 1-D problem")
    if arch == "toeplitz2d" and not d.is_2d:
        raise ValueError("toeplitz2d needs a 2-D problem")
    if dataset_for_estimate is not None:
        from .training import estimate_dictionary
        phi_hat = estimate_dictionary(dataset_for_estimate)
    else:
        phi_hat = d.phi
    big_l = lipschitz_constant(phi_hat).value
    filt = hermitian(phi_hat).scale(1.0 / big_l)
    theta0 = lam / big_l
    ish = inhibition_shape(arch, d.shape)
    kernel = _toeplitz_project(filt, d.total, d.n_obs) if arch == "convlista" else None
    layers = []
    for _ in range(depth):
        layers.append(Layer(
            filt=None if arch == "convlista" else filt.copy(),
            filt_kernel=kernel.copy() if kernel is not None else None,
            inhibit=ComplexArray.zeros(ish),
            threshold=theta0,
        ))
    return UnfoldedNetwork(arch, d.shape, d.n_obs, layers)


def toeplitz_vec(layer_inhibit: ComplexArray, total: int) -> ToeplitzVec:
    return ToeplitzVec(layer_inhibit, total)


def toeplitz_mat(layer_inhibit: ComplexArray, shape) -> ToeplitzMat2D:
    g1, g2 = conv_grid(shape)
    return ToeplitzMat2D(layer_inhibit, g1, g2)


def param_count(net: UnfoldedNetwork) -> dict:
    """Exact complex-parameter counts, per layer and total.

    The threshold counts as one parameter per layer.
    """
    m, n = net.total, net.n_obs
    if net.arch == "convlista":
        filt = m + n - 1
    else:
        filt = m * n
    inhib = int(np.prod(inhibition_shape(net.arch, net.shape)))
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
            _write_planes(fh, layer.filt_kernel if net.arch == "convlista"
                          else layer.filt)
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
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 28 or buf[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    arch_tag, depth, rank, d1, d2, n_obs = struct.unpack_from("<IIIIII", buf, 4)
    if arch_tag >= len(ARCHS) or rank not in (1, 2):
        raise ValueError(f"{path}: corrupt header")
    arch = ARCHS[arch_tag]
    shape = (d1,) if rank == 1 else (d1, d2)
    total = int(np.prod(shape))
    ish = inhibition_shape(arch, shape)
    obs_count = total + n_obs - 1 if arch == "convlista" else total * n_obs
    want = 28 + depth * (16 * (obs_count + int(np.prod(ish))) + 8)
    if len(buf) != want:
        raise ValueError(f"{path}: file holds {len(buf)} bytes but its header "
                         f"implies {want}")
    off = 28
    layers = []
    for _ in range(depth):
        if arch == "convlista":
            obs, off = _read_planes(buf, off, (total + n_obs - 1,))
            filt, kernel = None, obs
        else:
            obs, off = _read_planes(buf, off, (total, n_obs))
            filt, kernel = obs, None
        inhibit, off = _read_planes(buf, off, ish)
        (theta,) = struct.unpack_from("<d", buf, off)
        off += 8
        layers.append(Layer(filt, kernel, inhibit, theta))
    return UnfoldedNetwork(arch, shape, n_obs, layers)
