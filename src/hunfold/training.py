"""Loss, analytic backpropagation and Adam training for unfolded networks.

The loss is the batch NMSE  sum_i ||x_i - xhat_i|| / sum_i ||x_i||  (plain
norms, not squared).  Gradients are computed by a hand-rolled reverse pass
on complex128 batches: the complex soft threshold contributes its exact
Jacobian away from the |u| = theta sphere and a zero subgradient on it,
each branch operator of a layer gives its weight gradient (``grad``), and
the inhibition operator's ``adjoint`` carries the gradient to the layer
before (see :mod:`hunfold.nets`); both operators are the network's own
``net.ops``, built once with it, each taken through
:func:`~hunfold.nets.route` at the batch's row count, as the forward pass
takes them.  The forward pass caches each layer's
pre-threshold activation with its modulus (``"u"``, ``"mag"``), so the
threshold's adjoint computes no modulus again.  The branches run on
spectra: the forward pass caches each layer's input and kernel spectra
(``"xh"``, ``"kh"``, ``"yh"``), and the backward pass
transforms a layer's incoming gradient once per branch (once for both
when they transform alike) and uses that spectrum for the weight gradient
and the adjoint alike.  No spectrum outlives its forward/backward pair.
Parameters and their gradients share one flat layout, :func:`net_param_arrays`:
per layer the two complex weights (``filt``, ``inhibit``) and the 0-d threshold
that the network holds.  Adam (Kingma & Ba, 2015) steps these arrays in
place, a complex weight through its float64 view, one real or imaginary part
per coordinate, with every temporary in two work buffers per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cplx import _TINY, ComplexArray, NumericError, _check_int, join_planes, shrink_factor
from .harmonic import Dataset
from .nets import Layer, UnfoldedNetwork, check_model, forward_planes, route
# Not called here: every transform runs inside the nets operators.  The
# names stay bound because the benchmark tracer (perfbench/tracing.py) wraps
# them on this module as well and reports a name it cannot find as absent.
from .spectral import conv_full_planes, conv_full2_planes  # noqa: F401

__all__ = [
    "AdamState",
    "TrainConfig",
    "TrainReport",
    "adam_step",
    "backward",
    "estimate_dictionary",
    "init_adam_state",
    "loss_nmse",
    "train",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's constants
LOSS_CHUNK = 2048   # rows per forward pass in loss_nmse
_UNDEFINED_LOSS = "every truth spectrum of the batch is zero, so its NMSE loss is undefined"


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    lr_decay_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name, low in (("batch_size", 1), ("epochs", 0), ("lr_decay_patience", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    best_epoch: int | None = None


def _batches(net: UnfoldedNetwork, ds: Dataset, name: str = "the data"):
    """Column-major dataset -> batch-major (count, dim) observations and
    labels of a set that serves ``net``.  A ValueError naming the set
    (``name``) refuses one with no samples, one whose ``meta`` (``shape``,
    ``omega``) :func:`~hunfold.nets.check_model` refuses, matrices of
    another ``n_obs`` or cell count, or only zero truth spectra."""
    if ds.count == 0:
        raise ValueError(f"{name} holds no samples")
    sampling = ds.sampling
    if sampling is not None:
        check_model(None, net, ds.meta.get("shape", net.shape), sampling, name)
    (n_obs, _), (total, _) = ds.obs.shape, ds.truth.shape
    if (n_obs, total) != (net.n_obs, net.total):
        raise ValueError(f"model is for {net.n_obs} observations of {net.total} cells, "
                         f"{name} holds {n_obs} observations of {total} cells")
    if not ds.truth.z.any():
        raise ValueError(f"every truth spectrum of {name} is zero, so its NMSE loss is undefined")
    return np.ascontiguousarray(ds.obs.z.T), np.ascontiguousarray(ds.truth.z.T)


def _row_norms(z):
    return np.sqrt(np.sum(z.real ** 2 + z.imag ** 2, axis=1))


def _nmse_sums(x, t):
    return float(np.sum(_row_norms(x - t))), float(np.sum(_row_norms(t)))


def loss_nmse(net: UnfoldedNetwork, batch: Dataset) -> float:
    """Batch NMSE of the network's recoveries against the labels, of a set
    that :func:`_batches` passes for ``net`` (named "the data")."""
    y, t = _batches(net, batch)
    num = 0.0
    den = 0.0
    for lo in range(0, batch.count, LOSS_CHUNK):
        sl = slice(lo, lo + LOSS_CHUNK)
        xr, xi, _ = forward_planes(net, y[sl].real, y[sl].imag)
        e, r = _nmse_sums(join_planes(xr, xi), t[sl])
        num += e
        den += r
    if den == 0.0:
        raise ValueError(_UNDEFINED_LOSS)
    return num / den


def _soft_threshold_adjoint(g, u, mag, theta):
    """Pull a gradient back through the complex soft threshold at u, whose
    modulus ``mag`` the forward pass kept.

    Returns the gradient on u plus the scalar gradient on theta.  The
    operator is treated as constant zero on the closed ball |u| <= theta,
    so the kink contributes a zero subgradient.
    """
    active = mag > theta
    # 1/|u| on the active set, 0 off it; the floor keeps |u| = 0 finite
    inv = np.maximum(mag, _TINY)
    np.divide(1.0, inv, out=inv)
    inv *= active
    dot = np.multiply(g.real, u.real)
    dot += g.imag * u.imag      # Re(conj(g) u)
    dot *= inv
    gtheta = -float(np.sum(dot))
    if theta == 0.0:
        # identity map; gtheta above is the one-sided derivative at zero
        return g.copy(), gtheta
    # g (1 - theta/|u|) + u theta Re(conj(g) u) / |u|^3 on the active set;
    # the forward pass's factor is exactly 0 off it
    dot *= inv
    dot *= inv
    dot *= theta
    gu = g * shrink_factor(mag, theta)
    gu += u * dot
    return gu, gtheta


def backward(net: UnfoldedNetwork, batch: Dataset):
    """Gradients of the batch NMSE wrt every parameter, in
    :func:`net_param_arrays` order, and the loss: ``(grads, loss)``, of a
    set that :func:`_batches` passes for ``net`` (named "the data")."""
    grads, _, _, loss = _backward_planes(net, *_batches(net, batch))
    return grads, loss


def _backward_planes(net: UnfoldedNetwork, y, truth):
    """Parameter gradients (in :func:`net_param_arrays` order), error-norm
    sum, reference-norm sum and loss of one batch: complex batch-major
    observations ``y`` (batch, n_obs) and labels ``truth`` (batch, M)."""
    xr, xi, cache = forward_planes(net, y.real, y.imag, keep_cache=True)
    err = join_planes(xr, xi) - truth
    per = _row_norms(err)
    den = float(np.sum(_row_norms(truth)))
    if den == 0.0:
        raise ValueError(_UNDEFINED_LOSS)
    loss = float(np.sum(per)) / den
    w = np.where(per > 0.0, 1.0 / (np.where(per > 0.0, per, 1.0) * den), 0.0)
    g = err * w[:, None]

    obs_op, inhibit_op = (route(op, len(y)) for op in net.ops)
    grads = [None] * (3 * net.depth)
    for t in range(net.depth - 1, -1, -1):
        layer = net.layers[t]
        ctx = cache[t]
        gu, gtheta = _soft_threshold_adjoint(g, ctx["u"], ctx["mag"], layer.threshold)
        gh = obs_op.out_spectrum(gu)
        gobs = obs_op.grad_hat(gh, ctx["yh"])
        if t == 0:
            # layer 0 sees the zero spectrum: no inhibition gradient
            ginhib = np.zeros(inhibit_op.shape, dtype=np.complex128)
        else:
            # gu's spectrum serves both branches when they transform alike
            if inhibit_op.out_transform != obs_op.out_transform:
                gh = inhibit_op.out_spectrum(gu)
            ginhib = inhibit_op.grad_hat(gh, ctx["xh"])
            g = inhibit_op.adjoint_hat(ctx["kh"], gh)
        grads[3 * t:3 * t + 3] = gobs, ginhib, np.array(gtheta)

    return grads, float(np.sum(per)), den, loss


# -- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    step: int
    mom1: list[np.ndarray]
    mom2: list[np.ndarray]


def init_adam_state(params: list[np.ndarray]) -> AdamState:
    return AdamState(0, [np.zeros(p.view(np.float64).shape) for p in params],
                     [np.zeros(p.view(np.float64).shape) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float):
    """Bias-corrected moment update at learning rate ``lr`` applied to every
    float64 coordinate (a complex128 parameter steps through its float64 view).

    Updates ``params`` and ``state`` in place and returns them.  A 0-d
    parameter, in the flat layout a threshold, is projected onto [0, inf)
    after its step.  Every parameter steps through the same two work
    buffers, each as long as the largest parameter's float64 view, by
    ``m += (1-b1) g``, ``v += ((1-b2) g) g`` and ``p -= lr (m/c1) /
    (sqrt(v/c2) + eps)``, operation by operation.  The buffers live for one
    call: kept in the state for the whole run, they raised paper-scale peak
    RSS in every benchmark pair (CHANGES.md).
    """
    if len(params) != len(grads):
        raise ValueError("parameter/gradient lists differ in length")
    size = max((p.nbytes // 8 for p in params), default=0)
    scratch = (np.empty(size), np.empty(size))
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        p, g = p.view(np.float64), g.view(np.float64)
        m = state.mom1[i]
        v = state.mom2[i]
        step, den = (buf[:p.size].reshape(p.shape) for buf in scratch)
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=step)
        step *= g
        v += step
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        p -= step
        if p.ndim == 0:
            np.maximum(p, 0.0, out=p)
    return params, state


# -- parameter flattening ----------------------------------------------------


def net_param_arrays(net: UnfoldedNetwork):
    """The arrays a network holds, not copies, three per layer: the observation
    weight, the inhibition weight and the threshold, the only 0-d entry."""
    return [p for layer in net.layers
            for p in (layer.filt.z, layer.inhibit.z, layer.threshold)]


# -- training loop -----------------------------------------------------------


def train(net: UnfoldedNetwork, train_ds: Dataset, val_ds: Dataset,
          cfg: TrainConfig):
    """Mini-batch Adam on the NMSE loss with plateau-driven LR decay.

    Validation runs once per epoch; a copy of ``net`` (``net`` itself if no
    epoch runs) holding the parameters of the best validation NMSE is returned.
    After ``lr_decay_patience`` validation checks without improvement the
    learning rate drops by 10x.  Deterministic for a fixed (config, seed).
    Both sets pass :func:`_batches` ("the training data", "the validation data") first.
    """
    y, truth = _batches(net, train_ds, "the training data")
    _batches(net, val_ds, "the validation data")
    report = TrainReport()
    if cfg.epochs == 0:
        return net, report

    # each layer's arrays copied on their own: layers sharing one train untied
    net = UnfoldedNetwork(net.arch, net.shape, net.n_obs, [
        Layer(layer.filt.copy(), None, layer.inhibit.copy(), layer.threshold)
        for layer in net.layers], net.sampling)
    params = net_param_arrays(net)
    state = init_adam_state(params)
    rng = np.random.default_rng(cfg.seed)
    count = train_ds.count
    lr = cfg.learning_rate
    best_val = np.inf
    best_params = [p.copy() for p in params]
    stalled = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(count)
        num = 0.0
        den = 0.0
        for lo in range(0, count, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            try:
                grads, e_sum, r_sum, loss = _backward_planes(net, y[idx], truth[idx])
            except (NumericError, ValueError) as exc:   # ValueError: zero truth only
                raise type(exc)(
                    f"epoch {epoch}, batch {lo // cfg.batch_size}: {exc}") from exc
            if not np.isfinite(loss):
                raise NumericError(
                    f"epoch {epoch}, batch {lo // cfg.batch_size}: loss diverged")
            adam_step(params, grads, state, lr)
            num += e_sum
            den += r_sum
        report.loss_history.append(num / den)

        val = loss_nmse(net, val_ds)
        report.val_history.append(val)
        if val < best_val:
            best_val = val
            best_params = [p.copy() for p in params]
            report.best_epoch = epoch
            stalled = 0
        else:
            stalled += 1
            if stalled >= cfg.lr_decay_patience:
                lr *= 0.1
                stalled = 0

    # hand over the best epoch's saved arrays, not a copy-back into the working
    # ones: freeing the newest allocation instead doubled paper-scale minor page
    # faults and made training 0.7x as fast (2-core VM, numpy 2.4.6)
    for layer, obs, inhibit, theta in zip(net.layers, *(best_params[i::3] for i in range(3))):
        layer.filt, layer.inhibit = ComplexArray(obs), ComplexArray(inhibit)
        layer.threshold = theta
    return net, report


# -- dictionary estimation ---------------------------------------------------


def estimate_dictionary(ds: Dataset) -> ComplexArray:
    """Least-squares operator estimate from labelled pairs.

    Solves  min ||Y - A X||_F  through the normal equations
    A = Y X^H (X X^H)^{-1}, with a vanishing ridge for numerical safety.
    Needs at least as many samples as grid cells and a full-rank label
    matrix.
    """
    x = ds.truth.z
    y = ds.obs.z
    m = x.shape[0]
    if ds.count < m:
        raise ValueError(f"need at least {m} samples to estimate, got {ds.count}")
    g = x @ x.conj().T
    b = y @ x.conj().T
    evals = np.linalg.eigvalsh(g)
    if evals[-1] <= 0.0 or evals[0] <= 1e-12 * evals[-1]:
        raise ValueError("label matrix is rank deficient; cannot estimate")
    ridge = 1e-10 * np.trace(g).real / m
    g += ridge * np.eye(m)
    return ComplexArray(np.ascontiguousarray(np.linalg.solve(g.T, b.T).T))
