"""Loss, analytic backpropagation and Adam training for unfolded networks.

The loss is the batch NMSE  sum_i ||x_i - xhat_i|| / sum_i ||x_i||  (plain
norms, not squared).  Gradients are computed by a hand-rolled reverse pass
on complex128 batches: the complex soft threshold contributes its exact
Jacobian away from the |u| = theta sphere and a zero subgradient on it,
each branch operator of a layer gives its weight gradient (``grad``), and
the inhibition operator's ``adjoint`` carries the gradient to the layer
before (see :mod:`hunfold.nets`).  Both run on spectra: the forward pass
caches each layer's input and kernel spectra, and the backward pass
transforms a layer's incoming gradient once per branch (once for both
when they transform alike) and uses that spectrum for the weight gradient
and the adjoint alike.  No spectrum outlives its forward/backward pair.
Parameters and their gradients share one flat layout,
:func:`net_param_arrays`: per layer the two complex weights and the 0-d
threshold.  Adam (Kingma & Ba, 2015) steps a complex weight through its
float64 view, one real or imaginary part per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cplx import ComplexArray, NumericError, join_planes
from .harmonic import Dataset
from .nets import Layer, UnfoldedNetwork, branches, forward_planes, place_obs
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
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class TrainReport:
    loss_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    best_epoch: int | None = None


def _batches(ds: Dataset):
    """Column-major dataset -> batch-major (count, dim) observations and
    labels."""
    return np.ascontiguousarray(ds.obs.z.T), np.ascontiguousarray(ds.truth.z.T)


def _row_norms(z):
    return np.sqrt(np.sum(z.real ** 2 + z.imag ** 2, axis=1))


def _nmse_sums(x, t):
    return float(np.sum(_row_norms(x - t))), float(np.sum(_row_norms(t)))


def loss_nmse(net: UnfoldedNetwork, batch: Dataset) -> float:
    """Batch NMSE of the network's recoveries against the labels."""
    if batch.count == 0:
        raise ValueError("empty batch")
    y, t = _batches(batch)
    num = 0.0
    den = 0.0
    for lo in range(0, batch.count, LOSS_CHUNK):
        sl = slice(lo, lo + LOSS_CHUNK)
        xr, xi, _ = forward_planes(net, y[sl].real, y[sl].imag)
        e, r = _nmse_sums(join_planes(xr, xi), t[sl])
        num += e
        den += r
    if den == 0.0:
        raise ValueError("loss undefined: all-zero ground truth batch")
    return num / den


def _soft_threshold_adjoint(g, u, theta):
    """Pull a gradient back through the complex soft threshold at u.

    Returns the gradient on u plus the scalar gradient on theta.  The
    operator is treated as constant zero on the closed ball |u| <= theta,
    so the kink contributes a zero subgradient.
    """
    mag = ComplexArray(u).abs()
    active = mag > theta
    inv = np.where(active, 1.0 / np.where(active, mag, 1.0), 0.0)
    dot = g.real * u.real + g.imag * u.imag    # Re(conj(g) u)
    gtheta = -float(np.sum(np.where(active, dot * inv, 0.0)))
    if theta == 0.0:
        # identity map; gtheta above is the one-sided derivative at zero
        return g.copy(), gtheta
    # g (1 - theta/|u|) + u theta Re(conj(g) u) / |u|^3 on the active set
    return (g * np.where(active, 1.0 - theta * inv, 0.0)
            + u * (theta * inv ** 3 * dot)), gtheta


def backward(net: UnfoldedNetwork, batch: Dataset):
    """Gradients of the batch NMSE wrt every parameter, in
    :func:`net_param_arrays` order, and the loss: ``(grads, loss)``."""
    if batch.count == 0:
        raise ValueError("empty batch")
    y, t = _batches(batch)
    grads, _, _, loss = _backward_planes(net, y.real, y.imag, t.real, t.imag)
    return grads, loss


def _backward_planes(net: UnfoldedNetwork, yr, yi, tr, ti):
    """Parameter gradients (in :func:`net_param_arrays` order), error-norm
    sum, reference-norm sum and loss of one batch given as batch-major
    planes."""
    xr, xi, cache = forward_planes(net, yr, yi, keep_cache=True)
    truth = join_planes(tr, ti)
    err = join_planes(xr, xi) - truth
    per = _row_norms(err)
    den = float(np.sum(_row_norms(truth)))
    if den == 0.0:
        raise ValueError("loss undefined: all-zero ground truth batch")
    loss = float(np.sum(per)) / den
    w = np.where(per > 0.0, 1.0 / (np.where(per > 0.0, per, 1.0) * den), 0.0)
    g = err * w[:, None]

    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
    grads = [None] * (3 * net.depth)
    for t in range(net.depth - 1, -1, -1):
        layer = net.layers[t]
        ctx = cache[t]
        gu, gtheta = _soft_threshold_adjoint(g, ctx["u"], layer.threshold)
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
    return AdamState(0, [np.zeros_like(p.view(np.float64)) for p in params],
                     [np.zeros_like(p.view(np.float64)) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float):
    """Bias-corrected moment update at learning rate ``lr`` applied to every
    float64 coordinate (a complex128 parameter steps through its float64 view).

    Updates ``params`` and ``state`` in place and returns them.  A 0-d
    parameter, in the flat layout a threshold, is projected onto [0, inf)
    after its step.
    """
    if len(params) != len(grads):
        raise ValueError("parameter/gradient lists differ in length")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        p, g = p.view(np.float64), g.view(np.float64)
        m = state.mom1[i]
        v = state.mom2[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if p.ndim == 0:
            np.maximum(p, 0.0, out=p)
    return params, state


# -- parameter flattening ----------------------------------------------------


def net_param_arrays(net: UnfoldedNetwork):
    """Copy a network into a flat list of parameters, three per layer: the
    observation weight, the inhibition weight and the threshold, the only
    0-d entry."""
    return [p.copy() for layer in net.layers
            for p in (layer.obs.z, layer.inhibit.z, np.array(layer.threshold))]


def assemble_network(arch: str, shape, n_obs: int,
                     params: list[np.ndarray]) -> UnfoldedNetwork:
    """Wrap a flat parameter list back into a network (shares the arrays)."""
    layers = [Layer(*place_obs(arch, ComplexArray(params[i])),
                    ComplexArray(params[i + 1]), float(params[i + 2]))
              for i in range(0, len(params), 3)]
    return UnfoldedNetwork(arch, tuple(shape), n_obs, layers)


# -- training loop -----------------------------------------------------------


def train(net: UnfoldedNetwork, train_ds: Dataset, val_ds: Dataset,
          cfg: TrainConfig):
    """Mini-batch Adam on the NMSE loss with plateau-driven LR decay.

    Validation runs once per epoch; the parameters achieving the best
    validation NMSE are returned.  After ``lr_decay_patience`` validation
    checks without improvement the learning rate drops by 10x.  The whole
    procedure is deterministic for a fixed (config, seed).
    """
    if train_ds.obs.shape[0] != net.n_obs or train_ds.truth.shape[0] != net.total:
        raise ValueError("training data dimensions do not match the network")
    if train_ds.count == 0:
        raise ValueError("training set is empty")
    report = TrainReport()
    if cfg.epochs == 0:
        return net, report

    y, truth = _batches(train_ds)
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
            work = assemble_network(net.arch, net.shape, net.n_obs, params)
            try:
                yb, tb = y[idx], truth[idx]
                grads, e_sum, r_sum, loss = _backward_planes(
                    work, yb.real, yb.imag, tb.real, tb.imag)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch}, batch {lo // cfg.batch_size}: {exc}") from exc
            if not np.isfinite(loss):
                raise NumericError(
                    f"epoch {epoch}, batch {lo // cfg.batch_size}: loss diverged")
            adam_step(params, grads, state, lr)
            num += e_sum
            den += r_sum
        report.loss_history.append(num / den)

        work = assemble_network(net.arch, net.shape, net.n_obs, params)
        val = loss_nmse(work, val_ds)
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

    final = assemble_network(net.arch, net.shape, net.n_obs, best_params)
    return final, report


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
