"""Proximal-gradient baselines for the l1-regularised recovery problem

    minimise  0.5 * ||y - phi x||_2^2  +  lam * sum_i |x_i|

over complex spectra, for one observation or a block of B columns side by
side, in ``complex128`` and matrix-free (never the dense Gram).  An ISTA
step takes two complex products: phi^H r, and phi x, whose residual serves
the objective and the next step; FISTA adds the residual at its
extrapolated point.  A step is thresholded by :func:`hunfold.cplx.shrink`
at one threshold per column, the rule the networks' layers apply.  Each
column starts from zero and stops on its own relative objective-change
test or at the iteration budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cplx import _TINY, ComplexArray, NumericError, lipschitz_constant
# cplx.shrink, bound under the name the benchmark tracer (perfbench/tracing.py)
# wraps here; the tracer reports a name it cannot find as absent.
from .cplx import shrink as soft_threshold_planes
from .harmonic import Dictionary, _is_int

__all__ = [
    "SolverConfig",
    "SolverResult",
    "default_lambda",
    "fista",
    "ista",
    "objective",
]

# Power iteration returns a (certified) lower bound on the top eigenvalue;
# a hair of inflation keeps the descent step non-expansive.
_L_SAFETY = 1.0 + 1e-6


@dataclass
class SolverConfig:
    """Solver knobs: penalty weight (a scalar, or one per column of an
    observation block), budget, stopping tolerance."""

    lam: float | np.ndarray
    max_iter: int = 1000
    tol: float = 1e-10
    record_trace: bool = False
    lipschitz: float | None = None

    def __post_init__(self):
        lam = np.array(self.lam, dtype=np.float64)
        if lam.ndim > 1 or lam.size == 0 or not np.all(np.isfinite(lam) & (lam >= 0.0)):
            raise ValueError(f"penalty weight must be a finite scalar or vector "
                             f">= 0, got {self.lam!r}")
        self.lam = float(lam) if lam.ndim == 0 else lam
        if not (_is_int(self.max_iter) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.tol < 0.0:
            raise ValueError("tol must be >= 0")
        if self.lipschitz is not None and not (math.isfinite(self.lipschitz)
                                               and self.lipschitz > 0.0):
            raise ValueError(f"lipschitz must be finite and > 0, got {self.lipschitz!r}")


@dataclass
class SolverResult:
    """A vector solve gives ``x_hat`` (total,), an int and a bool; a block
    solve gives (total, B) and one count, flag and trace entry per column."""

    x_hat: ComplexArray
    iterations_run: int | np.ndarray
    converged: bool | np.ndarray
    lipschitz: float
    objective_trace: list | None = field(default=None)


def objective(d: Dictionary, x: ComplexArray, y: ComplexArray, lam: float) -> float:
    """0.5 * ||y - phi x||^2 + lam * sum of complex moduli."""
    if x.shape != (d.total,) or y.shape != (d.n_obs,):
        raise ValueError(f"shapes {x.shape}/{y.shape} do not fit dictionary "
                         f"({d.n_obs} x {d.total})")
    r = y.z - d.phi.z @ x.z
    return float(0.5 * np.vdot(r, r).real + lam * np.sum(x.abs()))


def default_lambda(d: Dictionary, y: ComplexArray, scale: float = 0.1):
    """Scale-free penalty heuristic: scale * max |(phi^H y)_i|, one value per
    column for a block.  Any scale below 1 keeps the all-zero solution out.
    A weight that overflows raises NumericError."""
    # |phi^H y| = |y^H phi|: the observations are conjugated, not phi
    lam = scale * np.max(np.abs(np.conj(y.z).T @ d.phi.z), axis=-1)
    if not np.isfinite(lam).all():
        raise NumericError("non-finite penalty weight (max |phi^H y| overflows)")
    return float(lam) if y.ndim == 1 else lam


def _half_sq_norms(r: np.ndarray) -> np.ndarray:
    """0.5 * ||r||^2 per column, summed over the float64 view of ``r``."""
    f = r.view(np.float64)
    return 0.5 * np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1)


def _solve(d: Dictionary, y: ComplexArray, cfg: SolverConfig,
           momentum: bool) -> SolverResult:
    """The loop both solvers share.  A column that meets the stop test is
    written out and dropped from the working arrays."""
    if y.ndim not in (1, 2) or y.shape[0] != d.n_obs:
        raise ValueError(f"observation shape {y.shape}, expected ({d.n_obs},) "
                         f"or ({d.n_obs}, B)")
    yc = np.ascontiguousarray(y.z.reshape(d.n_obs, -1))
    n_cols = yc.shape[1]
    if np.ndim(cfg.lam) and len(cfg.lam) != n_cols:
        raise ValueError(f"{len(cfg.lam)} penalty weights for {n_cols} columns")
    lam = np.broadcast_to(cfg.lam, (n_cols,))
    phi = d.phi.z
    phi_h = np.ascontiguousarray(phi.conj().T)
    big_l = (lipschitz_constant(d.phi).value * _L_SAFETY if cfg.lipschitz is None
             else float(cfg.lipschitz))
    thr = lam / big_l
    x_out = np.zeros((d.total, n_cols), dtype=np.complex128)
    iters = np.full(n_cols, cfg.max_iter)
    converged = np.zeros(n_cols, dtype=bool)
    cols = np.arange(n_cols)
    x = z = x_out.copy()
    r = yc                      # residual at the gradient point z
    obj = _half_sq_norms(r)     # no penalty at x = 0
    trace = [obj] if cfg.record_trace else None
    t_mom = 1.0
    for it in range(1, cfg.max_iter + 1):
        v = phi_h @ r
        v /= big_l
        v += z
        x_new = soft_threshold_planes(v, thr)[0]
        r = phi @ x_new
        np.subtract(yc, r, out=r)
        new_obj = _half_sq_norms(r) + lam * np.abs(x_new).sum(axis=0)
        if not np.isfinite(new_obj).all():
            raise NumericError(f"non-finite objective at iteration {it}")
        if trace is not None:
            trace.append(trace[-1].copy())
            trace[-1][cols] = new_obj
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            z = x_new - x
            z *= (t_mom - 1.0) / t_next
            z += x_new
            t_mom = t_next
        else:
            z = x_new
        stop = np.abs(new_obj - obj) <= cfg.tol * np.maximum(obj, _TINY)
        x, obj = x_new, new_obj
        if stop.any():
            x_out[:, cols[stop]] = x[:, stop]
            iters[cols[stop]] = it
            converged[cols[stop]] = True
            # compress keeps the working blocks C-ordered (a[..., ~stop] does not)
            cols, yc, x, z, r, obj, lam, thr = (
                a.compress(~stop, axis=-1) for a in (cols, yc, x, z, r, obj, lam, thr))
            if cols.size == 0:
                break
        if momentum:
            r = phi @ z
            np.subtract(yc, r, out=r)
    x_out[:, cols] = x
    if y.ndim == 1:
        trace = None if trace is None else [float(o[0]) for o in trace]
        return SolverResult(ComplexArray(x_out[:, 0]), int(iters[0]),
                            bool(converged[0]), big_l, trace)
    return SolverResult(ComplexArray(x_out), iters, converged, big_l, trace)


def ista(d: Dictionary, y: ComplexArray, cfg: SolverConfig) -> SolverResult:
    """Iterative shrinkage-thresholding from a zero start.

    Each step moves along phi^H(y - phi x) scaled by 1/L and applies the
    complex soft threshold at lam/L; the objective never increases.
    ``y`` is one observation of shape (n_obs,) or a block (n_obs, B).
    """
    return _solve(d, y, cfg, momentum=False)


def fista(d: Dictionary, y: ComplexArray, cfg: SolverConfig) -> SolverResult:
    """Momentum-accelerated variant sharing the fixed points of :func:`ista`.

    Classical momentum sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 with
    extrapolation weight (t_k - 1) / t_{k+1}; no restarts.
    """
    return _solve(d, y, cfg, momentum=True)
