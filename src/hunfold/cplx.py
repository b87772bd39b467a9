"""Split-plane complex arrays and the nonlinearities built on them.

Complex data is carried as two float64 planes (real and imaginary).  This
is the storage format shared by the spectral kernels, the iterative
solvers and the unfolded networks: observations, spectra, dictionaries and
learned weights all live in :class:`ComplexArray`.  The helpers here spell
a complex product out as its four real cross-coupled products; the
convolutions and the solvers instead join the planes into numpy
``complex128`` and take one complex product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "ComplexArray",
    "NumericError",
    "PowerIterEstimate",
    "hermitian",
    "lipschitz_constant",
    "matmat",
    "matvec",
    "soft_threshold",
    "soft_threshold_planes",
]


_TINY = np.finfo(np.float64).tiny


class NumericError(RuntimeError):
    """An operation produced non-finite values."""


class ComplexArray:
    """A complex vector or matrix stored as separate float64 planes.

    Both planes always share one shape; rank is at most 2.  Values are
    treated as immutable once constructed (no method mutates the planes),
    so instances are safe to share across concurrent readers.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        re = np.asarray(re, dtype=np.float64)
        if im is None:
            im = np.zeros_like(re)
        else:
            im = np.asarray(im, dtype=np.float64)
        if re.shape != im.shape:
            raise ValueError(f"plane shapes differ: {re.shape} vs {im.shape}")
        if re.ndim > 2:
            raise ValueError(f"rank {re.ndim} arrays are not supported (max 2)")
        self.re = re
        self.im = im

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape) -> "ComplexArray":
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def from_complex(cls, z) -> "ComplexArray":
        z = np.asarray(z, dtype=np.complex128)
        return cls(z.real.copy(), z.imag.copy())

    # -- views and conversions ---------------------------------------------

    @property
    def shape(self):
        return self.re.shape

    @property
    def ndim(self) -> int:
        return self.re.ndim

    def __len__(self) -> int:
        return self.re.shape[0]

    def copy(self) -> "ComplexArray":
        return ComplexArray(self.re.copy(), self.im.copy())

    def conj(self) -> "ComplexArray":
        return ComplexArray(self.re.copy(), -self.im)

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    def abs(self) -> np.ndarray:
        """Element-wise modulus."""
        return np.hypot(self.re, self.im)

    def norm(self) -> float:
        """Euclidean norm over both planes."""
        return float(np.sqrt(np.sum(self.re * self.re) + np.sum(self.im * self.im)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.re)) and np.all(np.isfinite(self.im)))

    # -- light arithmetic (element-wise, shape-checked) ---------------------

    def __add__(self, other: "ComplexArray") -> "ComplexArray":
        return ComplexArray(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexArray") -> "ComplexArray":
        return ComplexArray(self.re - other.re, self.im - other.im)

    def scale(self, factor: float) -> "ComplexArray":
        return ComplexArray(self.re * factor, self.im * factor)

    def __repr__(self) -> str:
        return f"ComplexArray(shape={self.shape})"


def matvec(w: ComplexArray, x: ComplexArray) -> ComplexArray:
    """Complex matrix-vector product through four real products.

    With w = A + jB and x = u + jv the result is (Au - Bv) + j(Av + Bu),
    the two cross-coupled real channels of a complex multiply.
    """
    if w.ndim != 2:
        raise ValueError(f"matvec needs a rank-2 matrix, got shape {w.shape}")
    if x.ndim != 1:
        raise ValueError(f"matvec needs a rank-1 vector, got shape {x.shape}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {w.shape} @ {x.shape}")
    re = w.re @ x.re - w.im @ x.im
    im = w.re @ x.im + w.im @ x.re
    return ComplexArray(re, im)


def matmat(a: ComplexArray, b: ComplexArray) -> ComplexArray:
    """Complex matrix-matrix product (same four-product expansion)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    re = a.re @ b.re - a.im @ b.im
    im = a.re @ b.im + a.im @ b.re
    return ComplexArray(re, im)


def hermitian(a: ComplexArray) -> ComplexArray:
    """Conjugate transpose."""
    if a.ndim != 2:
        raise ValueError("hermitian needs a rank-2 matrix")
    return ComplexArray(a.re.T.copy(), -a.im.T)


def soft_threshold_planes(re, im, theta):
    """Plane-level complex soft threshold; see :func:`soft_threshold`.

    ``theta`` is a scalar or an array that broadcasts over the last axis,
    e.g. one threshold per column of an ``(n, B)`` block.  Entries whose
    threshold is zero come back unchanged.
    """
    mag = np.hypot(re, im)
    # max(|x|, theta) in the denominator sends everything with |x| <= theta
    # to exactly zero, including the |x| == theta boundary.  The floor at
    # the smallest normal float keeps a zero threshold from dividing 0 by 0:
    # its quotient is 0 and its entries keep their value.
    scale = 1.0 - theta / np.maximum(mag, np.maximum(theta, _TINY))
    return re * scale, im * scale


def soft_threshold(x: ComplexArray, theta: float) -> ComplexArray:
    """Complex soft threshold: shrink the modulus by theta, keep the phase.

    Entries with modulus at most theta map to exactly zero; the others keep
    their phase and lose theta of magnitude.
    """
    theta = float(theta)
    if not np.isfinite(theta) or theta < 0.0:
        raise ValueError(f"threshold must be finite and >= 0, got {theta}")
    re, im = soft_threshold_planes(x.re, x.im, theta)
    return ComplexArray(re, im)


class PowerIterEstimate(NamedTuple):
    """Largest-eigenvalue estimate with its convergence status."""

    value: float
    converged: bool
    iterations: int


def lipschitz_constant(phi: ComplexArray, tol: float = 1e-8,
                       max_iter: int = 500) -> PowerIterEstimate:
    """Largest eigenvalue of phi^H phi by power iteration.

    Runs power iteration on the Gram operator (applied matrix-free as two
    products with phi) from a fixed all-ones start vector.  The returned
    value is a Rayleigh quotient, hence never exceeds the true maximum
    eigenvalue; at convergence it is within relative ``tol`` of it.  When
    ``max_iter`` is exhausted first, the best estimate is returned with
    ``converged=False``.
    """
    if phi.ndim != 2:
        raise ValueError("lipschitz_constant needs a rank-2 matrix")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    scale = max(np.max(np.abs(phi.re)), np.max(np.abs(phi.im)))
    if scale == 0.0:
        raise ValueError("matrix must be nonzero")

    m = phi.shape[1]
    vr = np.ones(m)
    vi = np.zeros(m)
    est = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        wr = phi.re @ vr - phi.im @ vi
        wi = phi.re @ vi + phi.im @ vr
        vnorm2 = vr @ vr + vi @ vi
        new_est = (wr @ wr + wi @ wi) / vnorm2
        if it > 1 and abs(new_est - est) <= tol * max(new_est, np.finfo(float).tiny):
            est = new_est
            converged = True
            break
        est = new_est
        # next iterate: phi^H (phi v)
        gr = phi.re.T @ wr + phi.im.T @ wi
        gi = phi.re.T @ wi - phi.im.T @ wr
        gnorm = np.sqrt(gr @ gr + gi @ gi)
        if gnorm == 0.0:
            # start vector fell in the null space; restart from a basis vector
            vr = np.zeros(m)
            vi = np.zeros(m)
            vr[it % m] = 1.0
            continue
        vr = gr / gnorm
        vi = gi / gnorm
    return PowerIterEstimate(float(est), converged, it)
