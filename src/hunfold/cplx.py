"""Complex arrays and the nonlinearities built on them.

Complex data is carried as one numpy ``complex128`` array wrapped in
:class:`ComplexArray`: observations, spectra, dictionaries and learned
weights all live in one, and every complex product is one numpy product
on it.  This module is the only one that knows that storage.  Where a
function still takes or returns a real and an imaginary plane (the
plane-level soft threshold, the FFT convolutions, the networks' forward
pass), :func:`join_planes` turns the pair back into one array.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "ComplexArray",
    "NumericError",
    "PowerIterEstimate",
    "hermitian",
    "join_planes",
    "lipschitz_constant",
    "matvec",
    "soft_threshold",
    "soft_threshold_planes",
]


_TINY = np.finfo(np.float64).tiny


class NumericError(RuntimeError):
    """An operation produced non-finite values."""


class ComplexArray:
    """A complex vector or matrix held as one ``complex128`` array, ``z``.

    ``re`` and ``im`` are views of ``z``.  ``ComplexArray(z)`` wraps a
    complex128 array without copying it (other input is converted);
    ``ComplexArray(re, im)`` builds one from two real planes of one shape.
    Rank is at most 2.  No method mutates ``z``; assigning to ``re``
    or ``im`` writes into it.
    """

    __slots__ = ("z",)

    def __init__(self, re, im=None):
        z = np.asarray(re, dtype=np.complex128) if im is None else join_planes(re, im)
        if z.ndim > 2:
            raise ValueError(f"rank {z.ndim} arrays are not supported (max 2)")
        self.z = z

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape) -> "ComplexArray":
        return cls(np.zeros(shape, dtype=np.complex128))

    @classmethod
    def from_complex(cls, z) -> "ComplexArray":
        """A copy of ``z``."""
        return cls(np.array(z, dtype=np.complex128))

    # -- views and conversions ---------------------------------------------

    @property
    def re(self) -> np.ndarray:
        return self.z.real

    @re.setter
    def re(self, value):
        self.z.real = value

    @property
    def im(self) -> np.ndarray:
        return self.z.imag

    @im.setter
    def im(self, value):
        self.z.imag = value

    @property
    def shape(self):
        return self.z.shape

    @property
    def ndim(self) -> int:
        return self.z.ndim

    def __len__(self) -> int:
        return self.z.shape[0]

    def copy(self) -> "ComplexArray":
        return ComplexArray(self.z.copy())

    def conj(self) -> "ComplexArray":
        return ComplexArray(self.z.conj())

    def to_complex(self) -> np.ndarray:
        """A copy of ``z``."""
        return self.z.copy()

    def abs(self) -> np.ndarray:
        """Element-wise modulus."""
        return np.hypot(self.z.real, self.z.imag)

    def norm(self) -> float:
        """Euclidean norm."""
        return float(np.sqrt(np.sum(self.z.real ** 2) + np.sum(self.z.imag ** 2)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.z)))

    # -- light arithmetic (element-wise, shape-checked) ---------------------

    def __add__(self, other: "ComplexArray") -> "ComplexArray":
        return ComplexArray(self.z + other.z)

    def __sub__(self, other: "ComplexArray") -> "ComplexArray":
        return ComplexArray(self.z - other.z)

    def scale(self, factor: float) -> "ComplexArray":
        return ComplexArray(self.z * factor)

    def __repr__(self) -> str:
        return f"ComplexArray(shape={self.shape})"


def join_planes(re, im) -> np.ndarray:
    """A new complex128 array from a real and an imaginary plane of one shape."""
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    if re.shape != im.shape:
        raise ValueError(f"plane shapes differ: {re.shape} vs {im.shape}")
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def matvec(w: ComplexArray, x: ComplexArray) -> ComplexArray:
    """Complex matrix-vector product."""
    if w.ndim != 2:
        raise ValueError(f"matvec needs a rank-2 matrix, got shape {w.shape}")
    if x.ndim != 1:
        raise ValueError(f"matvec needs a rank-1 vector, got shape {x.shape}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {w.shape} @ {x.shape}")
    return ComplexArray(w.z @ x.z)


def hermitian(a: ComplexArray) -> ComplexArray:
    """Conjugate transpose."""
    if a.ndim != 2:
        raise ValueError("hermitian needs a rank-2 matrix")
    return ComplexArray(np.ascontiguousarray(a.z.T.conj()))


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
    return ComplexArray(*soft_threshold_planes(x.re, x.im, theta))


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
    if not np.any(phi.z):
        raise ValueError("matrix must be nonzero")

    a = phi.z
    m = a.shape[1]
    v = np.ones(m, dtype=np.complex128)
    est = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        w = a @ v
        new_est = np.vdot(w, w).real / np.vdot(v, v).real
        if it > 1 and abs(new_est - est) <= tol * max(new_est, np.finfo(float).tiny):
            est = new_est
            converged = True
            break
        est = new_est
        # next iterate: phi^H (phi v), conjugating the vector, not phi
        g = np.conj(np.conj(w) @ a)
        gnorm = np.sqrt(np.vdot(g, g).real)
        if gnorm == 0.0:
            # start vector fell in the null space; restart from a basis vector
            v = np.zeros(m, dtype=np.complex128)
            v[it % m] = 1.0
            continue
        v = g / gnorm
    return PowerIterEstimate(float(est), converged, it)
