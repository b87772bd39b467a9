"""Sensing-model construction and synthetic data for harmonic retrieval.

A one-dimensional problem observes a K-sparse length-M spectrum through N
rows of the unnormalised M x M Fourier matrix, the rows picked by a random
index set.  The two-dimensional analogue observes an (M1, M2) grid through
rows of the Kronecker product of the two per-axis Fourier matrices.

Grid cells are numbered in numpy's C order, the last axis fastest: cell
(m1, m2) has flat index ``m1*M2 + m2``, matching the Kronecker column
order.  The Gram matrix is Toeplitz on that grid (Hermitian Toeplitz in
1-D, doubly-block Toeplitz in 2-D with the in-block axis running over
m2), and :func:`gram_generator` returns its
:class:`~hunfold.spectral.Toeplitz` generator there, of shape ``(2*M1-1,
2*M2-1)`` in 2-D.  The dictionary, the Gram generator and off-grid
observations are each built by one loop over the axes of
``np.unravel_index(omega, shape)``.

Every Fourier entry ``exp(+-j 2 pi r c / M_a)`` of an axis is read from one
table of the M_a roots of unity at its phase reduced mod M_a, the index
``(r*c) mod M_a`` taken in integers (:func:`_roots`).  No phase reaches
2 pi, so an entry is within about an ulp of the exact root whatever the
grid size, and the rows of a 1-D dictionary are orthogonal to rounding.

Dictionaries, spectra and observations are complex128 arrays
(:class:`~hunfold.cplx.ComplexArray`).  A :class:`Dictionary` multiplies
two ways.  Its ``phi``, built on first use, gives one complex matrix
product; instances and datasets are drawn through it.  Its
:meth:`~Dictionary.apply` and :meth:`~Dictionary.adjoint` give the same
products by an unnormalised FFT on the grid, in O(M) memory, and
:attr:`~Dictionary.matrix_free` says which of the two is faster: the FFT
once ``phi`` would hold more than ``MATRIX_FREE_ENTRIES`` entries.  A
complex Gaussian draw takes all its real
parts from the generator stream before its imaginary parts
(:func:`gaussian`).  Instances and datasets are drawn a block at a time by
one routine, each column from its own seed's stream (:func:`_draw`), and
:func:`sparse_from_rng` draws one spectrum by the same rule from a caller's
generator.  ``HUD1`` dataset files hold the complex matrices as row-major
(re, im) float64 pairs, which is little-endian complex128.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cplx import ComplexArray, _all_finite, _check_int, _is_int
from .spectral import Toeplitz

__all__ = [
    "Dataset",
    "Dictionary",
    "SamplingSet",
    "SparseInstance",
    "build_dictionary",
    "db_to_sigma2",
    "draw_sampling",
    "fourier_matrix",
    "gen_dataset",
    "gram",
    "gram_generator",
    "make_instance",
    "read_dataset",
    "read_sidecar",
    "sparse_from_rng",
    "synth_offgrid",
    "write_dataset",
]

DATASET_MAGIC = b"HUD1"

# Noise powers quoted in dB throughout the package mean 10*log10(sigma2),
# with unit-power (E|a|^2 = 1) component amplitudes as the reference.
NOISE_DB_CONVENTION = "noise_power_db = 10*log10(sigma2); amplitudes unit power"


def _roots(m: int, rows, cols, sign: int = 1) -> np.ndarray:
    """``exp(sign j 2 pi r c / m)`` for every ``r`` in ``rows`` (axis 0) and
    ``c`` in ``cols`` (axis 1), read from the table of the m roots of unity
    at ``(r*c) mod m``, computed in integers: no phase reaches 2 pi."""
    t = np.multiply.outer(np.asarray(rows, dtype=np.int64),
                          np.asarray(cols, dtype=np.int64))
    np.remainder(t, m, out=t)
    return np.exp(1j * (sign * 2.0 * np.pi / m * np.arange(m)))[t]


def fourier_matrix(m: int) -> ComplexArray:
    """Unnormalised M x M Fourier matrix with entry exp(+j 2 pi i m / M)."""
    if m < 1:
        raise ValueError(f"matrix order must be >= 1, got {m}")
    return ComplexArray(_roots(m, np.arange(m), np.arange(m)))


@dataclass(frozen=True)
class SamplingSet:
    """Observed indices into the full grid, a 1-D integer array or a list of
    integers (not bools), strictly ascending and >= 0, kept as int64, and the
    integer seed >= 0 they were drawn from.  The one check of a sampling set:
    every file that carries one is read through it."""

    omega: np.ndarray
    seed: int

    def __post_init__(self):
        om = self.omega
        if isinstance(om, list) and all(map(_is_int, om)):
            try:
                om = np.array(om, dtype=np.int64)
            except OverflowError:
                om = None
        if not (isinstance(om, np.ndarray) and om.ndim == 1 and om.dtype.kind in "iu"):
            raise ValueError("sampling indices must be a 1-D list or array of integers")
        om = om.astype(np.int64, copy=False)
        object.__setattr__(self, "omega", om)
        if om.size and (np.any(np.diff(om) <= 0) or om[0] < 0):
            raise ValueError("sampling indices must be strictly ascending and >= 0")
        _check_int("sampling seed", self.seed)

    @property
    def count(self) -> int:
        return int(self.omega.size)

    def fit(self, total: int, count: int | None = None) -> "SamplingSet":
        """The set if it holds ``count`` indices (None: any number), all below
        ``total``, its grid's cell count, else a ValueError: the one such check."""
        top = int(self.omega.max(initial=0))
        if top >= total or (count is not None and count != self.count):
            need = "" if count is None else f"n_obs = {count} on "
            raise ValueError(f"sampling set of {self.count} indices up to {top} "
                             f"does not fit {need}a grid of {total}")
        return self

    def record(self) -> dict:
        """The set as the ``omega`` and ``sampling_seed`` keys of a sidecar."""
        return {"omega": self.omega.tolist(), "sampling_seed": int(self.seed)}


def draw_sampling(total: int, n: int, seed: int) -> SamplingSet:
    """Draw n distinct indices uniformly from {0, ..., total-1}."""
    if _check_int("n", n) > total:
        raise ValueError(f"cannot draw {n} distinct indices from {total}")
    rng = np.random.default_rng(_check_int("seed", seed))
    omega = np.sort(rng.choice(total, size=n, replace=False).astype(np.int64))
    return SamplingSet(omega, seed)


# The matrix-free route's crossover.  A dictionary whose phi would hold more
# than MATRIX_FREE_ENTRIES = n_obs * total entries is applied by FFT on its
# grid (Dictionary.apply and .adjoint), a smaller one as phi.  Measured at two
# BLAS threads per ISTA iteration (table in CHANGES.md), the FFT route ran at
# 0.35-0.72x the dense one up to 16k entries and 0.68-1.36x at 32k; from 65k
# entries (16x16, N=256) up it ran 0.97-2.8x, from 262k 1.5-6.8x.  The bound
# keeps criterion 4, the desk grids and the M=512, N=64 sweeps (32k) dense.
MATRIX_FREE_ENTRIES = 48 * 1024


@dataclass(frozen=True)
class Dictionary:
    """Partial Fourier (1-D) or partial Kronecker-Fourier (2-D) operator.

    ``shape`` is (M,) or (M1, M2); ``phi`` holds the N selected rows, built
    on first use.  :meth:`apply` and :meth:`adjoint` compute its products
    without it, by FFT on the grid; :attr:`matrix_free` says which of the
    two a solver should take.
    """

    shape: tuple[int, ...]
    sampling: SamplingSet

    @property
    def total(self) -> int:
        return math.prod(self.shape)

    @property
    def n_obs(self) -> int:
        return self.sampling.count

    @property
    def matrix_free(self) -> bool:
        """Whether phi is above ``MATRIX_FREE_ENTRIES``, where the FFT
        products measured faster than the dense ones."""
        return self.n_obs * self.total > MATRIX_FREE_ENTRIES

    @functools.cached_property
    def phi(self) -> ComplexArray:
        """The selected rows without the full square matrix.

        A row is the Kronecker product of one row of each axis's Fourier
        matrix, the row ``i_a`` with phase ``(2 pi / M_a) * (i_a * j_a mod
        M_a)`` at column ``j_a`` (see :func:`_roots`).
        """
        rows = [_roots(m, i, np.arange(m))
                for i, m in zip(np.unravel_index(self.sampling.omega, self.shape), self.shape)]
        return ComplexArray(functools.reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(
            self.n_obs, a.shape[1] * b.shape[1]), rows))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``phi x`` of a (total,) vector or (total, B) block: the
        unnormalised inverse DFT of each column on the grid, read at the
        sampled cells."""
        grid = np.fft.ifftn(x.reshape(*self.shape, -1), axes=self._axes, norm="forward")
        return grid.reshape(self.total, -1)[self.sampling.omega].reshape(self.n_obs, *x.shape[1:])

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """``phi^H r`` of an (n_obs,) vector or (n_obs, B) block: the DFT on
        the grid of each column, zero-filled off the sampled cells."""
        grid = np.zeros((self.total, *r.shape[1:]), dtype=np.complex128)
        grid[self.sampling.omega] = r
        return np.fft.fftn(grid.reshape(*self.shape, -1), axes=self._axes).reshape(grid.shape)

    @property
    def _axes(self) -> tuple[int, ...]:
        return tuple(range(len(self.shape)))


def _grid_shape(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of ints, each size an integer >= 1
    (:func:`~hunfold.cplx._check_int`), else a ValueError naming the size:
    M in 1-D, M1, M2, ... otherwise."""
    shape = tuple(shape)
    names = ["M"] if len(shape) == 1 else [f"M{a}" for a in range(1, len(shape) + 1)]
    return tuple(int(_check_int(f"grid size {name}", s, 1)) for name, s in zip(names, shape))


def build_dictionary(shape, sampling: SamplingSet) -> Dictionary:
    """The operator of ``sampling`` on the grid ``shape``, (M,) or (M1, M2),
    each size an integer >= 1.  Nothing grid-sized is built here: ``phi``
    waits for its first use."""
    shape = tuple(shape)
    if len(shape) not in (1, 2):
        raise ValueError(f"grid shape must be (M,) or (M1, M2), got {shape}")
    shape = _grid_shape(shape)
    sampling.fit(math.prod(shape))
    return Dictionary(shape, sampling)


def gram(d: Dictionary) -> ComplexArray:
    """Dense Gram matrix phi^H phi."""
    return ComplexArray(d.phi.z.conj().T @ d.phi.z)


def gram_generator(d: Dictionary) -> Toeplitz:
    """Structured generator of the Gram matrix, computed from the index set.

    A :class:`~hunfold.spectral.Toeplitz` on the spectrum grid: the entry
    at offsets ``(p_a)`` sums, over the samples, the product of the axes'
    phase factors ``exp(-j (2 pi / M_a) p_a i_a)``.  That sum is one
    matrix product: the row-wise Kronecker product of the leading axes'
    factors (a row of ones in 1-D) times the last axis's.  Expanding it
    reproduces :func:`gram` up to rounding, and so does reading it back
    out of :func:`gram` with :func:`~hunfold.spectral.toeplitz_extract`.
    """
    factors = [_roots(m, np.arange(1 - m, m), i, sign=-1)
               for i, m in zip(np.unravel_index(d.sampling.omega, d.shape), d.shape)]
    rest = functools.reduce(lambda a, b: (a[:, None, :] * b[None, :, :]).reshape(
        a.shape[0] * b.shape[0], d.n_obs), factors[:-1], np.ones((1, d.n_obs)))
    diags = (rest @ factors[-1].T).reshape(tuple(2 * m - 1 for m in d.shape))
    return Toeplitz(ComplexArray(diags), d.shape)


def gaussian(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Complex Gaussian draws with standard deviation ``std`` per real
    component: every real part is drawn before every imaginary part."""
    draws = std * rng.standard_normal((2, *shape))
    return draws[0] + 1j * draws[1]


def _draw(total: int, n: int, k: int, sigma2: float, seeds):
    """A block of B draws, column i from its own stream:
    ``Generator(PCG64(seeds[i]))``, or ``seeds[i]`` itself if it is a
    generator.  Per column: the support,
    ``choice(total, K, replace=False)``, then one ``standard_normal(2K + 2N)``
    call holding the amplitudes' real parts, their imaginary parts, then the
    noise's real and imaginary parts; N counts as 0 when ``sigma2 == 0``.

    Returns the (total, B) spectra and the (N, B) noise (zero when
    ``sigma2 == 0``).  Scaling, the complex join and the scatter run once
    per block.
    """
    _check_noise_power(sigma2)
    _check_int("k", k)
    if k > total:
        raise ValueError(f"sparsity {k} exceeds grid size {total}")
    b = len(seeds)
    noisy = sigma2 > 0.0
    support = np.empty((b, k), dtype=np.int64)
    draws = np.empty((b, 2 * k + (2 * n if noisy else 0)))
    for i, seed in enumerate(seeds):
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.Generator(np.random.PCG64(seed))
        if k:
            support[i] = rng.choice(total, size=k, replace=False)
        rng.standard_normal(out=draws[i])
    amps, noise = draws[:, :2 * k], draws[:, 2 * k:]
    amps *= np.sqrt(0.5)
    x = np.zeros((total, b), dtype=np.complex128)
    x[support, np.arange(b)[:, None]] = amps[:, :k] + 1j * amps[:, k:]
    if not noisy:
        return x, np.zeros((n, b), dtype=np.complex128)
    noise *= np.sqrt(sigma2 / 2.0)
    return x, (noise[:, :n] + 1j * noise[:, n:]).T


def sparse_from_rng(total: int, k: int, rng: np.random.Generator) -> ComplexArray:
    """Sparse draw from a caller-owned generator stream: the support, then
    ``standard_normal(2K)`` for the amplitudes (see :func:`_draw`)."""
    x, _ = _draw(total, 0, k, 0.0, [rng])
    return ComplexArray(x[:, 0])


def synth_offgrid(d: Dictionary, grid_indices, frac: float,
                  amps: ComplexArray) -> ComplexArray:
    """Observation of sinusoids displaced off the grid by ``frac`` of a cell.

    The displacement applies to the last axis only (the single axis in
    1-D): the columns of the anchor cells, read from the root tables as the
    dictionary's are, each sample's row turned by
    ``exp(j 2 pi i_last frac / M_last)``.  ``frac = 0`` gives the on-grid
    product with the dictionary columns bit for bit.
    """
    if not (0.0 <= frac < 1.0):
        raise ValueError(f"fractional offset must lie in [0, 1), got {frac}")
    idx = np.asarray(grid_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size != amps.shape[0]:
        raise ValueError("need one amplitude per grid index")
    if idx.size and (idx.min() < 0 or idx.max() >= d.total):
        raise ValueError("grid index out of range")
    samples = np.unravel_index(d.sampling.omega, d.shape)
    # (K, N): its transpose has the layout of ``phi[:, idx]``, so the product
    # runs as the on-grid one does
    waves = functools.reduce(np.multiply, [
        _roots(m, j, i) for i, j, m in zip(samples, np.unravel_index(idx, d.shape), d.shape)])
    waves *= np.exp(1j * (2.0 * np.pi * frac / d.shape[-1] * samples[-1]))
    return ComplexArray(waves.T @ amps.z)


def _check_noise_power(sigma2: float) -> None:
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"noise power must be finite and >= 0, got {sigma2}")


def db_to_sigma2(db: float) -> float:
    """The noise power 10**(db/10) of a value quoted in dB (see
    ``NOISE_DB_CONVENTION``); a ValueError unless both are finite."""
    try:
        sigma2 = 10.0 ** (db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not (math.isfinite(db) and math.isfinite(sigma2)):
        raise ValueError(f"noise power of {db} dB must be finite, "
                         f"and so must its power 10**(dB/10)")
    return sigma2


@dataclass(frozen=True)
class SparseInstance:
    """Recovery problems: ground truth, observation and their provenance.

    One instance holds vectors, ``x_true`` (total,) and ``y`` (n_obs,); a
    block holds one instance per column, (total, B) and (n_obs, B), with
    ``seed`` the sequence of the columns' seeds.
    """

    x_true: ComplexArray
    y: ComplexArray
    k: int
    sigma2: float
    seed: object

    def __post_init__(self):
        nonzeros = np.count_nonzero(self.x_true.z, axis=0)
        if np.any(nonzeros != self.k):
            raise ValueError(f"{nonzeros} nonzeros for sparsity {self.k}")


def make_instance(d: Dictionary, k: int, sigma2: float, seed) -> SparseInstance:
    """Fresh on-grid instances, one per seed of the sequence ``seed``, as a
    block.

    Each column draws its sparse spectrum and its noise from its own seed's
    stream (the rule of :func:`_draw`), so a column equals the instance
    drawn from that seed alone.  Each clean observation is its own
    matrix-vector product.  A single seed (an int or a SeedSequence) gives
    one instance as vectors.
    """
    single = isinstance(seed, (int, np.integer, np.random.SeedSequence))
    batch = [seed] if single else list(seed)
    x, w = _draw(d.total, d.n_obs, k, sigma2, batch)
    y = np.empty(w.shape, dtype=np.complex128)
    for i, column in enumerate(np.ascontiguousarray(x.T)):
        y[:, i] = d.phi.z @ column
    if sigma2 > 0.0:
        y += w
    if single:
        x, y = x[:, 0], y[:, 0]
    return SparseInstance(ComplexArray(x), ComplexArray(y), k, sigma2,
                          seed if single else tuple(batch))


@dataclass
class Dataset:
    """Columns of paired observations and ground-truth spectra, and the
    ``meta`` they were made with, whose sampling set is :attr:`sampling`."""

    obs: ComplexArray    # n_obs x count
    truth: ComplexArray  # total x count
    meta: dict

    def __post_init__(self):
        if self.obs.ndim != 2 or self.truth.ndim != 2 \
                or self.obs.shape[1] != self.truth.shape[1]:
            raise ValueError("observation and truth column counts must agree")

    @property
    def count(self) -> int:
        return int(self.obs.shape[1])

    @property
    def sampling(self) -> SamplingSet | None:
        """The set of ``meta``'s ``omega`` and ``sampling_seed``; None without ``omega``."""
        m = self.meta
        return SamplingSet(m["omega"], m.get("sampling_seed", 0)) if "omega" in m else None

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        obs = ComplexArray(self.obs.z[:, idx])
        return Dataset(obs, ComplexArray(self.truth.z[:, idx]),
                       {**self.meta, "n_samples": int(obs.shape[1])})


def gen_dataset(d: Dictionary, n_samples: int, k: int, sigma2: float,
                seed: int) -> Dataset:
    """Generate labelled pairs from per-column seed streams.

    Column i draws its support, amplitudes and noise from the i-th child of
    a single seed sequence (the rule of :func:`_draw`), so any column is
    reproducible independently of how many columns are generated.  The
    observations are one block product ``phi @ x + w``.
    """
    x, w = _draw(d.total, d.n_obs, k, sigma2, np.random.SeedSequence(
        _check_int("seed", seed)).spawn(_check_int("n_samples", n_samples)))
    meta = {
        "kind": len(d.shape),
        "shape": list(d.shape),
        "n_obs": d.n_obs,
        "n_samples": int(n_samples),
        "k": int(k),
        "sigma2": float(sigma2),
        "seed": int(seed),
        **d.sampling.record(),
        "noise_db_convention": NOISE_DB_CONVENTION,
    }
    return Dataset(ComplexArray(d.phi.z @ x + w), ComplexArray(x), meta)


def _pairs_from(buf, offset, shape):
    count = int(np.prod(shape))
    arr = np.frombuffer(buf, dtype="<c16", count=count, offset=offset)
    return ComplexArray(arr.astype(np.complex128).reshape(shape)), offset + count * 16


def _check_samples(path, *named) -> None:
    """Refuse the first sample (column, or entry of a vector) of the ``(name,
    array)`` pairs that is not finite, naming the file and the matrix."""
    for name, a in named:
        if not _all_finite(a):
            bad = np.flatnonzero(~np.isfinite(a).reshape(-1, a.shape[-1]).all(axis=0))[0]
            of = f" of the {name} matrix" if name else ""
            raise ValueError(f"{path}: sample {bad}{of} is not finite")


def write_dataset(path, ds: Dataset) -> None:
    """Binary dataset file plus a JSON sidecar at ``path + '.json'``.

    Layout: magic ``HUD1``; little-endian u32 kind tag (1 or 2); u32 grid
    size(s) (M, or M1 then M2); u32 n_obs; u32 n_samples; u32 k; u64 seed;
    f64 sigma2; then the observation matrix and the truth matrix, row-major
    as (re, im) f64 pairs.  A matrix entry that is not finite, or a ``kind``,
    ``shape``, ``n_obs`` or ``n_samples`` in ``ds.meta`` that the matrices do
    not have, is refused before the file is opened.
    """
    m, (n_obs, count), shape = ds.meta, ds.obs.shape, ds.meta["shape"]
    for name, ok, want in (
            ("shape", len(shape) in (1, 2) and math.prod(shape) == ds.truth.shape[0],
             f"1 or 2 sizes whose product is the truth's {ds.truth.shape[0]} rows"),
            ("kind", m["kind"] == len(shape), f"{len(shape)}, the rank of the shape"),
            ("n_obs", m["n_obs"] == n_obs, f"{n_obs}, the observation's rows"),
            ("n_samples", m["n_samples"] == count, f"{count}, the matrices' columns")):
        if not ok:
            raise ValueError(f"{path}: meta {name} is {m[name]!r}, expected {want}")
    _check_samples(path, ("observation", ds.obs.z), ("truth", ds.truth.z))
    head = struct.pack("<4sI", DATASET_MAGIC, m["kind"])
    head += struct.pack("<" + "I" * len(shape), *shape)
    head += struct.pack("<IIIQd", m["n_obs"], m["n_samples"], m["k"],
                        m["seed"], m["sigma2"])
    with open(path, "wb") as fh:
        fh.write(head)
        for a in (ds.obs, ds.truth):
            fh.write(a.z.astype("<c16", copy=False).tobytes())
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(m, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> dict | None:
    """The JSON object in the sidecar ``path + '.json'`` of a dataset or model
    file, or None if there is none.  One that cannot be read or parsed, or
    is not an object, is a ValueError naming the sidecar."""
    side_path = f"{path}.json"
    try:
        with open(side_path, "r", encoding="utf-8") as fh:
            side = json.load(fh)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ValueError(f"{side_path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:
        raise ValueError(f"{side_path}: malformed JSON ({exc})") from None
    if not isinstance(side, dict):
        raise ValueError(f"{side_path}: sidecar must be a JSON object")
    return side


def read_dataset(path) -> Dataset:
    """Inverse of :func:`write_dataset`, the sidecar's sampling set merged.

    A missing sidecar, or a non-finite entry in the observation or truth
    matrix, is a ValueError naming the file.  A sidecar that cannot be read
    or parsed, or whose ``omega`` and ``sampling_seed`` are not a
    :class:`SamplingSet` that fits ``n_obs`` on the header's grid
    (:meth:`SamplingSet.fit`), is a ValueError naming the sidecar.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 8 or buf[:4] != DATASET_MAGIC:
        raise ValueError(f"{path}: not a dataset file (bad magic)")
    kind = struct.unpack_from("<I", buf, 4)[0]
    if kind not in (1, 2):
        raise ValueError(f"{path}: unknown kind tag {kind}")
    off = 8 + 4 * kind + 12 + 16
    if len(buf) < off:
        raise ValueError(f"{path}: truncated header")
    shape = struct.unpack_from("<" + "I" * kind, buf, 8)
    n_obs, n_samples, k, seed, sigma2 = struct.unpack_from("<IIIQd", buf, 8 + 4 * kind)
    total = math.prod(shape)
    want = off + 16 * n_samples * (n_obs + total)
    if len(buf) != want:
        raise ValueError(f"{path}: file holds {len(buf)} bytes but its header "
                         f"implies {want}")
    obs, off = _pairs_from(buf, off, (n_obs, n_samples))
    truth, off = _pairs_from(buf, off, (total, n_samples))
    _check_samples(path, ("observation", obs.z), ("truth", truth.z))
    meta = {
        "kind": kind, "shape": list(shape), "n_obs": n_obs,
        "n_samples": n_samples, "k": k, "sigma2": sigma2, "seed": seed,
    }
    side, side_path = read_sidecar(path), f"{path}.json"
    if side is None:
        raise ValueError(f"{path}: no sampling indices (the sidecar "
                         f"{side_path} is missing)")
    try:
        SamplingSet(side.get("omega"), side.get("sampling_seed", 0)).fit(total, n_obs)
    except ValueError as exc:
        raise ValueError(f"{side_path}: {exc}") from None
    meta.update({key: side[key] for key in ("sampling_seed", "omega", "noise_db_convention")
                 if key in side})
    return Dataset(obs, truth, meta)


def dictionary_from_meta(meta: dict) -> Dictionary:
    """Rebuild the sensing operator recorded in a dataset's metadata."""
    sampling = SamplingSet(meta["omega"], meta.get("sampling_seed", 0))
    return build_dictionary(tuple(meta["shape"]), sampling)
