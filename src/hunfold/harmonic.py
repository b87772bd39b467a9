"""Sensing-model construction and synthetic data for harmonic retrieval.

A one-dimensional problem observes a K-sparse length-M spectrum through N
rows of the unnormalised M x M Fourier matrix, the rows picked by a random
index set.  The two-dimensional analogue observes an (M1, M2) grid through
rows of the Kronecker product of the two per-axis Fourier matrices.

Grid cells are numbered with the second axis fastest: cell (m1, m2) has
flat index ``m1*M2 + m2``, matching the Kronecker column order.  The Gram
matrix of a 1-D dictionary is Hermitian Toeplitz; for 2-D it is
doubly-block Toeplitz with the in-block axis running over m2 (the fast
index), which is why :func:`gram_generator` returns a two-axis kernel on
the ``(M2, M1)`` convolution grid.

Dictionaries, spectra and observations are complex128 arrays
(:class:`~hunfold.cplx.ComplexArray`), and every product with a dictionary
is one complex matrix product.  A complex Gaussian draw takes all its real
parts from the generator stream before its imaginary parts
(:func:`gaussian`).  ``HUD1`` dataset files hold the complex matrices as
row-major (re, im) float64 pairs, which is little-endian complex128.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cplx import ComplexArray
from .spectral import ToeplitzMat2D, ToeplitzVec, dbt_extract, toeplitz_extract

__all__ = [
    "Dataset",
    "Dictionary",
    "SamplingSet",
    "SparseInstance",
    "add_noise",
    "build_dictionary",
    "db_to_sigma2",
    "draw_sampling",
    "fourier_matrix",
    "gen_dataset",
    "gen_sparse_signal",
    "gram",
    "gram_generator",
    "make_instance",
    "read_dataset",
    "sparse_from_rng",
    "synth_offgrid",
    "write_dataset",
]

DATASET_MAGIC = b"HUD1"

# Noise powers quoted in dB throughout the package mean 10*log10(sigma2),
# with unit-power (E|a|^2 = 1) component amplitudes as the reference.
NOISE_DB_CONVENTION = "noise_power_db = 10*log10(sigma2); amplitudes unit power"


def fourier_matrix(m: int) -> ComplexArray:
    """Unnormalised M x M Fourier matrix with entry exp(+j 2 pi i m / M)."""
    if m < 1:
        raise ValueError(f"matrix order must be >= 1, got {m}")
    ang = 2.0 * np.pi / m * np.outer(np.arange(m), np.arange(m))
    return ComplexArray(np.exp(1j * ang))


@dataclass(frozen=True)
class SamplingSet:
    """Sorted distinct observed indices into the full measurement grid."""

    omega: np.ndarray
    seed: int

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=np.int64)
        object.__setattr__(self, "omega", om)
        if om.ndim != 1 or len(np.unique(om)) != om.size:
            raise ValueError("sampling indices must be a 1-D set of distinct values")
        if om.size and (np.any(np.diff(om) <= 0) or om[0] < 0):
            raise ValueError("sampling indices must be sorted ascending and >= 0")

    @property
    def count(self) -> int:
        return int(self.omega.size)


def draw_sampling(total: int, n: int, seed: int) -> SamplingSet:
    """Draw n distinct indices uniformly from {0, ..., total-1}."""
    if n > total:
        raise ValueError(f"cannot draw {n} distinct indices from {total}")
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.choice(total, size=n, replace=False).astype(np.int64))
    return SamplingSet(omega, seed)


@dataclass(frozen=True)
class Dictionary:
    """Partial Fourier (1-D) or partial Kronecker-Fourier (2-D) operator.

    ``shape`` is (M,) or (M1, M2); ``phi`` holds the N selected rows.
    """

    shape: tuple[int, ...]
    sampling: SamplingSet
    phi: ComplexArray

    @property
    def total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_obs(self) -> int:
        return self.sampling.count

    @property
    def is_2d(self) -> bool:
        return len(self.shape) == 2


def build_dictionary(shape, sampling: SamplingSet) -> Dictionary:
    """Materialise the selected rows without forming the full square matrix."""
    shape = tuple(int(s) for s in shape)
    if len(shape) not in (1, 2) or any(s < 1 for s in shape):
        raise ValueError(f"grid shape must be (M,) or (M1, M2), got {shape}")
    total = int(np.prod(shape))
    if sampling.count and int(sampling.omega[-1]) >= total:
        raise ValueError("sampling index exceeds grid size")
    om = sampling.omega
    if len(shape) == 1:
        m = shape[0]
        ang = 2.0 * np.pi / m * np.outer(om, np.arange(m))
    else:
        m1, m2 = shape
        i1 = om // m2
        i2 = om % m2
        # row of the Kronecker product = (row i1 of F_M1) kron (row i2 of F_M2)
        ang = (2.0 * np.pi / m1) * i1[:, None, None] * np.arange(m1)[None, :, None] \
            + (2.0 * np.pi / m2) * i2[:, None, None] * np.arange(m2)[None, None, :]
        ang = ang.reshape(om.size, total)
    return Dictionary(shape, sampling, ComplexArray(np.exp(1j * ang)))


def gram(d: Dictionary) -> ComplexArray:
    """Dense Gram matrix phi^H phi."""
    return ComplexArray(d.phi.z.conj().T @ d.phi.z)


def gram_generator(d: Dictionary):
    """Structured generator of the Gram matrix, computed from the index set.

    For 1-D returns a :class:`ToeplitzVec` of grid size M; for 2-D a
    :class:`ToeplitzMat2D` on the (M2, M1) convolution grid (fast axis
    inside blocks).  Expanding it reproduces :func:`gram` exactly up to
    rounding.
    """
    om = d.sampling.omega
    if not d.is_2d:
        m = d.shape[0]
        offs = np.arange(-(m - 1), m)
        ang = -2.0 * np.pi / m * np.outer(offs, om)
        return ToeplitzVec(ComplexArray(np.exp(1j * ang).sum(axis=1)), m)
    m1, m2 = d.shape
    i1 = om // m2
    i2 = om % m2
    d1 = np.arange(-(m1 - 1), m1)
    d2 = np.arange(-(m2 - 1), m2)
    a1 = -2.0 * np.pi / m1 * np.outer(d1, i1)
    a2 = -2.0 * np.pi / m2 * np.outer(d2, i2)
    # sum over samples of the separable phase factors
    return ToeplitzMat2D(ComplexArray(np.exp(1j * a2) @ np.exp(1j * a1).T),
                         rows=m2, cols=m1)


def gram_generator_from_dense(d: Dictionary):
    """Same generator, read back out of the dense Gram matrix."""
    g = gram(d)
    if not d.is_2d:
        return toeplitz_extract(g, d.shape[0])
    m1, m2 = d.shape
    return dbt_extract(g, rows=m2, cols=m1)


def gaussian(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Complex Gaussian draws with standard deviation ``std`` per real
    component: every real part is drawn before every imaginary part."""
    draws = std * rng.standard_normal((2, *shape))
    return draws[0] + 1j * draws[1]


def _sparse(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros(total, dtype=np.complex128)
    if k:
        support = rng.choice(total, size=k, replace=False)
        x[support] = gaussian(rng, (k,), np.sqrt(0.5))
    return x


def sparse_from_rng(total: int, k: int, rng: np.random.Generator) -> ComplexArray:
    """Sparse draw from a caller-owned generator stream."""
    if k > total:
        raise ValueError(f"sparsity {k} exceeds grid size {total}")
    return ComplexArray(_sparse(total, k, rng))


def gen_sparse_signal(total: int, k: int, seed: int) -> ComplexArray:
    """K nonzeros at distinct uniform positions, unit-power complex Gaussian
    amplitudes (each plane has variance 1/2)."""
    return sparse_from_rng(total, k, np.random.default_rng(seed))


def synth_offgrid(d: Dictionary, grid_indices, frac: float,
                  amps: ComplexArray) -> ComplexArray:
    """Observation of sinusoids displaced off the grid by ``frac`` of a cell.

    The displacement applies to the single axis in 1-D and to the second
    axis only in 2-D.  ``frac = 0`` reduces to the on-grid product with the
    dictionary columns.
    """
    if not (0.0 <= frac < 1.0):
        raise ValueError(f"fractional offset must lie in [0, 1), got {frac}")
    idx = np.asarray(grid_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size != amps.shape[0]:
        raise ValueError("need one amplitude per grid index")
    if idx.size and (idx.min() < 0 or idx.max() >= d.total):
        raise ValueError("grid index out of range")
    om = d.sampling.omega
    if not d.is_2d:
        m = d.shape[0]
        freqs = (idx + frac) / m
        ang = 2.0 * np.pi * np.outer(om, freqs)
    else:
        m1, m2 = d.shape
        i1 = om // m2
        i2 = om % m2
        f1 = (idx // m2) / m1
        f2 = (idx % m2 + frac) / m2
        ang = 2.0 * np.pi * (np.outer(i1, f1) + np.outer(i2, f2))
    return ComplexArray(np.exp(1j * ang) @ amps.z)


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


def add_noise(y: ComplexArray, sigma2: float, seed: int) -> ComplexArray:
    """Circularly symmetric complex Gaussian noise with per-entry power
    sigma2 (sigma2/2 in each plane)."""
    _check_noise_power(sigma2)
    if sigma2 == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    return ComplexArray(y.z + gaussian(rng, y.shape, np.sqrt(sigma2 / 2.0)))


@dataclass(frozen=True)
class SparseInstance:
    """One recovery problem: ground truth, observation and its provenance."""

    x_true: ComplexArray
    y: ComplexArray
    k: int
    sigma2: float
    offgrid: bool
    seed: object

    def __post_init__(self):
        if not self.offgrid:
            nonzeros = int(np.count_nonzero(self.x_true.abs()))
            if nonzeros != self.k:
                raise ValueError(f"{nonzeros} nonzeros for sparsity {self.k}")


def make_instance(d: Dictionary, k: int, sigma2: float, seed) -> SparseInstance:
    """Fresh on-grid instance: sparse draw, clean observation, noise draw,
    all from one child stream of ``seed``."""
    _check_noise_power(sigma2)
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(seq))
    x = sparse_from_rng(d.total, k, rng)
    y = d.phi.z @ x.z
    if sigma2 > 0.0:
        y = y + gaussian(rng, (d.n_obs,), np.sqrt(sigma2 / 2.0))
    return SparseInstance(x, ComplexArray(y), k, sigma2, False, seed)


@dataclass
class Dataset:
    """Columns of paired observations and ground-truth spectra."""

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

    def take(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        obs = ComplexArray(self.obs.z[:, idx])
        return Dataset(obs, ComplexArray(self.truth.z[:, idx]),
                       {**self.meta, "n_samples": int(obs.shape[1])})


def gen_dataset(d: Dictionary, n_samples: int, k: int, sigma2: float,
                seed: int) -> Dataset:
    """Generate labelled pairs column by column from per-column seed streams.

    Column i draws its support, amplitudes and noise from the i-th child of
    a single seed sequence, so any column is reproducible independently of
    how many columns are generated.
    """
    if k > d.total:
        raise ValueError(f"sparsity {k} exceeds grid size {d.total}")
    _check_noise_power(sigma2)
    total, n = d.total, d.n_obs
    x = np.empty((total, n_samples), dtype=np.complex128)
    w = np.zeros((n, n_samples), dtype=np.complex128)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        rng = np.random.Generator(np.random.PCG64(child))
        x[:, i] = _sparse(total, k, rng)
        if sigma2 > 0.0:
            w[:, i] = gaussian(rng, (n,), np.sqrt(sigma2 / 2.0))
    meta = {
        "kind": 2 if d.is_2d else 1,
        "shape": list(d.shape),
        "n_obs": n,
        "n_samples": int(n_samples),
        "k": int(k),
        "sigma2": float(sigma2),
        "seed": int(seed),
        "sampling_seed": int(d.sampling.seed),
        "omega": [int(v) for v in d.sampling.omega],
        "noise_db_convention": NOISE_DB_CONVENTION,
    }
    return Dataset(ComplexArray(d.phi.z @ x + w), ComplexArray(x), meta)


def _pairs_from(buf, offset, shape):
    count = int(np.prod(shape))
    arr = np.frombuffer(buf, dtype="<c16", count=count, offset=offset)
    return ComplexArray(arr.astype(np.complex128).reshape(shape)), offset + count * 16


def write_dataset(path, ds: Dataset) -> None:
    """Binary dataset file plus a JSON sidecar at ``path + '.json'``.

    Layout: magic ``HUD1``; little-endian u32 kind tag (1 or 2); u32 grid
    size(s) (M, or M1 then M2); u32 n_obs; u32 n_samples; u32 k; u64 seed;
    f64 sigma2; then the observation matrix and the truth matrix, row-major
    as (re, im) f64 pairs.
    """
    m = ds.meta
    head = struct.pack("<4sI", DATASET_MAGIC, m["kind"])
    head += struct.pack("<" + "I" * len(m["shape"]), *m["shape"])
    head += struct.pack("<IIIQd", m["n_obs"], m["n_samples"], m["k"],
                        m["seed"], m["sigma2"])
    with open(path, "wb") as fh:
        fh.write(head)
        for a in (ds.obs, ds.truth):
            fh.write(a.z.astype("<c16", copy=False).tobytes())
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(m, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset(path) -> Dataset:
    """Inverse of :func:`write_dataset`; merges the sidecar when present."""
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
    want = off + 16 * n_samples * (n_obs + math.prod(shape))
    if len(buf) != want:
        raise ValueError(f"{path}: file holds {len(buf)} bytes but its header "
                         f"implies {want}")
    obs, off = _pairs_from(buf, off, (n_obs, n_samples))
    truth, off = _pairs_from(buf, off, (int(np.prod(shape)), n_samples))
    meta = {
        "kind": kind, "shape": list(shape), "n_obs": n_obs,
        "n_samples": n_samples, "k": k, "sigma2": sigma2, "seed": seed,
    }
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            side = json.load(fh)
        for key in ("sampling_seed", "omega", "noise_db_convention"):
            if key in side:
                meta[key] = side[key]
    except FileNotFoundError:
        pass
    return Dataset(obs, truth, meta)


def dictionary_from_meta(meta: dict) -> Dictionary:
    """Rebuild the sensing operator recorded in a dataset's metadata."""
    if "omega" not in meta:
        raise ValueError("metadata carries no sampling indices")
    sampling = SamplingSet(np.asarray(meta["omega"], dtype=np.int64),
                           int(meta.get("sampling_seed", 0)))
    return build_dictionary(tuple(meta["shape"]), sampling)
