"""Experiment runner: metric sweeps, single-trial dumps, complexity reports
and ingestion of externally supplied 2-D IQ grids.

Every run is reproducible: instances derive from per-trial child seeds of
one master seed, rows are emitted in a fixed order, and CSV files are
byte-identical across repeated invocations of the same configuration.
Wall-clock columns are therefore opt-in (``timing=True``); without them the
runtime field stays empty.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, nets
from .cplx import ComplexArray, join_planes, shrink
from .harmonic import (NOISE_DB_CONVENTION, Dictionary, SamplingSet, _check_samples,
                       _draw, _is_int, build_dictionary, db_to_sigma2,
                       draw_sampling, gaussian, make_instance, synth_offgrid)
from .metrics import hit_rate_metric, nmse_metric
from .solvers import SolverConfig, default_lambda, fista, ista

__all__ = [
    "ExperimentConfig",
    "IQ_MAGIC",
    "MetricRow",
    "check_model",
    "complexity_report",
    "ingest_iq_grid",
    "read_iq_grid",
    "run_single",
    "run_sweep",
    "time_layer_forward",
    "write_csv",
    "write_iq_grid",
    "write_manifest",
]

IQ_MAGIC = b"HIQ1"

SOLVER_METHODS = ("ista", "fista")
# each learned method and the architectures that can serve it
_METHOD_ARCHS = {"lista": ("lista",), "convlista": ("convlista",),
                 "lista-toeplitz": ("toeplitz1d", "toeplitz2d")}
LEARNED_METHODS = tuple(_METHOD_ARCHS)


def check_model(method: str, net, shape, n_obs: int):
    """``net`` if it can serve learned ``method`` on a ``shape`` grid
    observed through ``n_obs`` samples, else a ValueError saying why."""
    if net.shape != tuple(shape) or net.n_obs != n_obs:
        raise ValueError(f"model is for grid {net.shape} with {net.n_obs} "
                         f"observations, the experiment is grid {tuple(shape)} "
                         f"with {n_obs}")
    if net.arch not in _METHOD_ARCHS[method]:
        raise ValueError(f"model architecture {net.arch!r} cannot serve "
                         f"method {method!r}")
    return net


@dataclass
class ExperimentConfig:
    """One sweep's worth of settings.

    ``budgets`` maps solver names to iteration counts; learned methods take
    their depth from the loaded model.  ``models`` maps learned method
    names to :class:`UnfoldedNetwork` instances whose dimensions must match
    the problem.  A field that is not a problem is a ValueError naming it.
    """

    shape: tuple[int, ...]
    n_obs: int
    k: int
    noise_powers_db: list[float]
    methods: list[str]
    trials_per_point: int = 100
    seed: int = 0
    sample_seed: int = 0
    budgets: dict = field(default_factory=lambda: {"ista": 1000, "fista": 100})
    lambda_scale: float = 0.1
    models: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        if not (isinstance(self.shape, (tuple, list)) and len(self.shape) in (1, 2)
                and all(_is_int(m) and m >= 1 for m in self.shape)):
            raise ValueError(f"shape must be (M,) or (M1, M2) of integers >= 1, "
                             f"got {self.shape!r}")
        self.shape = tuple(int(m) for m in self.shape)
        total = math.prod(self.shape)
        for name, low, top in (("n_obs", 1, total), ("k", 0, total),
                               ("seed", 0, math.inf), ("sample_seed", 0, math.inf)):
            value = getattr(self, name)
            if not (_is_int(value) and low <= value <= top):
                want = f">= {low}" if top == math.inf else f"from {low} to the grid size {top}"
                raise ValueError(f"{name} must be an integer {want}, got {value!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        for name, it in self.budgets.items():
            if not (_is_int(it) and it >= 1):
                raise ValueError(f"iteration budget for {name} must be an integer >= 1, "
                                 f"got {it!r}")
        if not self.noise_powers_db:
            raise ValueError("noise_powers_db needs at least one entry")
        try:
            for db in self.noise_powers_db:
                db_to_sigma2(db)
        except ValueError as exc:
            raise ValueError(f"noise_powers_db {self.noise_powers_db}: {exc}") from None
        if not (math.isfinite(self.lambda_scale) and self.lambda_scale >= 0.0):
            raise ValueError(f"lambda_scale must be finite and >= 0, "
                             f"got {self.lambda_scale}")
        for name in self.methods:
            if name in SOLVER_METHODS:
                if name not in self.budgets:
                    raise ValueError(f"method {name!r} needs an iteration budget")
                continue
            if name not in LEARNED_METHODS:
                raise ValueError(f"unknown method {name!r}")
            net = self.models.get(name)
            if net is None:
                raise ValueError(f"method {name!r} needs a trained model")
            try:
                check_model(name, net, self.shape, self.n_obs)
            except ValueError as exc:
                raise ValueError(f"method {name!r}: {exc}") from None


@dataclass
class MetricRow:
    method: str
    noise_power_db: float
    nmse_db: float
    hit_rate: float
    mean_runtime_ms: float | None
    trials: int


def _recover(method: str, d: Dictionary, y: ComplexArray,
             cfg: ExperimentConfig) -> ComplexArray:
    """Recover every column of the (n_obs, B) block ``y`` in one call:
    one block solve, or one forward pass over a batch of B rows."""
    if method in SOLVER_METHODS:
        solver = ista if method == "ista" else fista
        scfg = SolverConfig(lam=default_lambda(d, y, cfg.lambda_scale),
                            max_iter=cfg.budgets[method], tol=0.0)
        return solver(d, y, scfg).x_hat
    # looked up on the module, so that a wrapper installed there sees the call
    xr, xi, _ = nets.forward_planes(cfg.models[method], y.re.T, y.im.T)
    return ComplexArray(join_planes(xr, xi).T)


def run_sweep(cfg: ExperimentConfig) -> list[MetricRow]:
    """Noise sweep over every configured method.

    Each noise point's trials are drawn once, as one block of instances,
    and every method recovers that same block in one call; rows come method
    by method, each method's in noise-point order.  Reported error
    is 20*log10 of the trial-averaged norm ratio; the hit rate is averaged
    over trials, and the runtime is the block's time over the trials.
    """
    if cfg.k < 1:   # refused before any recovery: the metrics score components
        raise ValueError(f"k must be >= 1 for a sweep, got {cfg.k}")
    sampling = draw_sampling(int(np.prod(cfg.shape)), cfg.n_obs, cfg.sample_seed)
    d = build_dictionary(cfg.shape, sampling)
    trials = cfg.trials_per_point
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.noise_powers_db) * trials)
    per_method: list[list[MetricRow]] = [[] for _ in cfg.methods]
    for p_idx, db in enumerate(cfg.noise_powers_db):
        inst = make_instance(d, cfg.k, db_to_sigma2(db),
                             children[p_idx * trials:(p_idx + 1) * trials])
        for rows, method in zip(per_method, cfg.methods):
            t0 = time.perf_counter()
            x_hat = _recover(method, d, inst.y, cfg)
            elapsed = (time.perf_counter() - t0) * 1e3
            rows.append(MetricRow(
                method=method,
                noise_power_db=float(db),
                nmse_db=float(20.0 * np.log10(np.mean(nmse_metric(x_hat, inst.x_true)))),
                hit_rate=float(np.mean(hit_rate_metric(x_hat, inst.x_true, cfg.k))),
                mean_runtime_ms=elapsed / trials if cfg.timing else None,
                trials=trials,
            ))
    return [row for rows in per_method for row in rows]


def run_single(cfg: ExperimentConfig, offgrid: bool = False,
               frac: float = 0.25, sigma2: float = 0.0):
    """One recovery per method on a shared instance; returns stem-plot rows.

    Each row is (grid index, true magnitude, one magnitude column per
    method).  The spectrum and its noise are drawn from the one stream of
    ``cfg.seed`` by :func:`~hunfold.harmonic.make_instance`'s rule, so both
    modes report the same truth.  In off-grid mode each component sits
    ``frac`` of a cell past its grid index (second axis only in 2-D), and
    the truth column marks those anchors.
    """
    sampling = draw_sampling(int(np.prod(cfg.shape)), cfg.n_obs, cfg.sample_seed)
    d = build_dictionary(cfg.shape, sampling)
    seq = np.random.SeedSequence(cfg.seed)
    if offgrid:
        x, w = (a[:, 0] for a in _draw(d.total, d.n_obs, cfg.k, sigma2, [seq]))
        anchors = np.flatnonzero(x)
        y = ComplexArray(synth_offgrid(d, anchors, frac, ComplexArray(x[anchors])).z + w)
        truth_mag = ComplexArray(x).abs()
    else:
        inst = make_instance(d, cfg.k, sigma2, seq)
        y, truth_mag = inst.y, inst.x_true.abs()
    block = ComplexArray(y.z[:, None])
    columns = {}
    for method in cfg.methods:
        columns[method] = _recover(method, d, block, cfg).abs()[:, 0]
    header = ["index", "true_mag"] + [f"mag_{m}" for m in cfg.methods]
    rows = []
    for i in range(d.total):
        rows.append([i, truth_mag[i]] + [columns[m][i] for m in cfg.methods])
    return header, rows


def time_layer_forward(arch: str, m: int, n_obs: int, repeats: int = 5) -> float:
    """Median seconds for one layer of a 1-D ``arch`` network applied to a
    nonzero incoming spectrum.

    Runs the networks' own path: observation operator, inhibition operator
    and threshold.  Parameters are random; only relative scaling is
    meaningful.
    """
    obs_op, inhibit_op = nets.branches(arch, (m,), n_obs)
    rng = np.random.default_rng(0)
    inhibit = ComplexArray(gaussian(rng, inhibit_op.shape, 1.0))
    obs = ComplexArray(gaussian(rng, obs_op.shape, 1.0))
    y = gaussian(rng, (1, n_obs), 1.0)
    x = gaussian(rng, (1, m), 1.0)

    def one_pass():
        u = obs_op.apply(obs, y) + inhibit_op.apply(inhibit, x)
        shrink(u, 0.05)

    one_pass()  # warm caches
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def complexity_report(sizes, n_obs: int = 64, repeats: int = 5,
                      timing: bool = True) -> tuple[list[str], list[list]]:
    """Per-size parameter counts and measured per-layer forward times."""
    header = ["m", "n_obs", "dense_inhib_params", "toeplitz_inhib_params",
              "storage_ratio", "dense_layer_ms", "toeplitz_layer_ms",
              "time_ratio"]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"sizes must hold at least one grid size >= 1, got {list(sizes)}")
    rows = []
    for m in sizes:
        # the inhibition weights of one layer of each network
        dense, toep = (math.prod(nets.branches(arch, (m,), n_obs)[1].shape)
                       for arch in ("lista", "toeplitz1d"))
        if timing:
            td = time_layer_forward("lista", m, n_obs, repeats)
            tt = time_layer_forward("toeplitz1d", m, n_obs, repeats)
            t_cols = [td * 1e3, tt * 1e3, td / tt if tt > 0 else float("inf")]
        else:
            t_cols = [None, None, None]
        rows.append([m, n_obs, dense, toep, toep / dense] + t_cols)
    return header, rows


# -- IQ-grid ingestion -------------------------------------------------------


def write_iq_grid(path, shape, omega, y: ComplexArray) -> None:
    """2-D observation file: magic ``HIQ1``, u32 JSON-header length, the
    JSON header (m1, m2, omega), then the N samples as (re, im) f64 pairs.
    The file passes the checks of :func:`read_iq_grid` and
    :func:`ingest_iq_grid`: m1 and m2 are integers >= 1, omega, read through
    SamplingSet, lists at least one index and none past m1*m2, and ``y``
    holds one finite sample per index."""
    if len(shape) != 2 or not all(_is_int(m) and m >= 1 for m in shape):
        raise ValueError(f"an IQ grid takes two integer sizes >= 1, got {tuple(shape)}")
    omega = SamplingSet(omega, 0).omega
    if not omega.size or omega[-1] >= shape[0] * shape[1]:
        raise ValueError(f"omega must list at least one index, each below "
                         f"{shape[0] * shape[1]}, got {omega.tolist()}")
    if y.shape != omega.shape:
        raise ValueError(f"{omega.size} indices need as many samples, got shape {y.shape}")
    _check_samples(path, (None, y.z))
    head = json.dumps({"m1": int(shape[0]), "m2": int(shape[1]),
                       "omega": omega.tolist()}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(IQ_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(y.z.astype("<c16", copy=False).tobytes())


def read_iq_grid(path):
    """Parse an IQ file; returns ((m1, m2), omega, observation), where m1
    and m2 are JSON integers >= 1, omega is read through SamplingSet and
    lists at least one index, and every sample is finite."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 8 or buf[:4] != IQ_MAGIC:
        raise ValueError(f"{path}: not an IQ grid file (bad magic)")
    (hlen,) = struct.unpack_from("<I", buf, 4)
    if len(buf) < 8 + hlen:
        raise ValueError(f"{path}: truncated header")
    try:
        head = json.loads(buf[8:8 + hlen].decode("utf-8"))
        shape = (head["m1"], head["m2"])
        if not all(_is_int(m) and m >= 1 for m in shape):
            raise ValueError(f"m1 and m2 must be integers >= 1, got {shape}")
        omega = SamplingSet(head["omega"], 0).omega
        if not omega.size:
            raise ValueError("omega must list at least one index")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header ({exc})") from exc
    body = buf[8 + hlen:]
    if len(body) != omega.size * 16:
        raise ValueError(f"{path}: payload holds {len(body) // 16} samples "
                         f"but the index set lists {omega.size}")
    y = np.frombuffer(body, dtype="<c16").astype(np.complex128)
    _check_samples(path, (None, y))
    return shape, omega, ComplexArray(y)


def ingest_iq_grid(path):
    """Load an IQ file and build the matching 2-D sensing operator; returns
    (observation, dictionary), ready for any solver.  A grid whose
    dictionary numpy cannot allocate is a ValueError naming the file."""
    shape, omega, y = read_iq_grid(path)
    try:
        d = build_dictionary(shape, SamplingSet(omega, seed=0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise ValueError(f"{path}: the dictionary of the {shape[0]} x {shape[1]} "
                         f"grid cannot be built ({exc})") from None
    return y, d


# -- output files ------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain digits for numpy scalars too
    return str(value)


def write_csv(path, header, rows) -> None:
    """Fixed-schema CSV: header row, '.' decimals, newline line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def metric_rows_table(rows: list[MetricRow]):
    header = ["method", "noise_power_db", "nmse_db", "hit_rate",
              "mean_runtime_ms", "trials"]
    out = [[r.method, r.noise_power_db, r.nmse_db, r.hit_rate,
            r.mean_runtime_ms, r.trials] for r in rows]
    return header, out


def write_manifest(path, config: dict) -> None:
    """Machine-readable echo of a run's configuration (no wall-clock data,
    so repeated runs produce identical files)."""
    doc = {
        "tool": "hunfold",
        "version": __version__,
        "noise_db_convention": NOISE_DB_CONVENTION,
        "config": config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
