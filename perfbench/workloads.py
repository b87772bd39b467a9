"""The benchmark's workloads: problem sizes, the ops of one cycle, and the
correctness check each op must pass.

A workload runs as one closed-loop client: a cycle is a fixed list of ops,
each one call into the public API that ``hunfold.cli`` uses, and an op
starts only after the previous one has finished.  Every cycle repeats the
same inputs, all drawn from the workload seed, so results and counts must
repeat exactly from one cycle to the next.

Every workload runs every kind of op (generate data, train each
architecture, sweep each method, ingest an IQ grid each way) because every
end-to-end metric is reported on every workload; the workloads differ in
problem size and in how much work each kind of op gets.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from hunfold import bench, cli, harmonic, nets, training
from hunfold.cplx import ComplexArray, lipschitz_constant
from hunfold.spectral import ToeplitzVec, toeplitz_expand

__all__ = ["ARCHS", "Fixture", "Op", "Problem", "SweepSpec", "WORKLOADS",
           "Workload", "cycle_ops", "setup"]

ARCHS = ("lista", "toeplitz1d", "convlista", "toeplitz2d")
INGEST_METHODS = ("ista", "toeplitz2d")
NOISE_DB = (-20.0, -10.0, 0.0)
SAMPLING_SEED = 101          # index-set seed of the README's desk examples
DEPTH = 5
LAM = 0.1
LEARNING_RATE = 1e-3
BATCH = 128
INGEST_BUDGET = 800
FORWARD_CHECK_ROWS = 16
# Sweep rows of dense LISTA and its Toeplitz twin must agree to the
# acceptance suite's structured-equals-dense tolerance.
AGREE_TOL = 1e-10
# A working solver finds nearly every component at -20 dB (0.97-0.99 over
# 200 trials); one that fails outright finds about K/M of them.
HIT_FLOOR = 0.5
# ISTA's penalty (0.1 * max |phi^H y|) shrinks away components weaker than
# about a tenth of the largest; every missed component measured over 1200
# ingested grids was weaker than 0.13 of the largest.
SIGNIFICANT = 0.25


@dataclass(frozen=True)
class Problem:
    shape: tuple[int, ...]
    n_obs: int
    k: int
    sigma2: float

    @property
    def total(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class SweepSpec:
    """``bench.run_sweep`` over ``methods``: per noise point in ``noise_db``,
    ``chunks`` ops of ``trials`` trials each per method, every chunk on its
    own instances.

    Chunks keep each op short, so that the speed readings around it track
    the machine, and spread a method's trials over the cycle."""

    problem: Problem
    methods: tuple[str, ...]
    trials: int
    budgets: tuple[tuple[str, int], ...] = ()
    chunks: int = 1
    noise_db: tuple[float, ...] = NOISE_DB


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem_1d: Problem     # data and training for lista, toeplitz1d, convlista
    problem_2d: Problem     # data and training for toeplitz2d; the ingested grids
    gen_1d: int             # samples the gen op generates, writes and reads back
    gen_2d: int
    train: tuple[tuple[str, int, int], ...]   # (arch, training samples, validation samples)
    sweeps: tuple[SweepSpec, ...]
    grids: int              # IQ grids exported by gen, each ingested by both ingest ops


DESK_1D = Problem((64,), 16, 2, 0.1)
DESK_2D = Problem((8, 8), 32, 3, 0.01)
DESK_BUDGETS = (("ista", 1000), ("fista", 100))

# Sizes keep one cycle at 5-7 s, so that a 35 s run yields five or more
# samples of every timing; no op's share of a cycle is so short that a scheduler
# hiccup moves its median; and each sweep has enough trials that a run's
# recovery cost and error vary little from one seed to the next.  ISTA's
# exact-stop iteration count varies most from instance to instance (per
# solve, a standard deviation of 0.3-0.7 of the mean at -10 and 0 dB on the
# desk problem, 0.34 at 0 dB for M=512), so the solver sweeps get 24-32
# trials per noise point.  At M=512 a solve costs about 15 desk solves, so
# that sweep leaves out 0 dB, where one seed's 16 trials per point took 1.4x
# the iterations of another's; at -20 and -10 dB the deviation is 0.1-0.2.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-desk",
        why="desk-scale training at batch 128: spectral, nets and training do "
            "most of the work; the solvers little",
        problem_1d=DESK_1D, problem_2d=DESK_2D, gen_1d=2304, gen_2d=512,
        train=(("lista", 2048, 256), ("toeplitz1d", 512, 256),
               ("convlista", 512, 256), ("toeplitz2d", 128, 128)),
        sweeps=(SweepSpec(DESK_1D, ("ista", "fista"), 8, DESK_BUDGETS, chunks=4),
                SweepSpec(DESK_1D, ("lista", "lista-toeplitz"), 16, chunks=4)),
        grids=24,
    ),
    Workload(
        name="sweep-desk",
        why="desk-scale noise sweeps, one recovery at a time: solvers, cplx, "
            "make_instance, metrics and batch-1 spectral work dominate",
        problem_1d=DESK_1D, problem_2d=DESK_2D, gen_1d=1280, gen_2d=256,
        train=(("lista", 1024, 256), ("toeplitz1d", 256, 128),
               ("convlista", 256, 128), ("toeplitz2d", 64, 32)),
        sweeps=(SweepSpec(DESK_1D, ("ista", "fista"), 8, DESK_BUDGETS, chunks=4),
                SweepSpec(DESK_1D, ("lista", "lista-toeplitz"), 24, chunks=4)),
        grids=24,
    ),
    Workload(
        name="paper-scale",
        why="M=512 solvers, M=2048 dense against Toeplitz nets, 32x32 IQ "
            "ingest: large FFTs and matmuls, where dense and structured trade places",
        problem_1d=Problem((512,), 64, 5, 0.01),
        problem_2d=Problem((32, 32), 256, 5, 0.01), gen_1d=512, gen_2d=32,
        train=(("lista", 64, 16), ("toeplitz1d", 32, 16),
               ("convlista", 32, 16), ("toeplitz2d", 4, 4)),
        sweeps=(
            SweepSpec(Problem((512,), 64, 5, 0.0), ("ista", "fista"), 6,
                      (("ista", 1000), ("fista", 110)), chunks=4,
                      noise_db=NOISE_DB[:2]),
            SweepSpec(Problem((2048,), 64, 5, 0.0), ("lista", "lista-toeplitz"), 2,
                      chunks=3),
        ),
        grids=6,
    ),
)}


# -- set-up --------------------------------------------------------------------


def _dictionary(p: Problem):
    return harmonic.build_dictionary(
        p.shape, harmonic.draw_sampling(p.total, p.n_obs, SAMPLING_SEED))


def ista_embedding(d, arch: str):
    """``DEPTH`` layers, each exactly one ISTA step: filter phi^H / L,
    inhibition I - G / L from the Gram generator, threshold LAM / L."""
    net = nets.init_network(arch, d, DEPTH, LAM)
    big_l = lipschitz_constant(d.phi).value
    kernel = harmonic.gram_generator(d).diags.scale(-1.0 / big_l)
    re = kernel.re.copy()
    re[tuple(n // 2 for n in re.shape)] += 1.0   # the zero offset sits mid-kernel
    for layer in net.layers:
        layer.inhibit = ComplexArray(re.copy(), kernel.im.copy())
    return net


def dense_twin(net):
    """The dense LISTA net computing exactly what a toeplitz1d net computes."""
    layers = [nets.Layer(layer.filt, None,
                         toeplitz_expand(ToeplitzVec(layer.inhibit, net.total)),
                         layer.threshold)
              for layer in net.layers]
    return nets.UnfoldedNetwork("lista", net.shape, net.n_obs, layers)


@dataclass
class Fixture:
    """What a cycle's ops need that does not change between cycles."""

    workload: Workload
    workdir: Path
    d1: object
    d2: object
    models: list[dict]          # per sweep spec: method -> network
    ingest_model: Path
    gen_seeds: tuple[int, int]
    sweep_seeds: tuple[int, ...]
    train_seed: int


def setup(w: Workload, seed: int, workdir: Path) -> Fixture:
    """Sensing operators, the sweeps' warm-started nets and the toeplitz2d
    model file that ingest loads.  Every seed the ops use derives from
    ``seed``."""
    state = [int(v) for v in np.random.SeedSequence(seed).generate_state(3 + len(NOISE_DB))]
    models = []
    for spec in w.sweeps:
        learned = {}
        if {"lista", "lista-toeplitz"} & set(spec.methods):
            structured = ista_embedding(_dictionary(spec.problem), "toeplitz1d")
            learned = {"lista-toeplitz": structured, "lista": dense_twin(structured)}
        models.append(learned)
    d2 = _dictionary(w.problem_2d)
    ingest_model = workdir / "ingest-toeplitz2d.hun"
    nets.save_network(ingest_model, ista_embedding(d2, "toeplitz2d"))
    return Fixture(w, workdir, _dictionary(w.problem_1d), d2, models, ingest_model,
                   (state[0], state[1]), tuple(state[3:]), state[2])


# -- ops -------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One call into the API.  ``run(cycle)`` returns ``(info, check)``:
    ``info`` holds the work done (``samples`` or ``trials``) and the
    ``result`` that must repeat exactly in every cycle; ``check()`` runs
    outside the timed region and returns a problem description or None."""

    kind: str       # gen, train, sweep or ingest
    label: str      # the architecture or method a metric is named after
    key: str        # unique within the cycle
    run: object


def _same_dataset(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in (
        (a.obs.re, b.obs.re), (a.obs.im, b.obs.im),
        (a.truth.re, b.truth.re), (a.truth.im, b.truth.im)))


def _header_problem(path: Path) -> str | None:
    """Compare a HUD1 file's sample count field with what its payload holds."""
    buf = path.read_bytes()
    kind = struct.unpack_from("<I", buf, 4)[0]
    shape = struct.unpack_from("<" + "I" * kind, buf, 8)
    off = 8 + 4 * kind
    n_obs, n_samples, _ = struct.unpack_from("<III", buf, off)
    payload = len(buf) - (off + 12 + 16)
    per_sample = 16 * (n_obs + math.prod(shape))
    if payload != n_samples * per_sample:
        return (f"{path.name}: header counts {n_samples} samples, "
                f"payload holds {payload / per_sample:g}")
    return None


def _gen(fx: Fixture, cycle: dict):
    w = fx.workload
    out = []
    for tag, d, p, n, seed in (("1d", fx.d1, w.problem_1d, w.gen_1d, fx.gen_seeds[0]),
                               ("2d", fx.d2, w.problem_2d, w.gen_2d, fx.gen_seeds[1])):
        ds = harmonic.gen_dataset(d, n, p.k, p.sigma2, seed)
        path = fx.workdir / f"data{tag}.hud"
        harmonic.write_dataset(path, ds)
        out.append((tag, ds, path))
    ds2 = out[1][1]
    for col in range(w.grids):     # as ``hunfold gen-data --export-iq`` does
        y = ComplexArray(ds2.obs.re[:, col].copy(), ds2.obs.im[:, col].copy())
        bench.write_iq_grid(fx.workdir / f"grid{col}.hiq", w.problem_2d.shape,
                            fx.d2.sampling.omega, y)
    back = {tag: harmonic.read_dataset(path) for tag, _, path in out}
    cycle["data"] = back

    def check():
        for tag, ds, path in out:
            if not _same_dataset(ds, back[tag]):
                return f"{path.name}: read back differs from what was written"
            problem = _header_problem(path)
            if problem:
                return problem
        return None

    samples = sum(ds.count for _, ds, _ in out)
    return {"samples": samples, "result": samples}, check


def _train(fx: Fixture, arch: str, n_train: int, n_val: int, cycle: dict):
    """What ``hunfold train`` does, minus argument parsing, for one epoch."""
    ds = cycle["data"]["2d" if arch == "toeplitz2d" else "1d"]
    train_ds = ds.take(np.arange(n_train))
    val_ds = ds.take(np.arange(n_train, n_train + n_val))
    d = harmonic.dictionary_from_meta(train_ds.meta)
    net0 = nets.init_network(arch, d, DEPTH, LAM)
    init_val = training.loss_nmse(net0, val_ds)
    cfg = training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH,
                               epochs=1, seed=fx.train_seed)
    net, _ = training.train(net0, train_ds, val_ds, cfg)
    final_val = training.loss_nmse(net, val_ds)
    path = fx.workdir / f"{arch}.hun"
    nets.save_network(path, net, extra_meta={"initial_val_nmse": init_val,
                                             "final_val_nmse": final_val})
    loaded = nets.load_network(path)

    def check():
        if not np.isfinite(final_val):
            return f"{arch}: validation NMSE {final_val}"
        yr = np.ascontiguousarray(val_ds.obs.re[:, :FORWARD_CHECK_ROWS].T)
        yi = np.ascontiguousarray(val_ds.obs.im[:, :FORWARD_CHECK_ROWS].T)
        a = nets.forward_planes(net, yr, yi)
        b = nets.forward_planes(loaded, yr, yi)
        if not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])):
            return f"{path.name}: forward after save/load differs"
        return None

    return {"samples": n_train, "val_nmse": final_val, "result": final_val}, check


def _sweep(fx: Fixture, spec_idx: int, method: str, point: int, chunk: int, cycle: dict):
    spec = fx.workload.sweeps[spec_idx]
    p = spec.problem
    db = NOISE_DB[point]
    seed = int(np.random.SeedSequence((fx.sweep_seeds[point], chunk)).generate_state(1)[0])
    cfg = bench.ExperimentConfig(
        shape=p.shape, n_obs=p.n_obs, k=p.k, noise_powers_db=[db], methods=[method],
        trials_per_point=spec.trials, seed=seed,
        sample_seed=SAMPLING_SEED, budgets=dict(spec.budgets),
        models=fx.models[spec_idx])
    (row,) = bench.run_sweep(cfg)
    rows = cycle.setdefault("rows", {})
    rows[(method, db, chunk)] = row

    def check():
        if not np.isfinite(row.nmse_db):
            return f"{method} at {db} dB: NMSE {row.nmse_db}"
        if method in ("ista", "fista") and db == NOISE_DB[0] and row.hit_rate < HIT_FLOOR:
            return f"{method} at {db} dB: hit rate {row.hit_rate} below {HIT_FLOOR}"
        twin = rows.get(("lista", db, chunk))
        if method == "lista-toeplitz" and twin is not None:
            if abs(twin.nmse_db - row.nmse_db) > AGREE_TOL or twin.hit_rate != row.hit_rate:
                return (f"lista and lista-toeplitz disagree at {db} dB: "
                        f"{twin.nmse_db!r}/{twin.hit_rate} vs {row.nmse_db!r}/{row.hit_rate}")
        return None

    return {"trials": spec.trials, "nmse_db": row.nmse_db,
            "result": (row.nmse_db, row.hit_rate)}, check


def _csv_magnitudes(path: Path) -> np.ndarray:
    """The magnitude column of an ingest CSV.

    Under numpy 2, ``bench.write_csv`` writes numpy scalars through
    ``repr``, so cells read ``np.float64(0.5)`` instead of ``0.5``.  That
    defect is reported as a warning and the number inside is read, so the
    support check below still judges the recovery itself.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cell = line.rstrip("\n").split(",")[3]
            if cell.startswith("np.float64(") and cell.endswith(")"):
                warnings.warn("hunfold ingest writes magnitudes as numpy reprs such "
                              "as 'np.float64(0.5)', not plain numbers", stacklevel=2)
                cell = cell[len("np.float64("):-1]
            values.append(float(cell))
    return np.array(values)


def _ingest(fx: Fixture, method: str, cols: range, cycle: dict):
    """``hunfold ingest``, in process, on the exported grids ``cols``."""
    outs = []
    codes = []
    for col in cols:
        out = fx.workdir / f"ingest-{method}-{col}.csv"
        argv = ["ingest", "--path", str(fx.workdir / f"grid{col}.hiq"),
                "--budget", str(INGEST_BUDGET), "--out", str(out)]
        if method != "ista":
            argv += ["--model", str(fx.ingest_model)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
        outs.append(out)
    truth = cycle["data"]["2d"].truth

    def check():
        for col, code, out in zip(cols, codes, outs):
            if code != 0:
                return f"ingest {method}, grid {col}: exit code {code}"
            mags = _csv_magnitudes(out)
            want = np.hypot(truth.re[:, col], truth.im[:, col])
            if mags.shape != want.shape or not np.all(np.isfinite(mags)):
                return f"ingest {method}, grid {col}: {mags.shape[0]} magnitudes for {want.size} cells"
            if method == "ista":
                k = int(np.count_nonzero(want))
                top = set(np.argsort(-mags, kind="stable")[:k].tolist())
                strong = np.flatnonzero(want >= SIGNIFICANT * want.max())
                missed = [int(i) for i in strong if int(i) not in top]
                if missed:
                    return f"ingest ista, grid {col}: strong components {missed} not recovered"
        return None

    return {"grids": len(codes), "result": tuple(codes)}, check


def cycle_ops(fx: Fixture) -> list[Op]:
    """The ops of one cycle, in order: gen first (the others read its files),
    then training; then, noise point by noise point, the sweeps chunk by
    chunk, every method of every spec in each, lista before lista-toeplitz
    (whose check compares the two), and each ingest method on a third of
    the grids.  Spreading a metric's ops over the cycle lets the speed
    readings around them sample more of the machine's slow and fast
    stretches."""
    w = fx.workload
    ops = [Op("gen", "gen", "gen", partial(_gen, fx))]
    ops += [Op("train", arch, f"train:{arch}", partial(_train, fx, arch, n_train, n_val))
            for arch, n_train, n_val in w.train]
    parts = np.array_split(np.arange(w.grids), len(NOISE_DB))
    for point, db in enumerate(NOISE_DB):
        for chunk in range(max(spec.chunks for spec in w.sweeps)):
            for i, spec in enumerate(w.sweeps):
                if chunk >= spec.chunks or db not in spec.noise_db:
                    continue
                for method in spec.methods:
                    ops.append(Op("sweep", method, f"sweep:{method}:{db:g}:{chunk}",
                                  partial(_sweep, fx, i, method, point, chunk)))
        if len(parts[point]):
            cols = range(int(parts[point][0]), int(parts[point][-1]) + 1)
            ops += [Op("ingest", m, f"ingest:{m}:{point}", partial(_ingest, fx, m, cols))
                    for m in INGEST_METHODS]
    return ops
