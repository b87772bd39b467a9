"""Run one workload and turn its op timings, or its spans, into metrics.

An untraced run sets the workload up several times (the median is
``setup_s``), runs one warm-up cycle, then whole cycles until the next one
would overrun the time budget.  Each timing metric takes one sample per
cycle and reports the median.  A traced run alternates untraced and traced
cycles over the same budget: the traced cycles give the per-layer metrics,
and the two kinds of cycle together give the tracing overhead.

End-to-end timings are scaled to a reference machine speed.  On a shared
2-core VM the same code runs up to 1.5x slower for stretches of a tenth of
a second to minutes, far more than a median over one run can absorb.
Between every two ops the harness times two fixed numpy kernels that no
hunfold change can touch (``_Reference``), and scales each op's time by
the geometric mean, over the two kernels, of ``REFERENCE_S`` over the
median reading of the ``WINDOW`` ops around it.  One scale per cycle, as
first tried, missed the slow stretches shorter than a cycle.  Over ten
seeds per workload at 35 s a run (2-core Xeon VM, OpenBLAS on 2 threads),
this scaling cut the spread (interquartile range over median) of the
desk-scale timings from 0.09-0.27 raw to 0.04-0.12; at paper scale, where
the ops stream megabytes and neither kernel tracks them closely, it left
the spread about where it was (0.07-0.15 raw, 0.05-0.16 scaled), while in
noisier hours it halved it there too.  Raw medians and the median scale
are printed next to every scaled value.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tracing, workloads

__all__ = ["END_TO_END", "PER_LAYER", "RunResult", "machine_record", "run"]

# The workload is set up at least SETUP_REPEATS times and until the set-ups
# have taken SETUP_SECONDS, at most SETUP_MAX times; setup_s is the median.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
SETUP_MAX = 64
# The reference kernels' times (interp, bulk) at the machine speed all
# timings are scaled to (about their medians on a 2-core Xeon VM with
# OpenBLAS on 2 threads).
REFERENCE_S = (1.2e-3, 0.9e-3)
# Kernel runs per speed reading; the reading is their median.
REFERENCE_REPS = 3
METHODS = ("ista", "fista", "lista", "lista-toeplitz")

# (metric, unit, better): every workload prints every one of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("gen_samples_per_s", "samples/s", "higher"),
    *((f"train_samples_per_s.{a}", "samples/s", "higher") for a in workloads.ARCHS),
    *((f"recover_ms.{m}", "ms", "lower") for m in METHODS),
    *((f"ingest_ms.{m}", "ms", "lower") for m in workloads.INGEST_METHODS),
    ("val_nmse", "ratio", "lower"),
    ("nmse_db", "dB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = tuple((name, unit, better) for name, unit, better, _, _ in tracing.LAYER_METRICS) + (
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
COUNT_UNITS = ("count", "bytes")


@dataclass
class OpRecord:
    op: workloads.Op
    seconds: float
    info: dict | None
    problem: str | None = None
    scale: float = 1.0      # reference over measured speed around the op


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> {"value": number, "unit": str}
    counts: dict             # count metrics of one traced cycle

    def line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def machine_record(seed: int) -> str:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
            f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} seed={seed}")


class _Reference:
    """Two fixed numpy kernels, independent of hunfold, whose times track
    how fast the machine runs.  ``interp`` is a loop of small products and
    elementwise calls, where interpreter and call overhead dominate, as in
    the desk-scale sweeps and ingest; ``bulk`` is one BLAS product plus
    elementwise work on a 512 KiB array, closer to training, data
    generation and the paper-scale sweeps.  Neither alone tracked every op:
    the loop followed desk-scale FISTA and Toeplitz-LISTA sweeps best
    (correlation 0.73-0.78 over 2 s windows), the other the larger work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((96, 96))
        self.square = rng.standard_normal((192, 192))
        self.wide = rng.standard_normal((128, 512))

    def interp(self) -> float:
        t0 = time.perf_counter()
        for i in range(160):
            x = self.small @ self.small[:, i % 96]
            np.hypot(x, x).sum()
        return time.perf_counter() - t0

    def bulk(self) -> float:
        t0 = time.perf_counter()
        (self.square @ self.square).sum()
        y = self.wide * 1.0001 + self.wide
        np.sqrt(y * y + self.wide * self.wide).sum()
        return time.perf_counter() - t0

    def reading(self) -> tuple[float, float]:
        """The median time of each kernel over ``REFERENCE_REPS`` runs."""
        runs = [(self.interp(), self.bulk()) for _ in range(REFERENCE_REPS)]
        return tuple(statistics.median(r[k] for r in runs) for k in range(2))


# Readings on each side of an op, beyond the two next to it, whose medians
# set its scale: enough that one disturbed reading does not set it, few
# enough to follow slow stretches of a second or more.
WINDOW = 5


def _scales(readings) -> list[float]:
    """Per op, the factor that scales its time to the reference speed: the
    geometric mean over both kernels of reference over median reading
    around the op.  ``readings[j]`` was taken just before op ``j``; one
    more follows the last op."""
    out = []
    for j in range(len(readings) - 1):
        near = readings[max(0, j - WINDOW):j + 2 + WINDOW]
        out.append(math.sqrt(math.prod(
            REFERENCE_S[k] / statistics.median(r[k] for r in near) for k in range(2))))
    return out


def _run_ops(ops, cycle: dict, reference: _Reference, tracer=None, op_base: int = 0):
    """Run one cycle's ops back to back with a speed reading between every
    two; return the records and the checks."""
    records, checks = [], []
    readings = [reference.reading()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
            span = tracer.begin("op." + op.kind)
        t0 = time.perf_counter()
        try:
            info, check = op.run(cycle)
            problem = None
        except Exception:  # an op that raises counts as failed; the run goes on
            info, check = None, None
            problem = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        readings.append(reference.reading())
        records.append(OpRecord(op, seconds, info, problem))
        checks.append(check)
    for rec, scale in zip(records, _scales(readings)):
        rec.scale = scale
    return records, checks


class _Ledger:
    """Counts ops attempted and failed, and holds each op's first result so
    that later cycles can be compared with it."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.log = log

    def settle(self, records, checks) -> None:
        for rec, check in zip(records, checks):
            if rec.problem is None:
                try:
                    rec.problem = check()
                except Exception:
                    rec.problem = traceback.format_exc(limit=4)
            if rec.problem is None:
                result = rec.info["result"]
                first = self.first.setdefault(rec.op.key, result)
                if result != first:
                    rec.problem = f"{rec.op.key}: result {result!r} differs from first cycle {first!r}"
            self.attempted += 1
            if rec.problem is not None:
                self.failed += 1
                self.log(f"FAILED {rec.op.key}: {rec.problem.strip()}")


def _cycle(ops, ledger: _Ledger, reference: _Reference):
    """One untraced cycle: its records and its wall time."""
    t0 = time.perf_counter()
    records, checks = _run_ops(ops, {}, reference)
    wall = time.perf_counter() - t0
    ledger.settle(records, checks)
    return records, wall


def _traced_cycle(ops, ledger: _Ledger, reference: _Reference, tracer, op_base: int):
    """One cycle with the wrappers installed; checks run after they are
    removed, so the spans hold the ops' work only."""
    with tracing.installed(tracer) as absent:
        t0 = time.perf_counter()
        records, checks = _run_ops(ops, {}, reference, tracer, op_base)
        wall = time.perf_counter() - t0
    ledger.settle(records, checks)
    return absent, wall


def _cycle_samples(records, scaled: bool = True) -> dict[str, float]:
    """One sample per timing metric from one cycle's records, each op time
    scaled to the reference speed by the reading around it, or raw."""
    out = {}
    per_unit = defaultdict(lambda: [0.0, 0])     # metric -> seconds, trials or grids
    for rec in records:
        if rec.info is None:
            continue
        seconds = rec.seconds * (rec.scale if scaled else 1.0)
        kind, label = rec.op.kind, rec.op.label
        if kind == "gen":
            out["gen_samples_per_s"] = rec.info["samples"] / seconds
        elif kind == "train":
            out[f"train_samples_per_s.{label}"] = rec.info["samples"] / seconds
        elif kind == "sweep":
            per_unit[f"recover_ms.{label}"][0] += seconds
            per_unit[f"recover_ms.{label}"][1] += rec.info["trials"]
        elif kind == "ingest":
            per_unit[f"ingest_ms.{label}"][0] += seconds
            per_unit[f"ingest_ms.{label}"][1] += rec.info["grids"]
    for name, (seconds, units) in per_unit.items():
        out[name] = seconds * 1e3 / units
    return out


def _tail(values: list[float], better: str) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = p if better == "lower" else 100.0 - p
            return f"p{p:g} {np.percentile(values, q):.6g}"
    return "no tail (fewer than 20 samples)"


def _median_metrics(samples: dict[str, list[float]], spec, log, raw=None) -> dict:
    metrics = {}
    for name, unit, better in spec:
        values = samples.get(name, [])
        value = float(statistics.median(values)) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        unscaled = ""
        if raw and raw.get(name):
            unscaled = f"; unscaled {statistics.median(raw[name]):.6g}"
        log(f"metric {name} = {value:.6g} {unit}  (median of {len(values)}{unscaled}; "
            f"{_tail(values, better) if values else 'no samples'})")
    return metrics


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool,
        workdir: Path, log=print, setup_repeats: int = SETUP_REPEATS,
        spans_path: Path | None = None) -> RunResult:
    """Set up, warm up, then measure ``w`` for about ``seconds`` seconds."""
    log(machine_record(seed) + f" workload={w.name} seconds={seconds:g} trace={int(trace)}")
    reference = _Reference()
    setup_s, readings = [], [reference.reading()]
    fx = None
    while len(setup_s) < setup_repeats or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX):
        fx = None           # drop the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        fx = workloads.setup(w, seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        readings.append(reference.reading())
    setup_scaled = [t * scale for t, scale in zip(setup_s, _scales(readings))]
    ops = workloads.cycle_ops(fx)
    ledger = _Ledger(log)
    _cycle(ops, ledger, reference)            # warm-up: fills caches, not measured

    samples: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    longest = 0.0
    if not trace:
        first = None
        scales = []
        while True:
            t0 = time.perf_counter()
            records, _ = _cycle(ops, ledger, reference)
            longest = max(longest, time.perf_counter() - t0)
            first = first or records
            scales += [rec.scale for rec in records]
            for name, value in _cycle_samples(records).items():
                samples[name].append(value)
            for name, value in _cycle_samples(records, scaled=False).items():
                raw[name].append(value)
            if time.perf_counter() - start + longest > seconds:
                break
        log(f"speed: median scale to the reference speed {statistics.median(scales):.4g} "
            f"over {len(scales)} ops")
        raw["setup_s"] = setup_s
        samples["setup_s"] = setup_scaled
        done = [r for r in first if r.info is not None]
        trained = [r.info["val_nmse"] for r in done if r.op.kind == "train"]
        swept = [r.info["nmse_db"] for r in done if r.op.kind == "sweep"]
        samples["val_nmse"] = [float(np.mean(trained))] if trained else []
        samples["nmse_db"] = [float(np.mean(swept))] if swept else []
        samples["ok_frac"] = [(ledger.attempted - ledger.failed) / ledger.attempted]
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        metrics = _median_metrics(samples, END_TO_END, log, raw)
        return RunResult(ledger.failed == 0, ledger.attempted, ledger.failed, metrics, {})

    tracer = tracing.Tracer()
    plain, traced, per_cycle = [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(_cycle(ops, ledger, reference)[1])
        lo = len(tracer.spans)
        absent, wall = _traced_cycle(ops, ledger, reference, tracer, len(traced) * len(ops))
        traced.append(wall)
        per_cycle.append(tracing.layer_metrics(tracing.summarize(tracer.spans, lo)))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    for values in per_cycle:
        for name, value in values.items():
            samples[name].append(value)
    overhead = statistics.median(traced) - statistics.median(plain)
    samples["trace.overhead_s"] = [overhead]
    samples["trace.overhead_frac"] = [overhead / statistics.median(plain)]
    metrics = _median_metrics(samples, PER_LAYER, log)
    counts = {name: per_cycle[0][name] for name, unit, _ in PER_LAYER
              if unit in COUNT_UNITS and name in per_cycle[0]}
    failed = ledger.failed
    for i, values in enumerate(per_cycle[1:], start=2):
        moved = {k: (v, values[k]) for k, v in counts.items() if values[k] != v}
        if moved:
            failed += 1
            log(f"FAILED counts of traced cycle {i} differ from cycle 1: {moved}")
    for target in absent:
        log(f"absent target {target}")
    for name in tracing.absent_metrics(absent):
        log(f"absent {name} (no wrapped name it reads is left in the sources)")
    for name, n in sorted(tracer.measure_errors.items()):
        log(f"uncounted {name}: {n} calls whose arguments no longer match")
    for group, target in tracing.LAYER_TARGETS:
        log(f"target {group}: {target}")
    log(f"trace {len(traced)} traced and {len(plain)} untraced cycles, "
        f"{len(tracer.spans)} spans")
    if spans_path is not None:
        tracer.write(spans_path)
    return RunResult(failed == 0, ledger.attempted, failed, metrics, counts)
