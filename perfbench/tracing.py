"""In-memory span tracing at hunfold's layer boundaries.

For a traced cycle the benchmark replaces the names each hunfold module
imports from the layer below (``hunfold.training.forward_planes``,
``hunfold.nets.conv_full_planes``, ``hunfold.bench.ista``, ...) with
wrappers that record a span: name, start, end, parent span and op id.
Python looks a module-level name up at call time, so calls made inside the
module that owns the name are traced too.  The originals are put back when
the cycle ends.  A name that the sources no longer define is reported as
absent instead of failing the run.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LAYER_METRICS",
    "LAYER_TARGETS",
    "SpanStats",
    "Tracer",
    "WRAPS",
    "absent_metrics",
    "installed",
    "layer_metrics",
    "summarize",
]


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


class Tracer:
    """Records nested spans as ``[name, start, end, parent, op_id, extra]``.

    ``parent`` is the index of the enclosing span or -1; ``extra`` holds the
    counts a measure function read off the call (transform points, solver
    iterations, bytes written, ...).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self.measure_errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, extra: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = extra
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            extra = None
            if measure is not None:
                try:
                    extra = measure(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError, OSError):
                    # the call's signature changed: keep the timing, flag the count
                    self.measure_errors[name] += 1
            self.end(idx, extra)
            return out

        return traced

    def write(self, path) -> None:
        """Dump every span as tab-separated text, one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\textra\n")
            for i, (name, start, end, parent, op_id, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op_id}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{extra if extra else ''}\n")


# -- what each wrapper reads off its call -----------------------------------


def _conv_measure(ndim: int):
    """Transform points a linear convolution over the last ``ndim`` axes
    costs when each axis is zero-padded to a power of two: one transform per
    kernel row, per input row and per product row."""

    def measure(args, kwargs, out):
        kr, xr = args[0], args[2]
        full = [kr.shape[i] + xr.shape[i] - 1 for i in range(-ndim, 0)]
        padded = [_next_pow2(f) for f in full]
        lead_k, lead_x = kr.shape[:-ndim], xr.shape[:-ndim]
        rows = (math.prod(lead_k) + math.prod(lead_x)
                + math.prod(np.broadcast_shapes(lead_k, lead_x)))
        return {"points": rows * math.prod(padded), "linear": rows * math.prod(full)}

    return measure


def _rows(args, kwargs, out):
    return {"rows": int(args[1].shape[0])}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _power_iteration(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": int(out.converged)}


def _solve(args, kwargs, out):
    return {"iterations": int(out.iterations_run), "converged": int(out.converged)}


def _samples(args, kwargs, out):
    return {"samples": int(args[1])}


# (module, name the module looks up, span name, measure)
WRAPS = (
    ("hunfold.nets", "conv_full_planes", "spectral.conv", _conv_measure(1)),
    ("hunfold.nets", "conv_full2_planes", "spectral.conv", _conv_measure(2)),
    ("hunfold.training", "conv_full_planes", "spectral.conv", _conv_measure(1)),
    ("hunfold.training", "conv_full2_planes", "spectral.conv", _conv_measure(2)),
    ("hunfold.nets", "forward_planes", "nets.forward", _rows),
    ("hunfold.training", "forward_planes", "nets.forward", _rows),
    ("hunfold.nets", "save_network", "nets.io", _file_bytes),
    ("hunfold.nets", "load_network", "nets.io", _file_bytes),
    ("hunfold.cli", "load_network", "nets.io", _file_bytes),
    ("hunfold.nets", "init_network", "nets.init", None),
    ("hunfold.nets", "lipschitz_constant", "cplx.lipschitz", _power_iteration),
    ("hunfold.solvers", "lipschitz_constant", "cplx.lipschitz", _power_iteration),
    ("hunfold.solvers", "soft_threshold_planes", "cplx.soft_threshold", None),
    ("hunfold.training", "_backward_planes", "training.backward", None),
    ("hunfold.training", "adam_step", "training.adam_step", None),
    ("hunfold.training", "loss_nmse", "training.loss_nmse", None),
    ("hunfold.bench", "ista", "solvers.solve", _solve),
    ("hunfold.bench", "fista", "solvers.solve", _solve),
    ("hunfold.cli", "ista", "solvers.solve", _solve),
    ("hunfold.bench", "default_lambda", "solvers.default_lambda", None),
    ("hunfold.cli", "default_lambda", "solvers.default_lambda", None),
    ("hunfold.harmonic", "gen_dataset", "harmonic.gen_dataset", _samples),
    ("hunfold.harmonic", "write_dataset", "harmonic.io.write", _file_bytes),
    ("hunfold.harmonic", "read_dataset", "harmonic.io.read", _file_bytes),
    ("hunfold.bench", "make_instance", "harmonic.make_instance", None),
    ("hunfold.harmonic", "build_dictionary", "harmonic.build_dictionary", None),
    ("hunfold.bench", "build_dictionary", "harmonic.build_dictionary", None),
    ("hunfold.bench", "nmse_metric", "metrics", None),
    ("hunfold.bench", "hit_rate_metric", "metrics", None),
    ("hunfold.bench", "run_sweep", "bench.run_sweep", None),
    ("hunfold.bench", "read_iq_grid", "bench.iq.read", None),
    ("hunfold.cli", "write_csv", "bench.write_csv", _file_bytes),
)


@contextmanager
def installed(tracer: Tracer, wraps=WRAPS):
    """Swap the wrapped names in for the body of the ``with`` block.

    Yields the ``module.name`` targets that the sources do not define.
    """
    patched = []
    absent = []
    try:
        for mod_name, attr, span, measure in wraps:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(span, original, measure))
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# -- from spans to per-layer metrics -----------------------------------------


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=lambda: defaultdict(int))


def summarize(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, SpanStats]:
    """Calls, total time, self time and summed counts per span name, over
    ``spans[lo:hi]``.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    hi = len(spans) if hi is None else hi
    child_s: dict[int, float] = defaultdict(float)
    for span in spans[lo:hi]:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for i in range(lo, hi):
        name, start, end, _, _, extra = spans[i]
        st = stats[name]
        st.calls += 1
        st.total_s += end - start
        st.self_s += end - start - child_s.get(i, 0.0)
        if extra:
            for key, val in extra.items():
                st.extra[key] += val
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, span names it reads, value from the per-name stats).
# "op.ingest" is the span the harness opens around each ``cli.main(["ingest",
# ...])`` call, so its self time is the CLI's own share of the op.
LAYER_METRICS = (
    ("spectral.conv.calls", "count", "lower", ("spectral.conv",),
     lambda st: st["spectral.conv"].calls),
    ("spectral.conv.s", "s", "lower", ("spectral.conv",),
     lambda st: st["spectral.conv"].total_s),
    ("spectral.conv.fft_points", "count", "lower", ("spectral.conv",),
     lambda st: st["spectral.conv"].extra["points"]),
    ("spectral.conv.pad_efficiency", "ratio", "higher", ("spectral.conv",),
     lambda st: _ratio(st["spectral.conv"].extra["linear"],
                       st["spectral.conv"].extra["points"])),
    ("nets.forward.calls", "count", "lower", ("nets.forward",),
     lambda st: st["nets.forward"].calls),
    ("nets.forward.rows", "count", "lower", ("nets.forward",),
     lambda st: st["nets.forward"].extra["rows"]),
    ("nets.forward.self_s", "s", "lower", ("nets.forward",),
     lambda st: st["nets.forward"].self_s),
    ("nets.io.s", "s", "lower", ("nets.io",), lambda st: st["nets.io"].total_s),
    ("nets.io.bytes", "bytes", "lower", ("nets.io",),
     lambda st: st["nets.io"].extra["bytes"]),
    ("nets.init.s", "s", "lower", ("nets.init",), lambda st: st["nets.init"].total_s),
    ("training.steps", "count", "lower", ("training.adam_step",),
     lambda st: st["training.adam_step"].calls),
    ("training.backward.self_s", "s", "lower", ("training.backward",),
     lambda st: st["training.backward"].self_s),
    ("training.adam_step.s", "s", "lower", ("training.adam_step",),
     lambda st: st["training.adam_step"].total_s),
    ("training.loss_nmse.s", "s", "lower", ("training.loss_nmse",),
     lambda st: st["training.loss_nmse"].total_s),
    ("cplx.lipschitz.calls", "count", "lower", ("cplx.lipschitz",),
     lambda st: st["cplx.lipschitz"].calls),
    ("cplx.lipschitz.iterations", "count", "lower", ("cplx.lipschitz",),
     lambda st: st["cplx.lipschitz"].extra["iterations"]),
    ("cplx.lipschitz.unconverged", "count", "lower", ("cplx.lipschitz",),
     lambda st: st["cplx.lipschitz"].calls - st["cplx.lipschitz"].extra["converged"]),
    ("cplx.lipschitz.s", "s", "lower", ("cplx.lipschitz",),
     lambda st: st["cplx.lipschitz"].total_s),
    ("cplx.soft_threshold.calls", "count", "lower", ("cplx.soft_threshold",),
     lambda st: st["cplx.soft_threshold"].calls),
    ("cplx.soft_threshold.s", "s", "lower", ("cplx.soft_threshold",),
     lambda st: st["cplx.soft_threshold"].total_s),
    ("solvers.solves", "count", "lower", ("solvers.solve",),
     lambda st: st["solvers.solve"].calls),
    ("solvers.iterations", "count", "lower", ("solvers.solve",),
     lambda st: st["solvers.solve"].extra["iterations"]),
    ("solvers.converged_frac", "ratio", "higher", ("solvers.solve",),
     lambda st: _ratio(st["solvers.solve"].extra["converged"], st["solvers.solve"].calls)),
    ("solvers.s", "s", "lower", ("solvers.solve",),
     lambda st: st["solvers.solve"].total_s),
    ("solvers.self_s", "s", "lower", ("solvers.solve",),
     lambda st: st["solvers.solve"].self_s),
    ("solvers.iter_us", "us", "lower", ("solvers.solve",),
     lambda st: 1e6 * _ratio(st["solvers.solve"].total_s,
                             st["solvers.solve"].extra["iterations"])),
    ("solvers.default_lambda.s", "s", "lower", ("solvers.default_lambda",),
     lambda st: st["solvers.default_lambda"].total_s),
    ("harmonic.gen_dataset.s", "s", "lower", ("harmonic.gen_dataset",),
     lambda st: st["harmonic.gen_dataset"].total_s),
    ("harmonic.gen_dataset.samples", "count", "lower", ("harmonic.gen_dataset",),
     lambda st: st["harmonic.gen_dataset"].extra["samples"]),
    ("harmonic.io.write_s", "s", "lower", ("harmonic.io.write",),
     lambda st: st["harmonic.io.write"].total_s),
    ("harmonic.io.read_s", "s", "lower", ("harmonic.io.read",),
     lambda st: st["harmonic.io.read"].total_s),
    ("harmonic.io.bytes", "bytes", "lower", ("harmonic.io.write", "harmonic.io.read"),
     lambda st: st["harmonic.io.write"].extra["bytes"] + st["harmonic.io.read"].extra["bytes"]),
    ("harmonic.make_instance.calls", "count", "lower", ("harmonic.make_instance",),
     lambda st: st["harmonic.make_instance"].calls),
    ("harmonic.make_instance.s", "s", "lower", ("harmonic.make_instance",),
     lambda st: st["harmonic.make_instance"].total_s),
    ("harmonic.build_dictionary.s", "s", "lower", ("harmonic.build_dictionary",),
     lambda st: st["harmonic.build_dictionary"].total_s),
    ("metrics.calls", "count", "lower", ("metrics",), lambda st: st["metrics"].calls),
    ("metrics.s", "s", "lower", ("metrics",), lambda st: st["metrics"].total_s),
    ("bench.run_sweep.self_s", "s", "lower", ("bench.run_sweep",),
     lambda st: st["bench.run_sweep"].self_s),
    ("bench.iq.read_s", "s", "lower", ("bench.iq.read",),
     lambda st: st["bench.iq.read"].total_s),
    ("bench.write_csv.s", "s", "lower", ("bench.write_csv",),
     lambda st: st["bench.write_csv"].total_s),
    ("bench.write_csv.bytes", "bytes", "lower", ("bench.write_csv",),
     lambda st: st["bench.write_csv"].extra["bytes"]),
    ("cli.ingest.self_s", "s", "lower", ("op.ingest",),
     lambda st: st["op.ingest"].self_s),
)

# Which end-to-end metric, on which workload, each group of layer metrics
# should move.  Printed with every traced run.
LAYER_TARGETS = (
    ("spectral.conv.*",
     "train_samples_per_s.{toeplitz1d,toeplitz2d,convlista}, most on train-desk; "
     "recover_ms.lista-toeplitz at batch 1 (sweep-desk) and large n (paper-scale); "
     "ingest_ms.toeplitz2d. Flat: train_samples_per_s.lista, recover_ms.{ista,fista,lista}"),
    ("nets.forward.*", "every train_samples_per_s.* and recover_ms.lista*"),
    ("nets.io.*", "ingest_ms.toeplitz2d"),
    ("nets.init.s", "setup_s"),
    ("training.*",
     "train_samples_per_s.*, most on train-desk (adam_step weighs most under "
     "lista). Flat: recover_ms.*, ingest_ms.*"),
    ("cplx.*", "recover_ms.{ista,fista} (one Lipschitz estimate per solve)"),
    ("solvers.*",
     "recover_ms.{ista,fista}, most on sweep-desk and paper-scale, and "
     "ingest_ms.ista. Flat: train_samples_per_s.*"),
    ("harmonic.gen_dataset.*, harmonic.io.*", "gen_samples_per_s"),
    ("harmonic.make_instance.*", "recover_ms.*, most on sweep-desk"),
    ("harmonic.build_dictionary.s", "ingest_ms.* and setup_s"),
    ("metrics.*", "recover_ms.lista on sweep-desk, where they weigh most"),
    ("bench.*, cli.ingest.self_s", "recover_ms.* and ingest_ms.*"),
)


def absent_metrics(absent_targets, wraps=WRAPS) -> list[str]:
    """Metrics none of whose span names has a wrapper installed."""
    live = {span for mod, attr, span, _ in wraps
            if f"{mod}.{attr}" not in absent_targets}
    live.add("op.ingest")
    return [name for name, _, _, spans, _ in LAYER_METRICS
            if not any(s in live for s in spans)]


def layer_metrics(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Every per-layer metric from one cycle's span statistics."""
    table = defaultdict(SpanStats, stats)
    return {name: value(table) for name, _, _, _, value in LAYER_METRICS}
