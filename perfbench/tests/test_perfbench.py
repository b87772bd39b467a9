"""Tests of the benchmark harness itself, on a workload small enough to run
in a few seconds."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hunfold import bench, harmonic, nets, training
from perfbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = workloads.Workload(
    name="tiny", why="harness tests",
    problem_1d=workloads.DESK_1D, problem_2d=workloads.DESK_2D, gen_1d=24, gen_2d=6,
    train=tuple((arch, 4 if arch == "toeplitz2d" else 16, 2) for arch in workloads.ARCHS),
    sweeps=(workloads.SweepSpec(workloads.DESK_1D, ("ista", "fista"), 1,
                                workloads.DESK_BUDGETS),
            workloads.SweepSpec(workloads.DESK_1D, ("lista", "lista-toeplitz"), 1)),
    grids=2,
)


def _run(tmp_path, trace, spans_path=None):
    lines = []
    result = harness.run(TINY, seed=3, seconds=0.0, trace=trace, workdir=tmp_path,
                         log=lines.append, setup_repeats=1, spans_path=spans_path)
    return result, lines


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(harness.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tmp_path, trace):
    result, lines = _run(tmp_path, trace)
    assert result.correct, "\n".join(lines)
    spec = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result.metrics) == [name for name, _, _ in spec]
    for name, unit, _ in spec:
        assert result.metrics[name]["unit"] == unit
        assert np.isfinite(result.metrics[name]["value"])
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)} "
        assert any(re.match(pattern, line) for line in lines), name
    out = json.loads(result.line())
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    ops_per_cycle = 1 + 4 + 4 * 3 + 2 * 2     # gen, train, sweep, ingest (one grid a part)
    # warm-up and one measured cycle; a traced run adds its traced cycle
    assert out["attempted"] == ops_per_cycle * (3 if trace else 2)
    assert out["failed"] == 0
    assert lines[0].startswith("machine nproc=")


def test_traced_run_counts_the_work_it_did(tmp_path):
    result, _ = _run(tmp_path, True, spans_path=tmp_path / "spans.tsv")
    m = {name: v["value"] for name, v in result.metrics.items()}
    # 4 archs x one epoch of a single batch each
    assert m["training.steps"] == 4
    # 2 solver methods x 3 noise points x 1 trial, plus ISTA ingest of 2 grids
    assert m["solvers.solves"] == 8
    assert m["cplx.lipschitz.calls"] >= 7
    assert m["spectral.conv.calls"] > 0 and m["spectral.conv.fft_points"] > 0
    assert 0.0 < m["spectral.conv.pad_efficiency"] <= 1.0
    assert result.counts["training.steps"] == 4
    assert (tmp_path / "spans.tsv").read_text().count("\n") > 1


def test_spans_nest_and_self_time_is_not_negative(tmp_path):
    d = harmonic.build_dictionary((16,), harmonic.draw_sampling(16, 8, 1))
    ds = harmonic.gen_dataset(d, 12, 2, 0.01, 2)
    net = nets.init_network("toeplitz1d", d, 2, 0.1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        training.train(net, ds.take(np.arange(8)), ds.take(np.arange(8, 12)),
                       training.TrainConfig(batch_size=4, epochs=1))
        bench.run_sweep(bench.ExperimentConfig(
            shape=(16,), n_obs=8, k=2, noise_powers_db=[0.0],
            methods=["ista"], trials_per_point=2, budgets={"ista": 20}))
    assert absent == []
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"training.backward", "nets.forward", "spectral.conv",
            "solvers.solve", "cplx.soft_threshold"} <= names
    for name, start, end, parent, _, _ in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    for name, st in tracing.summarize(spans).items():
        assert st.self_s >= 0.0, name
        assert st.self_s <= st.total_s + 1e-12, name
    # the originals are back once the block ends
    assert training.forward_planes is nets.forward_planes


def test_removed_wrapped_name_is_reported_absent():
    wraps = tuple(w for w in tracing.WRAPS if w[2] != "spectral.conv") + (
        ("hunfold.nets", "conv_full_planes_removed", "spectral.conv", None),)
    with tracing.installed(tracing.Tracer(), wraps) as absent:
        pass
    assert absent == ["hunfold.nets.conv_full_planes_removed"]
    gone = tracing.absent_metrics(absent, wraps)
    assert gone == [name for name, *_ in tracing.LAYER_METRICS
                    if name.startswith("spectral.conv.")]
    # a metric whose span never occurred reads zero instead of failing
    assert tracing.layer_metrics({})["spectral.conv.pad_efficiency"] == 0.0
