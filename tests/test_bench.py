"""Experiment runner: sweeps, dumps, complexity, IQ grids, CLI determinism."""

import json
import re
import struct

import numpy as np
import pytest

import hunfold as hf
from hunfold.bench import (ExperimentConfig, complexity_report, ingest_iq_grid,
                           metric_rows_table, read_iq_grid, run_single,
                           run_sweep, time_layer_forward, write_csv, write_iq_grid,
                           write_manifest)
from hunfold import bench, cli, nets
from hunfold.cli import main as cli_main
from hunfold.cplx import ComplexArray
from hunfold.harmonic import gaussian
from hunfold.metrics import hit_rate_metric
from hunfold.nets import forward, init_network
from hunfold.solvers import SolverConfig, default_lambda, ista
from hunfold.training import TrainConfig, train

from conftest import SENTINEL, poke


def small_cfg(**kw):
    base = dict(shape=(16,), n_obs=8, k=2, noise_powers_db=[-10.0],
                methods=["ista"], trials_per_point=2, seed=3, sample_seed=4,
                budgets={"ista": 40, "fista": 20})
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_sweep_single_row():
    rows = run_sweep(small_cfg(trials_per_point=1))
    assert len(rows) == 1
    r = rows[0]
    assert r.method == "ista" and r.trials == 1
    assert 0.0 <= r.hit_rate <= 1.0
    assert r.mean_runtime_ms is None  # timing is opt-in


def test_run_sweep_deterministic_rows():
    a = run_sweep(small_cfg(noise_powers_db=[-10.0, 0.0], trials_per_point=3))
    b = run_sweep(small_cfg(noise_powers_db=[-10.0, 0.0], trials_per_point=3))
    assert [(r.method, r.noise_power_db, r.nmse_db, r.hit_rate) for r in a] == \
           [(r.method, r.noise_power_db, r.nmse_db, r.hit_rate) for r in b]


def test_run_sweep_monotone_in_noise():
    cfg = small_cfg(shape=(32,), n_obs=12, k=2,
                    noise_powers_db=[-20.0, -10.0, 0.0, 10.0],
                    trials_per_point=200, budgets={"ista": 30, "fista": 20})
    rows = run_sweep(cfg)
    nmse = [r.nmse_db for r in rows]
    for lo, hi in zip(nmse, nmse[1:]):
        assert hi >= lo - 0.5  # allow half a dB of estimation slack


def test_run_sweep_rejects_missing_or_mismatched_models():
    with pytest.raises(ValueError):
        small_cfg(methods=["lista-toeplitz"])
    d = hf.build_dictionary((8,), hf.draw_sampling(8, 4, seed=0))
    net = init_network("toeplitz1d", d, 2, lam=0.1)
    with pytest.raises(ValueError):
        small_cfg(methods=["lista-toeplitz"], models={"lista-toeplitz": net})
    with pytest.raises(ValueError):
        small_cfg(methods=["nonsense"])
    # arch/method mismatch
    d16 = hf.build_dictionary((16,), hf.draw_sampling(16, 8, seed=0))
    net16 = init_network("toeplitz1d", d16, 2, lam=0.1)
    with pytest.raises(ValueError):
        small_cfg(methods=["lista"], models={"lista": net16})


@pytest.mark.parametrize("field, value, words", [
    ("shape", (0,), "shape must be"), ("shape", (4, 0), "shape must be"),
    ("shape", (4.5,), "shape must be"), ("shape", (True, 4), "shape must be"),
    ("shape", (2, 2, 4), "shape must be"), ("shape", 16, "shape must be"),
    ("n_obs", 0, "n_obs must be an integer from 1 to the grid size 16, got 0"),
    ("n_obs", 17, "n_obs must be an integer from 1 to the grid size 16, got 17"),
    ("n_obs", 8.0, "n_obs must be"),
    ("k", -1, "k must be an integer from 0 to the grid size 16, got -1"),
    ("k", 17, "k must be an integer from 0 to the grid size 16, got 17"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("sample_seed", -2, "sample_seed must be an integer >= 0, got -2"),
    # these two once ran: 2.5 failed inside numpy, True reported trials=True
    ("trials_per_point", 2.5, "trials_per_point must be an integer >= 1, got 2.5"),
    ("trials_per_point", True, "trials_per_point must be an integer >= 1, got True")])
def test_experiment_config_names_a_bad_problem_field(field, value, words):
    # each once failed late, inside numpy ("negative dimensions are not
    # allowed", "cannot reshape array of size 0", "expected non-negative
    # integer"), or not at all
    with pytest.raises(ValueError) as err:
        small_cfg(**{field: value})
    assert words in str(err.value)


# each learned method and the architectures that served it when the map
# lived in bench
METHOD_ARCHS = {"lista": ("lista",), "convlista": ("convlista",),
                "lista-toeplitz": ("toeplitz1d", "toeplitz2d")}


def test_the_architecture_table_serves_each_method_as_before():
    assert nets.ARCHS == ("lista", "toeplitz1d", "toeplitz2d", "convlista")
    assert sorted(bench.LEARNED_METHODS) == sorted(METHOD_ARCHS)
    sampling = hf.draw_sampling(8, 4, seed=0)
    d1 = hf.build_dictionary((8,), sampling)
    d2 = hf.build_dictionary((2, 4), sampling)
    for arch in nets.ARCHS:
        net = init_network(arch, d2 if arch == "toeplitz2d" else d1, 1, lam=0.1)
        for method, archs in METHOD_ARCHS.items():
            if arch in archs:
                assert nets.check_model(method, net, net.shape, sampling) is net
                continue
            with pytest.raises(ValueError, match=f"cannot serve method {method!r}"):
                nets.check_model(method, net, net.shape, sampling)
    # and the CLI's flags come from the same table
    parser, commands = cli.build_parser()
    for name in ("sweep", "single"):
        dests = {a.dest for a in commands[name]._actions}
        assert {f"model_{m.replace('-', '_')}" for m in METHOD_ARCHS} <= dests
    arch_flag = next(a for a in commands["train"]._actions if a.dest == "arch")
    assert tuple(arch_flag.choices) == nets.ARCHS


def sampling_cfg(sample_seed, net):
    """A -20 dB lista-toeplitz sweep on the desk grid (M=64, N=16) served by ``net``."""
    return ExperimentConfig(shape=(64,), n_obs=16, k=2, noise_powers_db=[-20.0],
                            methods=["lista-toeplitz"], trials_per_point=4, seed=1,
                            sample_seed=sample_seed, models={"lista-toeplitz": net})


def test_experiment_config_refuses_a_model_of_another_sampling_set():
    # such a network once scored silently: an ISTA-embedding toeplitz1d built
    # on sample seed 0 read hit rate 0.835 at sample seed 0 and 0.110 at seed 1
    d = hf.build_dictionary((64,), hf.draw_sampling(64, 16, seed=0))
    net = init_network("toeplitz1d", d, 2, lam=0.1)
    cfg = sampling_cfg(0, net)
    assert np.array_equal(cfg.sampling.omega, d.sampling.omega)
    assert run_sweep(cfg)[0].trials == 4
    with pytest.raises(ValueError) as err:
        sampling_cfg(1, net)
    assert str(err.value) == ("method 'lista-toeplitz': model was built for other "
                              "sampling indices than those of the experiment")
    with pytest.raises(ValueError, match="other sampling indices than those of the IQ grid"):
        nets.check_model(None, net, (64,), hf.draw_sampling(64, 16, seed=1), "the IQ grid")


@pytest.mark.parametrize("sidecar", [None, "{}"], ids=["missing", "no-omega"])
def test_a_model_recording_no_sampling_set_serves_any_set_of_its_grid(tmp_path, sidecar):
    d = hf.build_dictionary((64,), hf.draw_sampling(64, 16, seed=0))
    path = tmp_path / "m.hun"
    hf.save_network(path, init_network("toeplitz1d", d, 2, lam=0.1))
    side = tmp_path / "m.hun.json"
    if sidecar is None:
        side.unlink()
    else:
        side.write_text(sidecar)
    net = hf.load_network(path)
    assert net.sampling is None
    for seed in (0, 1):
        assert run_sweep(sampling_cfg(seed, net))[0].trials == 4
    with pytest.raises(ValueError, match="model is for grid"):
        ExperimentConfig(shape=(64,), n_obs=15, k=2, noise_powers_db=[0.0],
                         methods=["lista-toeplitz"], models={"lista-toeplitz": net})


def test_sweeps_and_dumps_observe_through_the_configs_sampling_set(monkeypatch):
    cfg = small_cfg(methods=["ista", "fista"])
    assert np.array_equal(cfg.sampling.omega, hf.draw_sampling(16, 8, seed=4).omega)
    built = []
    build = bench.build_dictionary
    monkeypatch.setattr(bench, "draw_sampling", lambda *a: pytest.fail("a second draw"))
    monkeypatch.setattr(bench, "build_dictionary",
                        lambda shape, s: built.append(s) or build(shape, s))
    run_sweep(cfg)
    run_single(cfg)
    assert len(built) == 2 and all(s is cfg.sampling for s in built)


def test_run_sweep_refuses_zero_components_before_any_recovery(monkeypatch):
    # k = 0 once failed only after a whole noise point was recovered
    def recover(*args):
        raise AssertionError("a recovery ran")
    monkeypatch.setattr(bench, "_recover", recover)
    with pytest.raises(ValueError, match="k must be >= 1 for a sweep"):
        run_sweep(small_cfg(k=0))


def test_run_single_zero_amplitude_dump():
    cfg = small_cfg(k=0)
    # zero components: k=0 draws an empty spectrum, dump must be all zero
    header, rows = run_single(cfg, offgrid=False)
    assert header[:2] == ["index", "true_mag"]
    assert len(rows) == 16
    assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)


def test_run_single_ongrid_recovers_support():
    cfg = small_cfg(shape=(64,), n_obs=16, k=2, seed=9,
                    budgets={"ista": 600, "fista": 200},
                    lambda_scale=0.02, methods=["ista", "fista"])
    header, rows = run_single(cfg, offgrid=False)
    mags = np.array([r[1] for r in rows])
    support = set(np.flatnonzero(mags > 0).tolist())
    for col in (2, 3):
        est = np.array([r[col] for r in rows])
        top = set(np.argsort(-est, kind="stable")[: len(support)].tolist())
        assert top == support


def test_run_single_noise_is_not_a_copy_of_the_signal_draws(monkeypatch):
    # at seed 9, M=32, k=2, noise drawn by a second generator on the same
    # SeedSequence would repeat the four amplitude normals as noise normals 2-5
    sigma2 = 0.01
    cfg = small_cfg(shape=(32,), n_obs=12, k=2, seed=9, methods=["ista"])
    blocks = []
    recover = hf.bench._recover
    monkeypatch.setattr(hf.bench, "_recover",
                        lambda method, d, y, c: blocks.append(y.z[:, 0].copy())
                        or recover(method, d, y, c))
    run_single(cfg, sigma2=sigma2)
    (y,) = blocks
    d = hf.build_dictionary((32,), hf.draw_sampling(32, 12, seed=cfg.sample_seed))
    seq = np.random.SeedSequence(cfg.seed)
    inst = hf.make_instance(d, cfg.k, sigma2, seq)
    assert np.array_equal(y, inst.y.z)          # one stream gives both
    x = inst.x_true.z
    noise = (y - d.phi.z @ x) / np.sqrt(sigma2 / 2.0)
    signal = x[x != 0] / np.sqrt(0.5)
    noise_draws = np.concatenate([noise.real, noise.imag])
    signal_draws = np.concatenate([signal.real, signal.imag])
    assert np.min(np.abs(noise_draws[:, None] - signal_draws[None, :])) > 1e-6


def test_run_single_off_the_grid_reports_the_on_grid_truth(tmp_path):
    # one seed, one draw: the anchors and amplitudes are the on-grid spectrum
    flags = ["single", "--m", "32", "--n", "12", "--k", "3", "--seed", "9",
             "--sigma2", "0.01", "--methods", "ista"]
    on, off = tmp_path / "on.csv", tmp_path / "off.csv"
    assert cli_main(flags + ["--out", str(on)]) == 0
    assert cli_main(flags + ["--offgrid", "--out", str(off)]) == 0
    true_mag = [[line.split(",")[1] for line in path.read_text().splitlines()]
                for path in (on, off)]
    assert true_mag[0] == true_mag[1]
    assert sum(v != "0.0" for v in true_mag[0][1:]) == 3


def test_complexity_report_counts():
    header, rows = complexity_report([512, 1024], n_obs=64, timing=False)
    assert rows[0][2] == 512 * 512 and rows[0][3] == 1023
    assert rows[1][2] == 1024 * 1024 and rows[1][3] == 2047
    # storage ratio example: 1023 / 262144, about 0.39%
    assert abs(rows[0][4] - 1023 / 262144) < 1e-12
    # doubling the grid quadruples dense storage but only doubles the kernel
    assert rows[1][2] == 4 * rows[0][2]
    assert rows[1][3] == 2 * rows[0][3] + 1


@pytest.mark.parametrize("size", [16.5, np.float64(16.0), True])
def test_complexity_report_refuses_a_grid_size_that_is_not_an_integer(size):
    # a size was once taken through int(), so 16.5 reported a 16-cell grid
    with pytest.raises(ValueError, match=rf"^grid size M must be an integer >= 1, "
                                         rf"got {re.escape(repr(size))}$"):
        complexity_report([size], 8, timing=False)


def test_iq_round_trip_bit_exact(tmp_path):
    d = hf.build_dictionary((4, 8), hf.draw_sampling(32, 10, seed=5))
    ds = hf.gen_dataset(d, 3, 2, 0.05, seed=6)
    y = ComplexArray(ds.obs.re[:, 1].copy(), ds.obs.im[:, 1].copy())
    path = tmp_path / "grid.hiq"
    write_iq_grid(path, (4, 8), d.sampling.omega, y)
    shape, omega, back = read_iq_grid(path)
    assert shape == (4, 8)
    assert np.array_equal(omega, d.sampling.omega)
    assert np.array_equal(back.re, y.re) and np.array_equal(back.im, y.im)
    y2, d2 = ingest_iq_grid(path)
    assert d2.shape == (4, 8)
    assert np.array_equal(d2.sampling.omega, d.sampling.omega)
    assert np.max(np.abs(d2.phi.z - d.phi.z)) < 1e-12


def test_iq_malformed_files(tmp_path):
    empty = tmp_path / "empty.hiq"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        read_iq_grid(empty)
    bad = tmp_path / "bad.hiq"
    bad.write_bytes(b"HIQ1" + (123456).to_bytes(4, "little"))
    with pytest.raises(ValueError):
        read_iq_grid(bad)
    # payload length disagreeing with the index set
    d = hf.build_dictionary((2, 4), hf.draw_sampling(8, 3, seed=1))
    good = tmp_path / "good.hiq"
    write_iq_grid(good, (2, 4), d.sampling.omega,
                  ComplexArray.zeros((3,)))
    trunc = tmp_path / "trunc.hiq"
    trunc.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(ValueError):
        read_iq_grid(trunc)


def test_iq_aircraft_style_recovery(tmp_path):
    # a few scatterers sharing one second-axis cell, like a single-velocity
    # target distributed over range: both solver and trained net must find them
    m1, m2, n, k = 8, 8, 32, 3
    d = hf.build_dictionary((m1, m2), hf.draw_sampling(m1 * m2, n, seed=31))
    rng = np.random.default_rng(32)
    vel_col = 5
    ranges = rng.choice(m1, size=k, replace=False)
    x = ComplexArray.zeros((m1 * m2,))
    for r in ranges:
        amp = 1.0 + 0.5 * rng.uniform()
        ph = rng.uniform(0, 2 * np.pi)
        idx = int(r) * m2 + vel_col
        x.re[idx] = amp * np.cos(ph)
        x.im[idx] = amp * np.sin(ph)
    y = ComplexArray(d.phi.z @ x.z)
    y = ComplexArray(y.z + gaussian(np.random.default_rng(33), y.shape, np.sqrt(0.01 / 2.0)))
    path = tmp_path / "aircraft.hiq"
    write_iq_grid(path, (m1, m2), d.sampling.omega, y)
    y2, d2 = ingest_iq_grid(path)

    res = ista(d2, y2, SolverConfig(lam=default_lambda(d2, y2, 0.02),
                                    max_iter=800, tol=0.0))
    assert hit_rate_metric(res.x_hat, x, k) == 1.0

    tr = hf.gen_dataset(d, 2500, k, 0.01, seed=34)
    vl = hf.gen_dataset(d, 250, k, 0.01, seed=35)
    net0 = init_network("toeplitz2d", d, 6, lam=0.1)
    net, _ = train(net0, tr, vl, TrainConfig(epochs=12, seed=3))
    assert hit_rate_metric(forward(net, y2), x, k) == 1.0


def test_write_csv_fixed_schema(tmp_path):
    rows = run_sweep(small_cfg())
    header, table = metric_rows_table(rows)
    path = tmp_path / "rows.csv"
    write_csv(path, header, table)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "method,noise_power_db,nmse_db,hit_rate,mean_runtime_ms,trials"
    assert lines[1].startswith("ista,-10.0,")
    assert ",," in lines[1]  # timing column present but empty
    assert text.endswith("\n") and "\r" not in text


def test_write_csv_numpy_scalars_are_plain_numbers(tmp_path):
    path = tmp_path / "np.csv"
    write_csv(path, ["name", "a", "b", "c"],
              [["x", np.float64(0.5), np.float64(-1e-300), np.int64(3)],
               ["y", 0.25, np.float64(np.pi), None]])
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(",")[1:]:
            if cell:
                float(cell)
    assert path.read_text().splitlines()[1] == "x,0.5,-1e-300,3"


def test_manifest_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(a, {"k": 2, "shape": [16]})
    write_manifest(b, {"k": 2, "shape": [16]})
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["tool"] == "hunfold" and "noise_db_convention" in doc


# -- CLI ----------------------------------------------------------------------


def test_cli_end_to_end_1d(tmp_path):
    data = tmp_path / "train.hud"
    model = tmp_path / "net.hun"
    sweep_csv = tmp_path / "sweep.csv"
    assert cli_main(["gen-data", "--problem", "1d", "--m", "24", "--n", "8",
                     "--k", "2", "--sigma2", "0.1", "--samples", "300",
                     "--seed", "5", "--sample-seed", "6",
                     "--out", str(data)]) == 0
    assert data.exists() and (tmp_path / "train.hud.json").exists()
    assert cli_main(["train", "--data", str(data), "--arch", "toeplitz1d",
                     "--depth", "2", "--epochs", "2", "--batch", "64",
                     "--seed", "1", "--out", str(model)]) == 0
    assert model.exists()
    assert cli_main(["sweep", "--problem", "1d", "--m", "24", "--n", "8",
                     "--k", "2", "--noise-db=-10,0", "--trials", "3",
                     "--methods", "ista,lista-toeplitz",
                     "--model-lista-toeplitz", str(model),
                     "--budget-ista", "30", "--seed", "5", "--sample-seed", "6",
                     "--out", str(sweep_csv)]) == 0
    lines = sweep_csv.read_text().strip().split("\n")
    assert len(lines) == 1 + 4  # header + 2 methods x 2 noise points


def test_cli_sweep_byte_identical(tmp_path):
    def run(out):
        assert cli_main(["sweep", "--problem", "1d", "--m", "16", "--n", "8",
                         "--k", "2", "--noise-db=-5,5", "--trials", "4",
                         "--methods", "ista,fista", "--budget-ista", "25",
                         "--budget-fista", "15", "--seed", "9",
                         "--sample-seed", "2", "--out", str(out)]) == 0

    one = tmp_path / "one.csv"
    run(one)
    csv_first = one.read_bytes()
    manifest_first = (tmp_path / "one.csv.manifest.json").read_bytes()
    run(one)  # same invocation again, including the output path
    assert one.read_bytes() == csv_first
    assert (tmp_path / "one.csv.manifest.json").read_bytes() == manifest_first
    two = tmp_path / "two.csv"
    run(two)  # the data rows do not depend on where they are written
    assert two.read_bytes() == csv_first


def test_cli_single_and_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "problem": "1d", "m": 16, "n": 8, "k": 2, "methods": "ista",
        "budget_ista": 30, "seed": 4, "sample_seed": 1}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["single", "--config", str(cfg_file), "--out", str(a)]) == 0
    assert cli_main(["single", "--config", str(cfg_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # flags override the config document
    c = tmp_path / "c.csv"
    assert cli_main(["single", "--config", str(cfg_file), "--m", "32",
                     "--out", str(c)]) == 0
    assert len(c.read_text().strip().split("\n")) == 1 + 32


def test_cli_ingest(tmp_path):
    data = tmp_path / "pairs.hud"
    iq = tmp_path / "grid.hiq"
    out = tmp_path / "rec.csv"
    assert cli_main(["gen-data", "--problem", "2d", "--m1", "4", "--m2", "6",
                     "--n", "12", "--k", "2", "--sigma2", "0.01",
                     "--samples", "3", "--seed", "8", "--sample-seed", "3",
                     "--out", str(data), "--export-iq", str(iq),
                     "--export-index", "1"]) == 0
    assert cli_main(["ingest", "--path", str(iq), "--budget", "200",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,axis1_cell,axis2_cell,magnitude"
    assert len(lines) == 1 + 24
    # ingest output matches recovering straight from the dataset column
    ds = hf.read_dataset(data)
    y = ComplexArray(ds.obs.re[:, 1].copy(), ds.obs.im[:, 1].copy())
    y2, d2 = ingest_iq_grid(iq)
    assert np.array_equal(y2.re, y.re) and np.array_equal(y2.im, y.im)


def test_cli_ingest_above_the_crossover_builds_no_phi(tmp_path, monkeypatch):
    # a 64x64 grid at N=512: phi would hold 2M entries (32 MB); the solve
    # takes its products by FFT and L in closed form
    d = hf.build_dictionary((64, 64), hf.draw_sampling(4096, 512, seed=4))
    assert d.matrix_free
    support = np.array([70, 1500, 3001])
    x = np.zeros(d.total, dtype=complex)
    x[support] = [1.0, 0.8j, -0.9]
    iq, out = tmp_path / "grid.hiq", tmp_path / "rec.csv"
    write_iq_grid(iq, (64, 64), d.sampling.omega, ComplexArray(d.apply(x)))
    seen = []

    def ingest(path):
        y, d = ingest_iq_grid(path)
        seen.append(d)
        return y, d

    monkeypatch.setattr(cli, "ingest_iq_grid", ingest)
    assert cli_main(["ingest", "--path", str(iq), "--budget", "100", "--out", str(out)]) == 0
    assert "phi" not in seen[0].__dict__
    mags = np.array([float(line.split(",")[3]) for line in out.read_text().split("\n")[1:-1]])
    assert mags.shape == (4096,)
    assert set(np.argsort(-mags)[:3].tolist()) == set(support.tolist())


def test_cli_complexity_no_timing(tmp_path):
    out = tmp_path / "cx.csv"
    assert cli_main(["complexity", "--sizes", "64,128", "--n", "16",
                     "--no-timing", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "4096"


def test_cli_missing_required_flag(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["gen-data", "--problem", "1d", "--m", "8", "--n", "4",
                  "--samples", "5"])  # no --out


@pytest.mark.parametrize("frac", ["1.0", "1.5", "nan"])
def test_cli_train_val_frac_must_leave_both_splits(tmp_path, frac):
    data = tmp_path / "d.hud"
    model = tmp_path / "n.hun"
    assert cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "1",
                     "--samples", "20", "--out", str(data)]) == 0
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", "lista",
                  "--val-frac", frac, "--depth", "1", "--epochs", "1",
                  "--out", str(model)])
    assert "--val-frac" in str(err.value.code)
    assert not model.exists()


@pytest.mark.parametrize("arch, problem", [
    ("toeplitz2d", ["--m", "12"]),
    ("toeplitz1d", ["--problem", "2d", "--m1", "3", "--m2", "4"])])
def test_cli_train_arch_must_fit_the_data_grid(tmp_path, arch, problem):
    data = tmp_path / "d.hud"
    model = tmp_path / "n.hun"
    assert cli_main(["gen-data", *problem, "--n", "4", "--k", "1",
                     "--samples", "20", "--out", str(data)]) == 0
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", arch, "--depth", "1",
                  "--epochs", "1", "--out", str(model)])
    msg = str(err.value.code)
    assert msg.startswith(f"--arch {arch}: ") and f"--data {data}" in msg
    assert not model.exists()


# what differs between --val and --data, and the reason nets.check_model gives
VAL_REFUSALS = {
    "shape [8] against [16]": "model is for grid (16,) with 4 observations, "
                              "the data is grid (8,) with 4",
    "n_obs 5 against 4": "model is for grid (16,) with 4 observations, "
                         "the data is grid (16,) with 5",
    "the sampling indices differ": "model was built for other sampling indices "
                                   "than those of the data"}


@pytest.mark.parametrize("val_flags, detail", [
    (["--m", "8", "--sample-seed", "11"], "shape [8] against [16]"),
    (["--m", "16", "--n", "5", "--sample-seed", "11"], "n_obs 5 against 4"),
    (["--m", "16", "--sample-seed", "12"], "the sampling indices differ")])
def test_cli_train_val_must_hold_the_data_problem(tmp_path, val_flags, detail):
    data, val = tmp_path / "d.hud", tmp_path / "v.hud"
    model = tmp_path / "n.hun"
    assert cli_main(["gen-data", "--m", "16", "--n", "4", "--k", "1",
                     "--sample-seed", "11", "--samples", "20", "--out", str(data)]) == 0
    assert cli_main(["gen-data", "--n", "4", "--k", "1", *val_flags,
                     "--samples", "20", "--seed", "1", "--out", str(val)]) == 0
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--val", str(val), "--arch", "lista",
                  "--depth", "1", "--epochs", "1", "--out", str(model)])
    assert str(err.value.code) == f"--val {val}: {VAL_REFUSALS[detail]}"
    assert not model.exists()


@pytest.mark.parametrize("flag", ["data", "val"])
def test_cli_train_data_needs_its_sampling_indices(tmp_path, flag):
    model = tmp_path / "n.hun"
    paths = {"data": tmp_path / "d.hud", "val": tmp_path / "v.hud"}
    for path in paths.values():
        assert cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "1",
                         "--samples", "20", "--out", str(path)]) == 0
    (tmp_path / (paths[flag].name + ".json")).unlink()
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(paths["data"]), "--val", str(paths["val"]),
                  "--arch", "lista", "--depth", "1", "--epochs", "1", "--out", str(model)])
    assert str(err.value.code).startswith(f"--{flag} {paths[flag]}: no sampling indices")
    assert not model.exists()


@pytest.mark.parametrize("edit, want", [
    (lambda side: {**side, "omega": side["omega"][:-1] + [99]},
     "sampling set of 8 indices up to 99 does not fit n_obs = 8 on a grid of 16"),
    (lambda side: {**side, "omega": "abc"}, "sampling indices must be a 1-D list"),
    (lambda side: {**side, "omega": side["omega"][:3]}, "sampling set of 3 indices up to"),
    (lambda side: json.dumps(side)[:-2], "malformed JSON"),
    (lambda side: {**side, "sampling_seed": "abc"},
     "sampling seed must be an integer >= 0, got 'abc'"),
    (lambda side: {key: val for key, val in side.items() if key != "omega"},
     "sampling indices must be a 1-D list"),
], ids=["past-the-grid", "not-a-list", "too-few", "malformed", "bad-sampling-seed", "no-omega"])
def test_cli_train_names_a_sidecar_that_does_not_fit(tmp_path, edit, want):
    data, model = tmp_path / "d.hud", tmp_path / "n.hun"
    assert cli_main(["gen-data", "--m", "16", "--n", "8", "--k", "2",
                     "--samples", "20", "--out", str(data)]) == 0
    sidecar = tmp_path / "d.hud.json"
    side = edit(json.loads(sidecar.read_text()))
    sidecar.write_text(side if isinstance(side, str) else json.dumps(side))
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", "lista", "--depth", "1",
                  "--epochs", "1", "--out", str(model)])
    msg = str(err.value.code)
    assert msg.startswith(f"--data {data}: {sidecar}: {want}") and "\n" not in msg
    assert not model.exists()


def junk_file(tmp_path):
    """A file of no hunfold format: its magic bytes match none."""
    path = tmp_path / "j.hud"
    path.write_bytes(b"JUNK" + bytes(60))
    return path


@pytest.mark.parametrize("flag", ["--data", "--val"])
def test_cli_train_names_an_unreadable_input(tmp_path, flag):
    data, model = tmp_path / "d.hud", tmp_path / "n.hun"
    assert cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "1",
                     "--samples", "20", "--out", str(data)]) == 0
    files = {"--data": str(data), "--val": str(data), flag: str(junk_file(tmp_path))}
    with pytest.raises(SystemExit) as err:
        cli_main(["train", *(a for kv in files.items() for a in kv), "--arch", "lista",
                  "--depth", "1", "--epochs", "1", "--out", str(model)])
    assert str(err.value.code) == f"{flag} {files[flag]}: not a dataset file (bad magic)"
    assert not model.exists()


def test_cli_train_names_a_missing_data_file(tmp_path):
    missing, model = tmp_path / "absent.hud", tmp_path / "n.hun"
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(missing), "--arch", "lista",
                  "--depth", "1", "--epochs", "1", "--out", str(model)])
    assert str(err.value.code).startswith(f"--data {missing}: cannot read (")
    assert not model.exists()


@pytest.mark.parametrize("method", ["lista", "convlista", "lista-toeplitz"])
def test_cli_sweep_names_an_unreadable_model(tmp_path, method):
    junk, out = junk_file(tmp_path), tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--m", "8", "--n", "4", "--k", "1", "--trials", "1",
                  "--methods", method, f"--model-{method}", str(junk), "--out", str(out)])
    assert str(err.value.code) == f"--model-{method} {junk}: not a model file (bad magic)"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "single"])
def test_cli_sweep_and_single_name_a_model_of_another_grid(tmp_path, command):
    model, out = tmp_path / "lista.hun", tmp_path / "s.csv"
    d = hf.build_dictionary((32,), hf.draw_sampling(32, 12, seed=3))
    hf.save_network(model, init_network("lista", d, 1, lam=0.1))
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--m", "8", "--n", "4", "--k", "1", "--methods", "lista",
                  "--model-lista", str(model), "--out", str(out)])
    assert str(err.value.code) == (f"--model-lista {model}: model is for grid (32,) "
                                   f"with 12 observations, the experiment is grid "
                                   f"(8,) with 4")
    assert not out.exists()


def output_argv(tmp_path, command, out):
    """A run of ``command`` writing ``out``, on inputs written under
    ``tmp_path / "in"``."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    data, iq = inputs / "d.hud", inputs / "g.hiq"
    assert cli_main(["gen-data", "--problem", "2d", "--m1", "2", "--m2", "4", "--n", "4",
                     "--k", "1", "--samples", "20", "--out", str(data),
                     "--export-iq", str(iq)]) == 0
    return {
        "gen-data": ["gen-data", "--problem", "2d", "--m1", "2", "--m2", "4", "--n", "4",
                     "--k", "1", "--samples", "3", "--out", out,
                     "--export-iq", out + ".hiq"],
        "train": ["train", "--data", str(data), "--arch", "lista", "--depth", "1",
                  "--epochs", "1", "--out", out],
        "sweep": ["sweep", "--m", "8", "--n", "4", "--k", "1", "--trials", "1",
                  "--out", out],
        "single": ["single", "--m", "8", "--n", "4", "--k", "1", "--out", out],
        "complexity": ["complexity", "--sizes", "8", "--no-timing", "--out", out],
        "ingest": ["ingest", "--path", str(iq), "--out", out],
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--out"), ("gen-data", "--export-iq"), ("train", "--out"),
    ("sweep", "--out"), ("single", "--out"), ("complexity", "--out"),
    ("ingest", "--out")])
def test_cli_names_an_unwritable_output(tmp_path, monkeypatch, command, flag):
    argv = output_argv(tmp_path, command, str(tmp_path / "o"))
    bad = str(tmp_path / "missing" / "o")
    argv[argv.index(flag) + 1] = bad
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    missing = tmp_path / "missing"
    assert str(err.value.code) == f"{flag} {bad}: cannot write (no directory {missing})"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]   # nothing written
    # the same path from a --config file is refused too, even under a
    # writable flag that overrides it
    config = tmp_path / "in" / "c.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): bad}))
    argv[argv.index(flag) + 1] = str(tmp_path / "o")
    with pytest.raises(SystemExit) as err:
        cli_main(argv + ["--config", str(config)])
    assert str(err.value.code) == f"{flag} {bad}: cannot write (no directory {missing})"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


@pytest.mark.parametrize("command, sidecar", [
    ("gen-data", ".json"), ("train", ".json"), ("sweep", ".manifest.json"),
    ("single", ".manifest.json"), ("ingest", ".manifest.json")])
def test_cli_names_a_sidecar_that_is_a_directory(tmp_path, monkeypatch, command, sidecar):
    out = str(tmp_path / "o")
    argv = output_argv(tmp_path, command, out)
    (tmp_path / ("o" + sidecar)).mkdir()
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    assert str(err.value.code) == (f"--out {out}: cannot write (its sidecar "
                                   f"{out + sidecar} is a directory)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "o" + sidecar]


def iq_and_model(tmp_path, model_shape=(4, 6)):
    """An exported 4x6 IQ grid of 12 samples and an untrained toeplitz2d
    model file on ``model_shape`` with the same count."""
    data, iq, model = tmp_path / "pairs.hud", tmp_path / "grid.hiq", tmp_path / "n.hun"
    assert cli_main(["gen-data", "--problem", "2d", "--m1", "4", "--m2", "6",
                     "--n", "12", "--k", "2", "--samples", "2", "--sample-seed", "3",
                     "--out", str(data), "--export-iq", str(iq)]) == 0
    total = int(np.prod(model_shape))
    d = hf.build_dictionary(model_shape, hf.draw_sampling(total, 12, seed=3))
    hf.save_network(model, init_network("toeplitz2d", d, 1, lam=0.1))
    return iq, model


@pytest.mark.parametrize("flag", ["--path", "--model"])
def test_cli_ingest_names_an_unreadable_input(tmp_path, flag):
    iq, model = iq_and_model(tmp_path)
    files = {"--path": str(iq), "--model": str(model), flag: str(junk_file(tmp_path))}
    out = tmp_path / "rec.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", *(a for kv in files.items() for a in kv), "--out", str(out)])
    kind = "an IQ grid" if flag == "--path" else "a model"
    assert str(err.value.code) == f"{flag} {files[flag]}: not {kind} file (bad magic)"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("omega", [0.9, 1.5, 2.2, 5.7]), ("omega", [False, True, 3, 5]),
    ("omega", ["0", "1", "3", "5"]), ("m1", 4.9), ("m1", "4")],
    ids=["float-omega", "bool-omega", "string-omega", "float-m1", "string-m1"])
def test_cli_ingest_names_a_header_of_non_integers(tmp_path, key, value):
    # each of these was once read as integers: [0.9, 1.5, ...] as [0, 1, 2, 5]
    head = {"m1": 4, "m2": 6, "omega": [0, 1, 3, 5], key: value}
    text = json.dumps(head, sort_keys=True).encode("utf-8")
    iq, out = tmp_path / "g.hiq", tmp_path / "rec.csv"
    iq.write_bytes(b"HIQ1" + struct.pack("<I", len(text)) + text + bytes(16 * 4))
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", str(iq), "--out", str(out)])
    assert str(err.value.code).startswith(f"--path {iq}: malformed header (")
    assert not out.exists()


def test_cli_ingest_names_a_non_finite_sample(tmp_path):
    # one NaN sample once ended ingest in a SolverConfig traceback
    iq, out = tmp_path / "g.hiq", tmp_path / "rec.csv"
    second = complex(23456.789, -7654.321)
    write_iq_grid(iq, (4, 6), [0, 1, 3, 5], ComplexArray(np.array([1.0, SENTINEL, 2.0, second])))
    # write_iq_grid refuses these values themselves
    poke(iq, complex(np.nan, 0.0))
    poke(iq, complex(np.inf, 0.0), sentinel=second)
    with pytest.raises(ValueError) as err:
        read_iq_grid(iq)
    assert str(err.value) == f"{iq}: sample 1 is not finite"
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", str(iq), "--out", str(out)])
    assert str(err.value.code) == f"--path {iq}: sample 1 is not finite"
    assert not out.exists()


@pytest.mark.parametrize("case", ["train", "val", "ingest", "lambda", "model"])
def test_cli_names_the_input_of_an_overflow(tmp_path, case):
    # a finite 1e300 observation (or 1e308 samples, or a 1e308 weight) once
    # ended train and ingest in a NumericError or ValueError traceback;
    # numpy warns of the overflow
    data, big, iq, big_iq, huge_iq = (tmp_path / n for n in (
        "d.hud", "big.hud", "g.hiq", "big.hiq", "huge.hiq"))
    assert cli_main(["gen-data", "--problem", "2d", "--m1", "4", "--m2", "6", "--n", "12",
                     "--k", "2", "--samples", "40", "--out", str(data),
                     "--export-iq", str(iq)]) == 0
    ds = hf.read_dataset(data)
    ds.obs.z[0, 0] = 1e300
    hf.write_dataset(big, ds)
    shape, omega, y = read_iq_grid(iq)
    y.z[0] = 1e300
    write_iq_grid(big_iq, shape, omega, y)
    y.z[:] = 1e308
    write_iq_grid(huge_iq, shape, omega, y)
    model = tmp_path / "m.hun"
    d = hf.build_dictionary(shape, hf.draw_sampling(24, 12, 0))
    net = init_network("toeplitz2d", d, 1, lam=0.1)
    net.layers[0].filt.z[:] = 1e308
    hf.save_network(model, net)
    train = ["train", "--arch", "lista", "--depth", "2", "--epochs", "1"]
    argv, want = {
        "train": (train + ["--data", str(big)], f"--data {big}: epoch 1, batch 0: loss diverged"),
        "val": (train + ["--data", str(data), "--val", str(big)],
                f"--val {big}: non-finite validation NMSE before training"),
        "ingest": (["ingest", "--path", str(big_iq)],
                   f"--path {big_iq}: non-finite objective at iteration 1"),
        "lambda": (["ingest", "--path", str(huge_iq)], f"--path {huge_iq}: non-finite "
                   "penalty weight (max |phi^H y| overflows)"),
        "model": (["ingest", "--path", str(iq), "--model", str(model)],
                  f"--path {iq}, --model {model}: non-finite activation after layer 0"),
    }[case]
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning), pytest.raises(SystemExit) as err:
        cli_main(argv + ["--out", str(out)])
    assert str(err.value.code) == want
    assert not out.exists()


@pytest.mark.parametrize("case", ["empty-val", "empty-data", "empty-data-alone",
                                  "zero-data", "zero-data-alone", "zero-val", "zero-split"])
def test_cli_train_refuses_a_set_it_cannot_learn_from(tmp_path, case):
    # these once ended in a ValueError traceback: "empty batch", "training set
    # is empty" or "loss undefined: all-zero ground truth batch"
    data, zero, empty, split = (tmp_path / n for n in ("d.hud", "z.hud", "e.hud", "s.hud"))
    for k, path in (("2", data), ("0", zero)):
        assert cli_main(["gen-data", "--m", "16", "--n", "8", "--k", k,
                         "--samples", "40", "--out", str(path)]) == 0
    ds = hf.read_dataset(data)
    hf.write_dataset(empty, ds.take(np.arange(0)))
    ds.truth.z[:, -4:] = 0.0    # exactly the validation split of --val-frac 0.1
    hf.write_dataset(split, ds)
    def undefined(name):
        return f"every truth spectrum of {name} is zero, so its NMSE loss is undefined"
    last4 = "(its validation split, the last 4 samples)"
    argv, want = {
        "empty-val": ([data, "--val", empty], f"--val {empty}: the data holds no samples"),
        "empty-data": ([empty, "--val", data],
                       f"--data {empty}: the training data holds no samples"),
        "empty-data-alone": ([empty], "--val-frac 0.1 leaves no training sample of the 0 "
                                      f"in --data {empty}"),
        "zero-data": ([zero, "--val", data], f"--data {zero}: {undefined('the training data')}"),
        "zero-data-alone": ([zero], f"--data {zero} {last4}: {undefined('the data')}"),
        "zero-val": ([data, "--val", zero], f"--val {zero}: {undefined('the data')}"),
        "zero-split": ([split], f"--data {split} {last4}: {undefined('the data')}"),
    }[case]
    out = tmp_path / "o.hun"
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", *map(str, argv), "--arch", "lista", "--depth", "1",
                  "--epochs", "1", "--out", str(out)])
    assert str(err.value.code) == want
    assert not out.exists()


def test_cli_train_names_a_batch_of_zero_truth_spectra(tmp_path):
    # zero truth columns among the training samples, one per batch of one:
    # this once ended in a "loss undefined" ValueError traceback
    data, out = tmp_path / "d.hud", tmp_path / "o.hun"
    assert cli_main(["gen-data", "--m", "16", "--n", "8", "--k", "2",
                     "--samples", "40", "--out", str(data)]) == 0
    ds = hf.read_dataset(data)
    ds.truth.z[:, :4] = 0.0
    hf.write_dataset(data, ds)
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", "lista", "--depth", "2",
                  "--epochs", "1", "--batch", "1", "--out", str(out)])
    assert re.fullmatch(rf"--data {re.escape(str(data))}: epoch 1, batch \d+: every "
                        "truth spectrum of the batch is zero, so its NMSE loss is "
                        "undefined", str(err.value.code))
    assert not out.exists()


@pytest.mark.parametrize("head, words", [
    ({"m1": 4, "m2": 6, "omega": []}, "malformed header (omega must list at least one index)"),
    ({"m1": 2 ** 40, "m2": 1, "omega": [0]}, "the dictionary of the 1099511627776 x 1 "
                                              "grid cannot be built (Unable to allocate")],
    ids=["empty-omega", "8-TiB-grid"])
def test_cli_ingest_names_a_header_that_is_no_problem(tmp_path, head, words):
    # these once ended in a reshape ValueError and an _ArrayMemoryError traceback
    text = json.dumps(head, sort_keys=True).encode("utf-8")
    iq, out = tmp_path / "g.hiq", tmp_path / "rec.csv"
    iq.write_bytes(b"HIQ1" + struct.pack("<I", len(text)) + text
                   + bytes(16 * len(head["omega"])))
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", str(iq), "--out", str(out)])
    assert str(err.value.code).startswith(f"--path {iq}: {words}")
    assert not out.exists()


def train_on_sample_seed(tmp_path, arch="toeplitz1d", problem=("--m", "16"), seed=11):
    """A model file trained on data of ``--sample-seed`` ``seed``, 6 samples
    of the ``problem`` grid."""
    data, model = tmp_path / f"d{seed}.hud", tmp_path / f"{arch}-{seed}.hun"
    assert cli_main(["gen-data", *problem, "--n", "6", "--k", "1", "--samples", "30",
                     "--seed", "2", "--sample-seed", str(seed), "--out", str(data)]) == 0
    assert cli_main(["train", "--data", str(data), "--arch", arch, "--depth", "1",
                     "--epochs", "1", "--out", str(model)]) == 0
    return model


def test_cli_train_records_the_sampling_set(tmp_path):
    model = train_on_sample_seed(tmp_path)
    side = json.loads((tmp_path / (model.name + ".json")).read_text())
    want = hf.draw_sampling(16, 6, seed=11)
    assert side["omega"] == want.omega.tolist() and side["sampling_seed"] == 11


@pytest.mark.parametrize("command", ["sweep", "single"])
def test_cli_sweep_and_single_refuse_a_model_of_another_sampling_set(tmp_path, command):
    # such a model once ran silently: trained on --sample-seed 11 data (M=32,
    # N=12), toeplitz1d hit 0.758 at -20 dB on its own index set, 0.211 on 12's
    model = train_on_sample_seed(tmp_path)
    argv = [command, "--m", "16", "--n", "6", "--k", "1", "--methods", "lista-toeplitz",
            "--model-lista-toeplitz", str(model)]
    if command == "sweep":
        argv += ["--trials", "2"]
    assert cli_main(argv + ["--sample-seed", "11", "--out", str(tmp_path / "a.csv")]) == 0
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(argv + ["--sample-seed", "12", "--out", str(out)])
    assert str(err.value.code) == (f"--model-lista-toeplitz {model}: model was built "
                                   f"for other sampling indices than those of the "
                                   f"experiment")
    assert not out.exists()


def test_cli_ingest_refuses_a_model_of_another_sampling_set(tmp_path):
    problem = ("--problem", "2d", "--m1", "3", "--m2", "4")
    model = train_on_sample_seed(tmp_path, "toeplitz2d", problem)
    iq = {}
    for seed in (11, 12):
        iq[seed] = tmp_path / f"g{seed}.hiq"
        assert cli_main(["gen-data", *problem, "--n", "6", "--k", "1", "--samples", "1",
                         "--sample-seed", str(seed), "--out", str(tmp_path / "x.hud"),
                         "--export-iq", str(iq[seed])]) == 0
    argv = ["ingest", "--model", str(model)]
    assert cli_main(argv + ["--path", str(iq[11]), "--out", str(tmp_path / "a.csv")]) == 0
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(argv + ["--path", str(iq[12]), "--out", str(out)])
    assert str(err.value.code) == (f"--model {model}: model was built for other "
                                   f"sampling indices than those of the IQ grid of "
                                   f"--path {iq[12]}")
    assert not out.exists()


@pytest.mark.parametrize("sidecar, words", [
    ("{", "malformed JSON ("), ("[]", "sidecar must be a JSON object"),
    ('{"omega": [3, 1]}', "sampling indices must be")],
    ids=["not-json", "not-an-object", "descending-omega"])
def test_cli_names_a_model_sidecar_that_cannot_be_read(tmp_path, sidecar, words):
    model, out = train_on_sample_seed(tmp_path), tmp_path / "s.csv"
    side = tmp_path / (model.name + ".json")
    side.write_text(sidecar)
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--m", "16", "--n", "6", "--k", "1", "--trials", "1",
                  "--sample-seed", "11", "--methods", "lista-toeplitz",
                  "--model-lista-toeplitz", str(model), "--out", str(out)])
    assert str(err.value.code).startswith(f"--model-lista-toeplitz {model}: {side}: {words}")
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [None, "{}"], ids=["missing", "no-omega"])
def test_cli_model_sidecar_without_a_sampling_set_loads(tmp_path, sidecar):
    # older model files record no omega; they load as they always did
    model = train_on_sample_seed(tmp_path)
    side = tmp_path / (model.name + ".json")
    if sidecar is None:
        side.unlink()
    else:
        side.write_text(sidecar)
    assert cli_main(["sweep", "--m", "16", "--n", "6", "--k", "1", "--trials", "1",
                     "--sample-seed", "12", "--methods", "lista-toeplitz",
                     "--model-lista-toeplitz", str(model),
                     "--out", str(tmp_path / "s.csv")]) == 0


def test_cli_ingest_names_both_files_when_the_model_does_not_fit(tmp_path):
    iq, model = iq_and_model(tmp_path, model_shape=(6, 4))
    out = tmp_path / "rec.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", str(iq), "--model", str(model), "--out", str(out)])
    msg = str(err.value.code)
    assert msg.startswith(f"--model {model}: model is for grid (6, 4) with 12 "
                          f"observations, the IQ grid of --path {iq} is grid (4, 6)")
    assert f"--path {iq}" in msg and "(6, 4)" in msg and "(4, 6)" in msg
    assert not out.exists()


@pytest.mark.parametrize("arch, problem", [
    ("lista", ["--m", "12"]), ("toeplitz1d", ["--m", "12"]),
    ("convlista", ["--m", "12"]),
    ("toeplitz2d", ["--problem", "2d", "--m1", "3", "--m2", "4"]),
    ("convlista", ["--problem", "2d", "--m1", "3", "--m2", "4"])])
def test_cli_train_byte_identical(tmp_path, arch, problem):
    data = tmp_path / "d.hud"
    assert cli_main(["gen-data", *problem, "--n", "6", "--k", "2",
                     "--sigma2", "0.05", "--samples", "120", "--seed", "3",
                     "--out", str(data)]) == 0
    outs = []
    for name in ("a.hun", "b.hun"):
        model = tmp_path / name
        assert cli_main(["train", "--data", str(data), "--arch", arch,
                         "--depth", "3", "--epochs", "2", "--batch", "32",
                         "--seed", "4", "--out", str(model)]) == 0
        outs.append((model.read_bytes(),
                     (tmp_path / (name + ".json")).read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lam", "nan"),
    ("--lam", "-1"), ("--batch", "0"), ("--epochs", "-1"), ("--depth", "0")])
def test_cli_train_names_a_bad_flag(tmp_path, flag, value):
    data = tmp_path / "d.hud"
    model = tmp_path / "n.hun"
    assert cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "1",
                     "--samples", "20", "--out", str(data)]) == 0
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", "lista",
                  "--depth", "1", "--epochs", "1", "--out", str(model),
                  f"{flag}={value}"])
    assert str(err.value.code).startswith(flag + " ")
    assert not model.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_gen_data_needs_a_sample(tmp_path, samples):
    data = tmp_path / "d.hud"
    with pytest.raises(SystemExit) as err:
        cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "1",
                  f"--samples={samples}", "--out", str(data)])
    assert "--samples" in str(err.value.code)
    assert not data.exists() and not (tmp_path / "d.hud.json").exists()


@pytest.mark.parametrize("sigma2", ["nan", "inf", "-1"])
def test_cli_gen_data_rejects_a_bad_noise_power(tmp_path, sigma2):
    data = tmp_path / "d.hud"
    with pytest.raises(SystemExit) as err:
        cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "2", "--samples", "2",
                  f"--sigma2={sigma2}", "--out", str(data)])
    assert str(err.value.code).startswith("--sigma2 ")
    assert not data.exists() and not (tmp_path / "d.hud.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--noise-db", "nan"), ("sweep", "--noise-db", "0,inf"),
    ("sweep", "--noise-db", "4000"), ("sweep", "--noise-db", ""),
    ("sweep", "--noise-db", ","),
    ("sweep", "--trials", "0"), ("sweep", "--budget-ista", "0"),
    ("sweep", "--budget-fista", "0"), ("sweep", "--lambda-scale", "nan"),
    ("single", "--budget-ista", "0"), ("single", "--budget-fista", "0"),
    ("single", "--lambda-scale", "nan"), ("single", "--sigma2", "nan")])
def test_cli_sweep_and_single_name_a_bad_flag(tmp_path, command, flag, value):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--m", "8", "--n", "4", "--k", "1",
                  "--out", str(out), f"{flag}={value}"])
    assert str(err.value.code).startswith(flag + " ")
    assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen-data", "--m", "8", "--n", "4", "--k", "9"], "--k"),
    (["gen-data", "--m", "8", "--n", "9", "--k", "1"], "--n"),
    (["gen-data", "--m", "0", "--n", "1", "--k", "0"], "--m"),
    (["gen-data", "--m", "8", "--n", "4", "--k", "-1"], "--k"),
    (["gen-data", "--m", "8", "--n", "0", "--k", "1"], "--n"),
    (["gen-data", "--problem", "2d", "--m1", "3", "--m2", "0", "--n", "1"], "--m2"),
    (["gen-data", "--problem", "2d", "--m1", "2", "--m2", "3", "--n", "7"], "--n"),
    (["sweep", "--m", "8", "--n", "4", "--k", "0"], "--k"),
    (["sweep", "--m", "8", "--n", "0", "--k", "1"], "--n"),
    (["sweep", "--m", "8", "--n", "4", "--k", "9"], "--k"),
    (["single", "--m", "8", "--n", "4", "--k", "9"], "--k"),
    (["single", "--m", "8", "--n", "9", "--k", "1"], "--n"),
])
def test_cli_names_a_bad_problem_flag(tmp_path, argv, flag):
    out = tmp_path / "out"
    extra = {"gen-data": ["--samples", "2"], "sweep": ["--trials", "1"]}.get(argv[0], [])
    with pytest.raises(SystemExit) as err:
        cli_main(argv + extra + ["--out", str(out)])
    assert str(err.value.code).startswith(flag + " ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, doc, flag", [
    ("gen-data", {"m": 8, "n": 4, "k": 9}, "--k"),
    ("gen-data", {"m": 0, "n": 1}, "--m"),
    ("gen-data", {"m": 8, "n": 2.5}, "--n"),
    ("sweep", {"m": 8, "n": 4, "k": 0}, "--k"),
    ("single", {"problem": "2d", "m1": 0, "m2": 4, "n": 1}, "--m1"),
])
def test_cli_checks_problem_values_from_a_config_file(tmp_path, command, doc, flag):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    extra = ["--samples", "2"] if command == "gen-data" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--config", str(cfg_file), "--out", str(out)] + extra)
    assert str(err.value.code).startswith(flag + " ")
    assert not out.exists()


def test_cli_single_and_gen_data_accept_no_component(tmp_path):
    assert cli_main(["single", "--m", "8", "--n", "4", "--k", "0",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert cli_main(["gen-data", "--m", "8", "--n", "8", "--k", "8", "--samples", "2",
                     "--out", str(tmp_path / "d.hud")]) == 0
    assert cli_main(["gen-data", "--m", "8", "--n", "4", "--k", "0", "--samples", "2",
                     "--out", str(tmp_path / "d0.hud")]) == 0


@pytest.mark.parametrize("kw", [{"noise_powers_db": [0.0, float("nan")]},
                                {"lambda_scale": float("nan")},
                                {"lambda_scale": -0.1}])
def test_experiment_config_rejects_non_finite_settings(kw):
    with pytest.raises(ValueError, match="finite"):
        small_cfg(**kw)


@pytest.mark.parametrize("db", [4000.0, float("inf"), float("nan")])
def test_experiment_config_names_noise_powers_db(db):
    # 4000 dB is finite, but its power 10**400 overflows a float
    with pytest.raises(ValueError, match="noise_powers_db"):
        small_cfg(noise_powers_db=[0.0, db])


@pytest.mark.parametrize("sigma2", [float("nan"), -1.0])
def test_run_single_rejects_a_bad_noise_power(sigma2):
    with pytest.raises(ValueError, match="noise power must be finite"):
        run_single(small_cfg(), sigma2=sigma2)


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_cli_complexity_needs_a_repeat(tmp_path, repeats):
    out = tmp_path / "cx.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["complexity", "--sizes", "16", "--n", "4",
                  f"--repeats={repeats}", "--out", str(out)])
    assert "--repeats" in str(err.value.code)
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["", ",", "-4", "0", "16,0", "abc"])
def test_cli_complexity_names_bad_sizes(tmp_path, sizes):
    out = tmp_path / "cx.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["complexity", f"--sizes={sizes}", "--n", "4", "--no-timing",
                  "--out", str(out)])
    assert str(err.value.code).startswith("--sizes ")
    assert not out.exists()


@pytest.mark.parametrize("time", [lambda: complexity_report([16], 8, repeats=0),
                                  lambda: time_layer_forward("lista", 16, 8, repeats=-3)],
                         ids=["complexity_report", "time_layer_forward"])
def test_layer_timings_refuse_a_repeat_count_below_one(time):
    # these once returned nan timings, complexity_report's after a "Mean of
    # empty slice" warning
    with pytest.raises(ValueError, match=r"^repeats must be an integer >= 1, got -?\d+$"):
        time()


def test_experiment_config_names_a_solver_method_without_a_budget():
    # once accepted, then a KeyError inside run_sweep
    with pytest.raises(ValueError, match="method 'fista' needs an iteration budget"):
        small_cfg(methods=["fista"], budgets={"ista": 10})


@pytest.mark.parametrize("budget", [10.5, True])
def test_experiment_config_refuses_a_budget_that_is_not_an_integer(budget):
    # 10.5 once ended run_sweep in a TypeError inside the solver loop
    with pytest.raises(ValueError, match="iteration budget for ista must be an integer >= 1"):
        small_cfg(budgets={"ista": budget, "fista": 20})


def test_experiment_config_needs_a_noise_power():
    with pytest.raises(ValueError, match="noise_powers_db needs at least one entry"):
        small_cfg(noise_powers_db=[])


@pytest.mark.parametrize("sizes", [[], [0], [16, -4]])
def test_complexity_report_rejects_sizes_below_one(sizes):
    with pytest.raises(ValueError, match="sizes"):
        complexity_report(sizes, n_obs=4, timing=False)


@pytest.mark.parametrize("methods", ["foo", "ista,foo", ","])
def test_cli_sweep_rejects_an_unknown_method(tmp_path, methods):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--m", "8", "--n", "4", "--methods", methods,
                  "--trials", "1", "--out", str(out)])
    msg = str(err.value.code)
    assert msg.startswith("--methods") and "ista, fista, lista" in msg
    assert "--model-" not in msg
    assert not out.exists()


@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_cli_export_index_must_name_a_sample(tmp_path, index):
    data = tmp_path / "d.hud"
    iq = tmp_path / "g.hiq"
    with pytest.raises(SystemExit) as err:
        cli_main(["gen-data", "--problem", "2d", "--m1", "4", "--m2", "4",
                  "--n", "6", "--k", "1", "--samples", "2", "--out", str(data),
                  "--export-iq", str(iq), f"--export-index={index}"])
    assert "--export-index" in str(err.value.code)
    assert not data.exists() and not iq.exists()


@pytest.mark.parametrize("text, words", [
    (json.dumps({"m": 16, "tirals": 5}), ["unknown key 'tirals' for 'sweep'"]),
    (json.dumps([["m", 16]]), ["JSON object", "list"]),
    ('{"m": 16,', ["malformed JSON"]),
])
def test_cli_config_rejects_bad_documents(tmp_path, text, words):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--config", str(cfg_file), "--n", "8",
                  "--out", str(tmp_path / "s.csv")])
    msg = str(err.value.code)
    assert str(cfg_file) in msg
    for word in words:
        assert word in msg
    assert not (tmp_path / "s.csv").exists()


def test_cli_config_key_of_another_subcommand_and_missing_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 3}))  # a train option
    with pytest.raises(SystemExit, match="unknown key 'epochs' for 'sweep'"):
        cli_main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "s.csv")])
    missing = tmp_path / "absent.json"
    with pytest.raises(SystemExit, match="absent.json: cannot read config file"):
        cli_main(["sweep", "--config", str(missing), "--out", str(tmp_path / "s.csv")])


def test_run_sweep_block_matches_per_trial_recovery():
    # the block path scores each trial as a standalone recovery would
    d = hf.build_dictionary((16,), hf.draw_sampling(16, 8, seed=4))
    cfg = small_cfg(methods=["fista"], trials_per_point=3)
    (row,) = run_sweep(cfg)
    child = np.random.SeedSequence(cfg.seed).spawn(3)
    ratios = []
    for seq in child:
        inst = hf.make_instance(d, cfg.k, 10.0 ** (-1.0), seq)
        lam = default_lambda(d, inst.y, cfg.lambda_scale)
        x = hf.fista(d, inst.y, SolverConfig(lam=lam, max_iter=20, tol=0.0)).x_hat
        ratios.append(hf.nmse_metric(x, inst.x_true))
    assert abs(row.nmse_db - 20 * np.log10(np.mean(ratios))) < 1e-9


def test_run_sweep_draws_each_noise_point_once_for_every_method(monkeypatch):
    d = hf.build_dictionary((16,), hf.draw_sampling(16, 8, seed=4))
    models = {"lista": init_network("lista", d, 2, lam=0.1)}
    points = [-20.0, -10.0, 0.0]
    alone = [run_sweep(small_cfg(methods=[m], noise_powers_db=points, trials_per_point=5,
                                 models=models))
             for m in ("ista", "lista")]
    calls = []
    draw = hf.bench.make_instance
    monkeypatch.setattr(hf.bench, "make_instance",
                        lambda *args: calls.append(args) or draw(*args))
    both = run_sweep(small_cfg(methods=["ista", "lista"], noise_powers_db=points,
                               trials_per_point=5, models=models))
    assert both == alone[0] + alone[1]    # every row, bit for bit
    assert len(calls) == len(points)


def test_iq_every_bit_flip_loads_or_names_path(tmp_path):
    d = hf.build_dictionary((4, 4), hf.draw_sampling(16, 5, seed=7))
    good = tmp_path / "good.hiq"
    write_iq_grid(good, (4, 4), d.sampling.omega,
                  ComplexArray(np.arange(5.0), -np.arange(5.0)))
    data = bytearray(good.read_bytes())
    path = tmp_path / "flipped.hiq"
    for bit in range(8 * len(data)):
        data[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            ingest_iq_grid(path)
        except ValueError as exc:
            assert str(path) in str(exc), f"bit {bit}: {exc}"


@pytest.mark.parametrize("shape, omega, words", [
    ((4, 6), [5, 3], "strictly ascending"), ((4, 6), [-1, 2], "strictly ascending"),
    ((4, 6), [0, 30], "not fit a grid of 24"),
    ((4, 6), [], "at least one index"),
    ((4, 6), [0.0, 1.0], "integers"), ((4.0, 6), [0, 1], "integer sizes"),
    ((0, 6), [0, 1], "integer sizes"), ((True, 6), [0, 1], "integer sizes"),
    ((4, 6), [23, 24], "^sampling set of 2 indices up to 24 does not fit a grid of 24$")])
def test_write_iq_grid_refuses_what_ingest_would(tmp_path, shape, omega, words):
    # each was once written: a file read_iq_grid or ingest refused, or float and
    # bool sizes and indices cast to integers without a word
    path = tmp_path / "g.hiq"
    with pytest.raises(ValueError, match=words):
        write_iq_grid(path, shape, omega, ComplexArray.zeros((len(omega),)))
    assert not path.exists()


@pytest.mark.parametrize("y, words", [
    (np.zeros((2, 3), dtype=complex), r"2 indices need as many samples, got shape \(2, 3\)"),
    (np.zeros((2, 2), dtype=complex), r"2 indices need as many samples, got shape \(2, 2\)"),
    (np.array([1.0, complex(np.nan, 1.0)]), "sample 1 is not finite"),
    (np.array([complex(0.0, -np.inf), 1.0]), "sample 0 is not finite")],
    ids=["block", "square-block", "nan", "inf"])
def test_write_iq_grid_refuses_samples_that_read_iq_grid_would(tmp_path, y, words):
    # each was once written: an (N, B) block as N*B samples, or a non-finite
    # sample, files that read_iq_grid refused
    path = tmp_path / "g.hiq"
    with pytest.raises(ValueError, match=words) as err:
        write_iq_grid(path, (4, 6), [0, 5], ComplexArray(y))
    if "finite" in words:
        assert str(err.value) == f"{path}: {words}"
    assert not path.exists()


def test_iq_file_layout(tmp_path):
    # magic, u32 header length, the JSON header, then (re, im) f64 pairs
    y = ComplexArray(np.array([1.5, -2.0, 0.25]), np.array([0.0, 3.0, -1.0]))
    path = tmp_path / "layout.hiq"
    write_iq_grid(path, (4, 2), [1, 4, 6], y)
    head = json.dumps({"m1": 4, "m2": 2, "omega": [1, 4, 6]}, sort_keys=True).encode()
    want = b"HIQ1" + struct.pack("<I", len(head)) + head
    want += b"".join(struct.pack("<dd", r, i) for r, i in zip(y.re, y.im))
    assert path.read_bytes() == want


def test_cli_config_values_do_not_outlive_their_run(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 2, "budget_ista": 7, "k": 1}))
    flags = ["sweep", "--m", "16", "--n", "8", "--methods", "ista"]
    a = tmp_path / "a.csv"
    assert cli_main(flags + ["--config", str(cfg_file), "--out", str(a)]) == 0
    b = tmp_path / "b.csv"
    assert cli_main(flags + ["--out", str(b)]) == 0
    first = json.loads((tmp_path / "a.csv.manifest.json").read_text())["config"]
    plain = json.loads((tmp_path / "b.csv.manifest.json").read_text())["config"]
    assert (first["trials"], first["budget_ista"], first["k"]) == (2, 7, 1)
    assert (plain["trials"], plain["budget_ista"], plain["k"]) == (100, 1000, 5)


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert cli_main(["complexity", "--sizes", "64", "--no-timing",
                     "--out", str(tmp_path / "cx.csv")]) == 0


@pytest.mark.parametrize("command, doc, flag", [
    ("sweep", {"trials": 2.5}, "--trials"),
    ("sweep", {"trials": True}, "--trials"),
    ("sweep", {"lambda_scale": [1]}, "--lambda-scale"),
    ("sweep", {"timing": "no", "trials": 2}, "--timing"),
    ("single", {"problem": "3d"}, "--problem"),
    ("single", {"offgrid": "false"}, "--offgrid"),
])
def test_cli_config_values_pass_the_flag_checks(tmp_path, command, doc, flag):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--config", str(cfg_file), "--m", "8", "--n", "4", "--k", "1",
                  "--methods", "ista", "--budget-ista", "5", "--out", str(out)])
    assert str(err.value.code).startswith(flag + " ")
    assert list(tmp_path.iterdir()) == [cfg_file]


def train_input(tmp_path, samples=20, m=8):
    """A 1-D dataset of ``samples`` on an ``m``-cell grid, written under
    ``tmp_path / "in"``."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    data = inputs / "d.hud"
    assert cli_main(["gen-data", "--m", str(m), "--n", "8" if m >= 8 else "4", "--k", "2",
                     "--samples", str(samples), "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("argv, flag", [
    (["ingest", "--budget", "0"], "--budget"),
    (["ingest", "--lambda-scale=-1"], "--lambda-scale"),
    (["ingest", "--lambda-scale", "nan"], "--lambda-scale"),
    (["ingest", "--lambda-scale", "inf"], "--lambda-scale"),
    (["single", "--m", "8", "--n", "4", "--k", "1", "--offgrid", "--frac", "1.5"], "--frac"),
    (["single", "--m", "8", "--n", "4", "--k", "1", "--offgrid", "--frac", "nan"], "--frac"),
    (["complexity", "--sizes", "16", "--n=-3"], "--n"),
    (["complexity", "--sizes", "16", "--n", "0", "--no-timing"], "--n"),
    (["train", "--arch", "lista", "--depth", "1", "--epochs", "2", "--patience=-1"],
     "--patience"),
    (["gen-data", "--m", "8", "--n", "4", "--k", "1", "--samples", "2", "--seed=-1"],
     "--seed"),
    (["sweep", "--m", "8", "--n", "4", "--k", "1", "--trials", "1", "--sample-seed=-1"],
     "--sample-seed"),
])
def test_cli_names_a_bad_numeric_flag(tmp_path, argv, flag):
    if argv[0] == "ingest":
        (tmp_path / "in").mkdir()
        argv = argv + ["--path", str(iq_and_model(tmp_path / "in")[0])]
    elif argv[0] == "train":
        argv = argv + ["--data", str(train_input(tmp_path))]
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(argv + ["--out", str(out)])
    assert str(err.value.code).startswith(flag + " ")
    assert [p.name for p in tmp_path.iterdir() if p.name != "in"] == []


def test_cli_a_bad_config_value_fails_under_an_overriding_flag(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 0}))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--config", str(cfg_file), "--m", "8", "--n", "4", "--k", "1",
                  "--trials", "2", "--out", str(out)])
    assert str(err.value.code) == "--trials 0: must be an integer >= 1"
    assert not out.exists()


def test_cli_config_file_runs_as_its_flags(tmp_path, monkeypatch):
    # the same --out name in two directories: the manifests echo it
    flags = ["--problem", "1d", "--m", "16", "--n", "8", "--k", "2", "--noise-db=-5,5",
             "--trials", "4", "--methods", "ista,fista", "--budget-ista", "25",
             "--budget-fista", "15", "--seed", "9", "--sample-seed", "2"]
    for run in "abc":
        (tmp_path / run).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert cli_main(["sweep", *flags, "--out", "s.csv"]) == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "problem": "1d", "m": 16, "n": 8, "k": 2, "noise_db": [-5, 5], "trials": 4,
        "methods": "ista,fista", "budget_ista": 25, "budget_fista": 15, "seed": 9,
        "sample_seed": 2, "timing": False}))
    monkeypatch.chdir(tmp_path / "b")
    assert cli_main(["sweep", "--config", str(cfg_file), "--out", "s.csv"]) == 0
    monkeypatch.chdir(tmp_path / "c")
    assert cli_main(["sweep", f"--config={cfg_file}", "--out", "s.csv"]) == 0
    for name in ("s.csv", "s.csv.manifest.json"):
        for run in "bc":
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / run / name).read_bytes()


@pytest.mark.parametrize("flags, said", [
    (["--config", "{cfg}", "--m", "8", "--n", "4", "--config={cfg}"],
     "--config given more than once; give one config file"),
    (["--conf", "{cfg}", "--m", "8", "--n", "4"],
     "--config {cfg}: must be given as --config FILE or --config=FILE"),
], ids=["twice", "abbreviated"])
def test_cli_config_is_given_once_in_full(tmp_path, flags, said):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 2}))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", *(f.format(cfg=cfg_file) for f in flags), "--out", str(out)])
    assert str(err.value.code) == said.format(cfg=cfg_file)
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("command", ["gen-data", "train", "sweep", "single",
                                     "complexity", "ingest"])
def test_cli_help_lists_config(command, capsys):
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--help"])
    assert err.value.code == 0
    assert "--config FILE" in capsys.readouterr().out


@pytest.mark.parametrize("doc, flag, value", [
    ({"m": None}, "--m", "null"), ({"m": {"a": 1}}, "--m", '{"a": 1}'),
    ({"methods": ["ista"]}, "--methods", '["ista"]'), ({"timing": 1}, "--timing", "1"),
])
def test_cli_config_names_a_value_of_the_wrong_kind(tmp_path, doc, flag, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", "--config", str(cfg_file), "--m", "8", "--n", "4",
                  "--out", str(tmp_path / "s.csv")])
    msg = str(err.value.code)
    assert msg.startswith(f"{flag} {value}: must be ")
    assert msg.endswith(f"(key {flag[2:]!r} of {cfg_file})")


def test_cli_names_a_missing_required_flag(tmp_path, capsys):
    # on every Python version: one line as the exit code, no usage printed
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--out", str(tmp_path / "o.csv")])
    assert err.value.code == "the following arguments are required: --path"
    assert capsys.readouterr().err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, given", [
    (["bogus", "--out", "o.csv"], "unknown subcommand 'bogus'"),
    ([], "no subcommand given")], ids=["unknown", "missing"])
def test_cli_names_a_bad_subcommand_and_the_choices(capsys, argv, given):
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    assert err.value.code == (f"{given}; choose from gen-data, train, sweep, "
                              f"single, complexity, ingest")
    assert capsys.readouterr().err == ""


def test_cli_names_an_unrecognized_argument(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", "g.hiq", "--bogus", "--out", str(tmp_path / "o.csv")])
    assert err.value.code == "unrecognized arguments: --bogus"
    assert capsys.readouterr().err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples, cause", [
    (40, "label matrix is rank deficient"), (10, "need at least 16 samples")])
def test_cli_train_estimate_dict_names_labels_it_cannot_invert(tmp_path, samples, cause):
    data = train_input(tmp_path, samples=samples, m=16)
    model = tmp_path / "n.hun"
    with pytest.raises(SystemExit) as err:
        cli_main(["train", "--data", str(data), "--arch", "lista", "--depth", "1",
                  "--epochs", "1", "--estimate-dict", "--out", str(model)])
    msg = str(err.value.code)
    assert msg.startswith("--estimate-dict: ") and cause in msg and f"--data {data}" in msg
    assert list(tmp_path.iterdir()) == [tmp_path / "in"]
