"""Experiment runner: sweeps, dumps, complexity, IQ grids, CLI determinism."""

import json
import struct

import numpy as np
import pytest

import hunfold as hf
from hunfold.bench import (ExperimentConfig, complexity_report, ingest_iq_grid,
                           metric_rows_table, read_iq_grid, run_single,
                           run_sweep, write_csv, write_iq_grid, write_manifest)
from hunfold import cli
from hunfold.cli import main as cli_main
from hunfold.cplx import ComplexArray, matvec
from hunfold.metrics import hit_rate_metric
from hunfold.nets import forward, init_network
from hunfold.solvers import SolverConfig, default_lambda, ista
from hunfold.training import TrainConfig, train


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


def test_complexity_report_counts():
    header, rows = complexity_report([512, 1024], n_obs=64, timing=False)
    assert rows[0][2] == 512 * 512 and rows[0][3] == 1023
    assert rows[1][2] == 1024 * 1024 and rows[1][3] == 2047
    # storage ratio example: 1023 / 262144, about 0.39%
    assert abs(rows[0][4] - 1023 / 262144) < 1e-12
    # doubling the grid quadruples dense storage but only doubles the kernel
    assert rows[1][2] == 4 * rows[0][2]
    assert rows[1][3] == 2 * rows[0][3] + 1


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
    y2, d2 = ingest_iq_grid(path, shape=(4, 8), omega=d.sampling.omega)
    assert np.max(np.abs(d2.phi.to_complex() - d.phi.to_complex())) < 1e-12


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
    with pytest.raises(ValueError):
        ingest_iq_grid(good, shape=(4, 2))


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
    y = hf.add_noise(matvec(d.phi, x), 0.01, seed=33)
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
    assert str(err.value.code) == (f"--val {val} and --data {data} hold different "
                                   f"problems: {detail}")
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


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--out"), ("gen-data", "--export-iq"), ("train", "--out"),
    ("sweep", "--out"), ("single", "--out"), ("complexity", "--out"),
    ("ingest", "--out")])
def test_cli_names_an_unwritable_output(tmp_path, monkeypatch, command, flag):
    inputs = tmp_path / "in"
    inputs.mkdir()
    data, iq = inputs / "d.hud", inputs / "g.hiq"
    assert cli_main(["gen-data", "--problem", "2d", "--m1", "2", "--m2", "4", "--n", "4",
                     "--k", "1", "--samples", "20", "--out", str(data),
                     "--export-iq", str(iq)]) == 0
    out = str(tmp_path / "o")
    argv = {
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
    bad = str(tmp_path / "missing" / "o")
    argv[argv.index(flag) + 1] = bad
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    missing = tmp_path / "missing"
    assert str(err.value.code) == f"{flag} {bad}: cannot write (no directory {missing})"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]   # nothing written


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


def test_cli_ingest_names_both_files_when_the_model_does_not_fit(tmp_path):
    iq, model = iq_and_model(tmp_path, model_shape=(6, 4))
    out = tmp_path / "rec.csv"
    with pytest.raises(SystemExit) as err:
        cli_main(["ingest", "--path", str(iq), "--model", str(model), "--out", str(out)])
    msg = str(err.value.code)
    assert msg.startswith(f"--model {model}: model dimensions do not match")
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
