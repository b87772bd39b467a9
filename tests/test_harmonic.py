"""Dictionaries, Gram structure, synthetic instances and dataset files."""

import struct

import numpy as np
import pytest

import hunfold as hf
from hunfold.cplx import ComplexArray, lipschitz_constant
from hunfold.harmonic import (build_dictionary, db_to_sigma2,
                              dictionary_from_meta, draw_sampling, fourier_matrix, gen_dataset,
                              gram, gram_generator,
                              make_instance, read_dataset, sparse_from_rng,
                              synth_offgrid, write_dataset)
from hunfold.spectral import toeplitz_expand, toeplitz_extract

from conftest import SENTINEL, poke


def test_fourier_matrix_small_orders():
    assert fourier_matrix(1).z[0, 0] == 1.0
    f2 = fourier_matrix(2).z
    assert np.max(np.abs(f2 - np.array([[1, 1], [1, -1]]))) < 1e-15
    with pytest.raises(ValueError):
        fourier_matrix(0)


def test_fourier_matrix_gram_is_scaled_identity():
    m = 8
    f = fourier_matrix(m).z
    g = f.conj().T @ f
    assert np.max(np.abs(g - m * np.eye(m))) < 1e-12 * m


@pytest.mark.parametrize("m, n", [(2048, 64), (4096, 512)])
def test_partial_fourier_rows_are_orthogonal_to_an_ulp(m, n):
    # every entry is a root of unity read at its phase reduced mod M, so the
    # rows of an unnormalised partial DFT are orthogonal with squared norm M
    # to rounding, and L = M
    d = build_dictionary((m,), draw_sampling(m, n, seed=1))
    phi = d.phi.z
    assert np.max(np.abs(phi @ phi.conj().T - m * np.eye(n))) / m < 1e-14
    assert abs(lipschitz_constant(d.phi).value - m) / m < 1e-15


@pytest.mark.parametrize("shape, n", [((2048,), 64), ((4096,), 32), ((32, 32), 256)])
def test_dictionary_entries_sit_at_the_reduced_phase(shape, n):
    # against a long-double reference whose phase is reduced mod M_a per axis
    total = int(np.prod(shape))
    d = build_dictionary(shape, draw_sampling(total, n, seed=2))
    pi = 4 * np.arctan(np.longdouble(1))
    rows = np.unravel_index(d.sampling.omega, shape)
    cols = np.unravel_index(np.arange(total), shape)
    ref = np.ones((n, total), dtype=np.clongdouble)
    for i, j, m in zip(rows, cols, shape):
        t = np.outer(i, j) % m
        phase = 2 * pi * t.astype(np.longdouble) / m
        ref *= np.cos(phase) + 1j * np.sin(phase)
    assert np.max(np.abs(d.phi.z - ref)) < 2e-15


@pytest.mark.parametrize("m", [1, 2, 7, 64, 2048])
def test_fourier_matrix_rows_are_the_dictionary_bit_for_bit(m):
    sampling = draw_sampling(m, min(m, 16), seed=3)
    rows = fourier_matrix(m).z[sampling.omega]
    assert np.array_equal(rows, build_dictionary((m,), sampling).phi.z)


def test_draw_sampling_full_and_singleton():
    s = draw_sampling(10, 10, seed=0)
    assert np.array_equal(s.omega, np.arange(10))
    a = draw_sampling(100, 1, seed=42)
    b = draw_sampling(100, 1, seed=42)
    assert np.array_equal(a.omega, b.omega)
    with pytest.raises(ValueError):
        draw_sampling(4, 5, seed=0)


def test_draw_sampling_many_seeds_valid():
    for seed in range(1000):
        s = draw_sampling(512, 64, seed=seed)
        assert s.omega.size == 64
        assert np.unique(s.omega).size == 64
        assert s.omega[0] >= 0 and s.omega[-1] < 512
        assert np.all(np.diff(s.omega) > 0)


def test_build_dictionary_1d_full_is_fourier():
    m = 8
    d = build_dictionary((m,), draw_sampling(m, m, seed=0))
    assert np.max(np.abs(d.phi.z - fourier_matrix(m).z)) < 1e-12


def test_build_dictionary_2d_trivial():
    d = build_dictionary((1, 1), draw_sampling(1, 1, seed=0))
    assert d.phi.z[0, 0] == 1.0


def test_build_dictionary_2d_full_is_kronecker():
    m1, m2 = 2, 3
    d = build_dictionary((m1, m2), draw_sampling(m1 * m2, m1 * m2, seed=0))
    ref = np.kron(fourier_matrix(m1).z, fourier_matrix(m2).z)
    assert np.max(np.abs(d.phi.z - ref)) < 1e-12 * m1 * m2


def test_kronecker_row_identity_random_sampling():
    m1, m2 = 4, 5
    s = draw_sampling(m1 * m2, 7, seed=9)
    d = build_dictionary((m1, m2), s)
    f1 = fourier_matrix(m1).z
    f2 = fourier_matrix(m2).z
    for row, idx in enumerate(s.omega):
        i1, i2 = divmod(int(idx), m2)
        ref = np.kron(f1[i1], f2[i2])
        assert np.max(np.abs(d.phi.z[row] - ref)) < 1e-12


@pytest.mark.parametrize("omega, seed", [
    ([0.9, 1.5, 2.2, 5.7], 0), ([False, True, 3, 5], 0), (["0", "1"], 0),
    (np.array([0.0, 1.0]), 0), (np.array([[0, 1]]), 0), (3, 0), (None, 0),
    ([1, 1], 0), ([2, 1], 0), ([-1, 0], 0), ([2 ** 70], 0),
    ([0, 1], -1), ([0, 1], 1.0), ([0, 1], True), ([0, 1], "1")])
def test_sampling_set_refuses_what_is_not_a_set_of_indices(omega, seed):
    with pytest.raises(ValueError, match="sampling"):
        hf.SamplingSet(omega, seed)


@pytest.mark.parametrize("omega", [
    [0, 3, 7], [np.int64(0), 3, 7], np.array([0, 3, 7], dtype=np.uint16)])
def test_sampling_set_keeps_integer_indices_as_int64(omega):
    s = hf.SamplingSet(omega, np.int64(2))
    assert s.omega.dtype == np.int64 and s.omega.tolist() == [0, 3, 7]
    assert hf.SamplingSet([], 0).count == 0


def test_gram_full_sampling_is_scaled_identity():
    m = 16
    d = build_dictionary((m,), draw_sampling(m, m, seed=1))
    g = gram(d).z
    assert np.max(np.abs(g - m * np.eye(m))) < 1e-10 * m


def test_gram_single_row_rank_one_toeplitz():
    m = 12
    s = hf.SamplingSet(np.array([5]), seed=0)
    d = build_dictionary((m,), s)
    g = gram(d).z
    col = d.phi.z[0]
    ref = np.outer(col.conj(), col)
    assert np.max(np.abs(g - ref)) < 1e-12 * m
    # constant along every diagonal
    for off in range(-(m - 1), m):
        diag = np.diagonal(g, offset=off)
        assert np.max(np.abs(diag - diag[0])) < 1e-12


def test_gram_toeplitz_diagonal_constancy():
    d = build_dictionary((16,), draw_sampling(16, 5, seed=2))
    g = gram(d).z
    for off in range(-15, 16):
        diag = np.diagonal(g, offset=off)
        assert np.max(np.abs(diag - diag[0])) < 1e-10
    assert np.max(np.abs(g - g.conj().T)) < 1e-10


def test_gram_generator_matches_dense_extraction():
    d = build_dictionary((24,), draw_sampling(24, 9, seed=3))
    fast = gram_generator(d)
    dense = toeplitz_extract(gram(d), d.shape)
    assert np.max(np.abs(fast.diags.z - dense.diags.z)) < 1e-10
    expand = toeplitz_expand(fast).z
    assert np.max(np.abs(expand - gram(d).z)) < 1e-10 * d.n_obs


def test_gram_2d_doubly_block_toeplitz():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m1 = int(rng.integers(2, 9))
        m2 = int(rng.integers(2, 9))
        n = int(rng.integers(2, m1 * m2 + 1))
        d = build_dictionary((m1, m2), draw_sampling(m1 * m2, n, seed=int(rng.integers(1e6))))
        g = gram(d).z
        gen = gram_generator(d)
        assert gen.diags.shape == (2 * m1 - 1, 2 * m2 - 1)
        back = toeplitz_expand(gen).z
        assert np.max(np.abs(back - g)) < 1e-10 * max(1.0, n)
        dense_gen = toeplitz_extract(gram(d), d.shape)
        assert np.max(np.abs(dense_gen.diags.z
                             - gen.diags.z)) < 1e-10 * max(1.0, n)


def test_gen_sparse_signal_edges():
    z = sparse_from_rng(10, 0, np.random.default_rng(0))
    assert np.linalg.norm(z.z) == 0.0
    full = sparse_from_rng(10, 10, np.random.default_rng(1))
    assert np.all(full.abs() > 0)
    with pytest.raises(ValueError):
        sparse_from_rng(4, 5, np.random.default_rng(0))


def test_gen_sparse_signal_support_uniform():
    m, k, draws = 512, 5, 100_000
    counts = np.zeros(m)
    for seed in range(draws):
        x = sparse_from_rng(m, k, np.random.default_rng(seed))
        counts[x.abs() > 0] += 1
    p = k / m
    expect = draws * p
    sigma = np.sqrt(draws * p * (1 - p))
    # 4.5-sigma per-bin bound: Bonferroni across the 512 bins keeps the
    # false-alarm probability of a genuinely uniform sampler below 0.4%
    assert np.max(np.abs(counts - expect)) < 4.5 * sigma


def test_gen_sparse_signal_amplitude_power():
    vals = []
    for seed in range(2000):
        x = sparse_from_rng(16, 4, np.random.default_rng(10_000 + seed))
        mags = x.abs()
        vals.extend(mags[mags > 0] ** 2)
    # E|a|^2 = 1 with Var |a|^2 = 1; 3-sigma band around the mean
    mean = np.mean(vals)
    assert abs(mean - 1.0) < 3.0 / np.sqrt(len(vals))


def test_synth_offgrid_on_grid_consistency():
    m = 32
    d = build_dictionary((m,), draw_sampling(m, 9, seed=5))
    amps = ComplexArray(np.array([1.0 + 0j]))
    y = synth_offgrid(d, [7], 0.0, amps)
    col = ComplexArray(d.phi.re[:, 7], d.phi.im[:, 7])
    assert np.max(np.abs(y.z - col.z)) < 1e-12


@pytest.mark.parametrize("shape, n, k", [((64,), 16, 3), ((2048,), 64, 5), ((4, 6), 12, 4)])
def test_synth_offgrid_on_the_grid_is_the_dictionary_product_bit_for_bit(shape, n, k):
    total = int(np.prod(shape))
    d = build_dictionary(shape, draw_sampling(total, n, seed=15))
    rng = np.random.default_rng(16)
    idx = rng.choice(total, size=k, replace=False)
    amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = synth_offgrid(d, idx, 0.0, ComplexArray(amps)).z
    assert np.array_equal(y, d.phi.z[:, idx] @ amps)


def test_synth_offgrid_zero_amplitudes():
    d = build_dictionary((16,), draw_sampling(16, 4, seed=6))
    y = synth_offgrid(d, [1, 2], 0.25, ComplexArray.zeros((2,)))
    assert np.linalg.norm(y.z) == 0.0


def test_synth_offgrid_matches_direct_sum_1d():
    m, n, k = 512, 64, 5
    d = build_dictionary((m,), draw_sampling(m, n, seed=7))
    rng = np.random.default_rng(8)
    idx = np.sort(rng.choice(m, size=k, replace=False))
    amps = ComplexArray(rng.standard_normal(k), rng.standard_normal(k))
    y = synth_offgrid(d, idx, 0.25, amps).z
    ref = np.zeros(n, dtype=complex)
    ac = amps.z
    for j, om in enumerate(d.sampling.omega):
        for kk in range(k):
            f = (idx[kk] + 0.25) / m
            ref[j] += ac[kk] * np.exp(2j * np.pi * f * om)
    assert np.max(np.abs(y - ref)) < 1e-12 * np.max(np.abs(ref))


def test_synth_offgrid_matches_direct_sum_2d():
    m1, m2, n, k = 4, 8, 12, 3
    d = build_dictionary((m1, m2), draw_sampling(m1 * m2, n, seed=9))
    rng = np.random.default_rng(10)
    idx = np.sort(rng.choice(m1 * m2, size=k, replace=False))
    amps = ComplexArray(rng.standard_normal(k), rng.standard_normal(k))
    y = synth_offgrid(d, idx, 0.25, amps).z
    ref = np.zeros(n, dtype=complex)
    ac = amps.z
    for j, om in enumerate(d.sampling.omega):
        i1, i2 = divmod(int(om), m2)
        for kk in range(k):
            g1, g2 = divmod(int(idx[kk]), m2)
            # off-grid displacement on the second axis only
            ref[j] += ac[kk] * np.exp(2j * np.pi * (g1 / m1 * i1
                                                    + (g2 + 0.25) / m2 * i2))
    assert np.max(np.abs(y - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(16,), (4, 6), (6, 4)])
def test_synth_offgrid_displaces_the_last_axis_only(shape):
    total = int(np.prod(shape))
    d = build_dictionary(shape, draw_sampling(total, 9, seed=13))
    rng = np.random.default_rng(14)
    idx = np.sort(rng.choice(total, size=3, replace=False))
    amps = ComplexArray(rng.standard_normal(3), rng.standard_normal(3))
    on_grid = d.phi.z[:, idx] @ amps.z
    y0 = synth_offgrid(d, idx, 0.0, amps).z
    assert np.max(np.abs(y0 - on_grid)) < 1e-12 * np.max(np.abs(on_grid))
    # a shift of frac cells on the last axis turns every term by the phase
    # of that shift at the sample's last-axis cell, and nothing else
    frac = 0.3
    last = d.sampling.omega % shape[-1]
    ref = np.exp(2j * np.pi * frac * last / shape[-1]) * on_grid
    y = synth_offgrid(d, idx, frac, amps).z
    assert np.max(np.abs(y - ref)) < 1e-12 * np.max(np.abs(ref))


def test_synth_offgrid_validation():
    d = build_dictionary((8,), draw_sampling(8, 3, seed=11))
    amps = ComplexArray.zeros((1,))
    with pytest.raises(ValueError):
        synth_offgrid(d, [9], 0.0, amps)
    with pytest.raises(ValueError):
        synth_offgrid(d, [1], 1.0, amps)


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -0.1])
def test_noise_power_must_be_finite_and_non_negative(sigma2):
    d = build_dictionary((8,), draw_sampling(8, 4, seed=2))
    for make in (lambda: make_instance(d, 2, sigma2, seed=0),
                 lambda: gen_dataset(d, 2, 2, sigma2, seed=0)):
        with pytest.raises(ValueError, match="noise power must be finite"):
            make()


def test_db_to_sigma2_follows_the_convention():
    assert db_to_sigma2(10.0) == 10.0
    assert db_to_sigma2(-20.0) == pytest.approx(0.01, rel=1e-15)
    assert db_to_sigma2(-4000.0) == 0.0   # underflows to a noiseless power


@pytest.mark.parametrize("db", [4000.0, float("inf"), float("-inf"), float("nan")])
def test_db_to_sigma2_rejects_a_power_that_is_not_finite(db):
    with pytest.raises(ValueError, match="must be finite"):
        db_to_sigma2(db)


def test_add_noise_power_statistics():
    # no components (k = 0), so every observation is noise alone
    d = build_dictionary((8,), draw_sampling(8, 4, seed=2))
    w = gen_dataset(d, 25_000, 0, 2.0, seed=13).obs
    pw = w.abs() ** 2
    # |w|^2 is exponential with mean 2 and std 2
    assert abs(np.mean(pw) - 2.0) < 3 * 2.0 / np.sqrt(pw.size)


def test_gen_dataset_empty_and_noiseless():
    d = build_dictionary((12,), draw_sampling(12, 5, seed=14))
    empty = gen_dataset(d, 0, 2, 0.1, seed=0)
    assert empty.count == 0
    ds = gen_dataset(d, 20, 2, 0.0, seed=1)
    pc = d.phi.z
    ref = pc @ ds.truth.z
    assert np.max(np.abs(ds.obs.z - ref)) < 1e-12 * max(
        1.0, np.max(np.abs(ref)))


def test_gen_dataset_reproducible_bit_exact():
    d = build_dictionary((12,), draw_sampling(12, 5, seed=14))
    a = gen_dataset(d, 30, 2, 0.3, seed=77)
    b = gen_dataset(d, 30, 2, 0.3, seed=77)
    assert np.array_equal(a.obs.re, b.obs.re)
    assert np.array_equal(a.obs.im, b.obs.im)
    assert np.array_equal(a.truth.re, b.truth.re)
    assert np.array_equal(a.truth.im, b.truth.im)


def stream_column(d, k, sigma2, seed):
    """Column ``seed``'s spectrum and noise, drawn as separate calls from
    its own stream: the support, the amplitudes (real parts, then
    imaginary), then, when ``sigma2 > 0``, the noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros(d.total, dtype=np.complex128)
    if k:
        support = rng.choice(d.total, size=k, replace=False)
        x[support] = hf.harmonic.gaussian(rng, (k,), np.sqrt(0.5))
    w = np.zeros(d.n_obs, dtype=np.complex128)
    if sigma2 > 0.0:
        w = hf.harmonic.gaussian(rng, (d.n_obs,), np.sqrt(sigma2 / 2.0))
    return x, w


def same_bits(a, b):
    """Equal values, down to the sign of each zero."""
    return a.shape == b.shape and all(
        np.array_equal(p, q) and np.array_equal(np.signbit(p), np.signbit(q))
        for p, q in ((a.real, b.real), (a.imag, b.imag)))


@pytest.mark.parametrize("shape, n, k, sigma2", [
    ((64,), 16, 2, 0.1), ((64,), 16, 0, 0.1), ((64,), 16, 2, 0.0), ((4, 6), 12, 3, 0.05)])
def test_block_draws_are_per_column_streams(shape, n, k, sigma2):
    d = build_dictionary(shape, draw_sampling(int(np.prod(shape)), n, seed=18))
    phi = d.phi.z
    children = np.random.SeedSequence(19).spawn(7)
    columns = [stream_column(d, k, sigma2, c) for c in children]
    block = make_instance(d, k, sigma2, children)
    assert block.x_true.shape == (d.total, 7) and block.y.shape == (n, 7)
    for i, (child, (x, w)) in enumerate(zip(children, columns)):
        y = phi @ x + w if sigma2 > 0.0 else phi @ x
        one = make_instance(d, k, sigma2, child)
        for got in (block.x_true.z[:, i], one.x_true.z):
            assert same_bits(got, x)
        for got in (block.y.z[:, i], one.y.z):
            assert same_bits(got, y)
    ds = gen_dataset(d, 7, k, sigma2, seed=19)
    truth = np.stack([x for x, _ in columns], axis=1)
    assert same_bits(ds.truth.z, truth)
    assert same_bits(ds.obs.z, phi @ truth + np.stack([w for _, w in columns], axis=1))


def test_gen_dataset_paper_scale_shape():
    d = build_dictionary((512,), draw_sampling(512, 64, seed=15))
    ds = gen_dataset(d, 50_000, 5, 0.4, seed=2)
    assert ds.obs.shape == (64, 50_000)
    assert ds.truth.shape == (512, 50_000)
    nz = np.count_nonzero(ds.truth.abs()[:, 0])
    assert nz == 5


def test_dataset_round_trip_bit_exact(tmp_path):
    d = build_dictionary((6, 4), draw_sampling(24, 7, seed=16))
    ds = gen_dataset(d, 11, 3, 0.25, seed=3)
    path = tmp_path / "pairs.hud"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.meta["shape"] == [6, 4]
    assert back.meta["k"] == 3 and back.meta["n_samples"] == 11
    assert np.array_equal(back.obs.re, ds.obs.re)
    assert np.array_equal(back.obs.im, ds.obs.im)
    assert np.array_equal(back.truth.re, ds.truth.re)
    assert np.array_equal(back.truth.im, ds.truth.im)
    d2 = dictionary_from_meta(back.meta)
    assert np.max(np.abs(d2.phi.z - d.phi.z)) < 1e-12


def test_dataset_subset_round_trip(tmp_path):
    d = build_dictionary((16,), draw_sampling(16, 6, seed=17))
    ds = gen_dataset(d, 9, 2, 0.1, seed=4)
    sub = ds.take(np.array([7, 2, 5]))
    assert sub.meta["n_samples"] == 3 and ds.meta["n_samples"] == 9
    path = tmp_path / "sub.hud"
    write_dataset(path, sub)
    back = read_dataset(path)
    assert back.count == 3 and back.meta["n_samples"] == 3
    assert np.array_equal(back.obs.re, sub.obs.re)
    assert np.array_equal(back.obs.im, sub.obs.im)
    assert np.array_equal(back.truth.re, sub.truth.re)
    assert np.array_equal(back.truth.im, sub.truth.im)


@pytest.mark.parametrize("keep", [-1, -16, 20])  # 20 bytes: inside the header
def test_dataset_truncated_file_names_path(tmp_path, keep):
    d = build_dictionary((4, 3), draw_sampling(12, 5, seed=18))
    path = tmp_path / "short.hud"
    write_dataset(path, gen_dataset(d, 3, 2, 0.1, seed=5))
    raw = path.read_bytes()
    path.write_bytes(raw[:keep])
    with pytest.raises(ValueError, match="short.hud"):
        read_dataset(path)


def test_dataset_extended_file_names_path(tmp_path):
    d = build_dictionary((8,), draw_sampling(8, 4, seed=19))
    path = tmp_path / "long.hud"
    write_dataset(path, gen_dataset(d, 3, 1, 0.1, seed=6))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="long.hud"):
        read_dataset(path)


def test_dataset_without_its_sidecar_names_both_files(tmp_path):
    d = build_dictionary((8,), draw_sampling(8, 4, seed=19))
    path = tmp_path / "bare.hud"
    write_dataset(path, gen_dataset(d, 3, 1, 0.1, seed=6))
    (tmp_path / "bare.hud.json").unlink()
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == (f"{path}: no sampling indices "
                              f"(the sidecar {path}.json is missing)")


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "junk.hud"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_dataset(path)


def test_dataset_file_layout(tmp_path):
    # the documented header, then the observation and truth matrices
    # row-major as (re, im) f64 pairs
    d = build_dictionary((3, 2), draw_sampling(6, 4, seed=20))
    ds = gen_dataset(d, 3, 2, 0.1, seed=7)
    path = tmp_path / "layout.hud"
    write_dataset(path, ds)
    want = struct.pack("<4sIIIIIIQd", b"HUD1", 2, 3, 2, 4, 3, 2, 7, 0.1)
    for a in (ds.obs, ds.truth):
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                want += struct.pack("<dd", a.re[i, j], a.im[i, j])
    assert path.read_bytes() == want


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_dataset_every_bit_flip_loads_or_names_path(tmp_path, shape):
    total = int(np.prod(shape))
    d = build_dictionary(shape, draw_sampling(total, 3, seed=21))
    good = tmp_path / "good.hud"
    write_dataset(good, gen_dataset(d, 2, 2, 0.1, seed=8))
    data = bytearray(good.read_bytes())
    path = tmp_path / "flipped.hud"
    # the good sidecar beside it, so that a flip of the payload loads
    (tmp_path / "flipped.hud.json").write_bytes((tmp_path / "good.hud.json").read_bytes())
    for bit in range(8 * len(data)):
        data[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            read_dataset(path)
        except ValueError as exc:
            assert str(path) in str(exc), f"bit {bit}: {exc}"


@pytest.mark.parametrize("matrix, row, value", [
    ("observation", 2, complex(np.nan, 0.0)), ("truth", 5, complex(0.0, np.inf))])
def test_dataset_non_finite_entry_names_file_matrix_and_sample(tmp_path, matrix, row, value):
    # one NaN in a truth entry once trained to "val NMSE nan -> nan, gain inf dB"
    d = build_dictionary((8,), draw_sampling(8, 4, seed=22))
    ds = gen_dataset(d, 6, 2, 0.1, seed=9)
    (ds.obs if matrix == "observation" else ds.truth).z[row, 4] = SENTINEL
    path = tmp_path / "bad.hud"
    write_dataset(path, ds)
    poke(path, value)   # write_dataset refuses the value itself
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: sample 4 of the {matrix} matrix is not finite"


@pytest.mark.parametrize("matrix, row, col, value", [
    ("observation", 0, 3, complex(np.inf, 0.0)), ("truth", 7, 0, complex(1.0, np.nan))])
def test_write_dataset_refuses_what_read_dataset_would(tmp_path, matrix, row, col, value):
    # such a file was once written, and only its reader refused it
    d = build_dictionary((8,), draw_sampling(8, 4, seed=22))
    ds = gen_dataset(d, 6, 2, 0.1, seed=9)
    (ds.obs if matrix == "observation" else ds.truth).z[row, col] = value
    path = tmp_path / "bad.hud"
    with pytest.raises(ValueError) as err:
        write_dataset(path, ds)
    assert str(err.value) == f"{path}: sample {col} of the {matrix} matrix is not finite"
    assert not path.exists() and not (tmp_path / "bad.hud.json").exists()
