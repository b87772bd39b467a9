"""ISTA/FISTA behaviour: descent, fixed points, agreement, recovery."""

import numpy as np
import pytest

import hunfold as hf
from hunfold.cplx import ComplexArray, matvec, soft_threshold
from hunfold.metrics import hit_rate_metric
from hunfold.solvers import (SolverConfig, default_lambda, fista, ista,
                             objective)


def small_problem(m=32, n=12, k=3, seed=0, sigma2=0.0):
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=seed))
    x = hf.gen_sparse_signal(m, k, seed=seed + 1)
    y = matvec(d.phi, x)
    if sigma2 > 0:
        y = hf.add_noise(y, sigma2, seed=seed + 2)
    return d, x, y


def test_objective_zero_estimate():
    d, _, y = small_problem()
    val = objective(d, ComplexArray.zeros((d.total,)), y, 0.7)
    assert abs(val - 0.5 * y.norm() ** 2) < 1e-12 * y.norm() ** 2


def test_objective_perfect_fit_no_penalty():
    d, x, y = small_problem()
    assert objective(d, x, y, 0.0) < 1e-20 * y.norm() ** 2


def test_objective_matches_scalar_loop():
    d, x, y = small_problem(seed=3)
    lam = 0.3
    pc = d.phi.to_complex()
    xc, yc = x.to_complex(), y.to_complex()
    res = yc - pc @ xc
    ref = 0.5 * float(np.sum(np.abs(res) ** 2)) + lam * float(np.sum(np.abs(xc)))
    assert abs(objective(d, x, y, lam) - ref) < 1e-12 * max(1.0, ref)
    with pytest.raises(ValueError):
        objective(d, ComplexArray.zeros((d.total + 1,)), y, lam)


def test_ista_zero_observation():
    d, _, _ = small_problem()
    res = ista(d, ComplexArray.zeros((d.n_obs,)), SolverConfig(lam=0.1, max_iter=50))
    assert res.x_hat.norm() == 0.0
    assert res.iterations_run == 1 and res.converged


def test_ista_small_lambda_recovers_inverse():
    # full square sampling: the Gram is m*I, so one zero-penalty step solves it
    m = 8
    d = hf.build_dictionary((m,), hf.draw_sampling(m, m, seed=4))
    x = hf.gen_sparse_signal(m, 3, seed=5)
    y = matvec(d.phi, x)
    res = ista(d, y, SolverConfig(lam=0.0, max_iter=50, tol=1e-14))
    f = d.phi.to_complex()
    ref = f.conj().T @ y.to_complex() / m
    assert np.max(np.abs(res.x_hat.to_complex() - ref)) < 1e-6
    assert np.max(np.abs(res.x_hat.to_complex() - x.to_complex())) < 1e-6


def test_ista_monotone_descent():
    for seed in range(5):
        d, _, y = small_problem(seed=seed, sigma2=0.2)
        lam = default_lambda(d, y)
        res = ista(d, y, SolverConfig(lam=lam, max_iter=300, tol=0.0,
                                      record_trace=True))
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * np.maximum(trace[:-1], 1.0))


def test_ista_fixed_point_consistency():
    d, _, y = small_problem(seed=7, sigma2=0.1)
    lam = default_lambda(d, y)
    tol = 1e-12
    res = ista(d, y, SolverConfig(lam=lam, max_iter=20_000, tol=tol))
    assert res.converged
    # one further step moves the iterate by < 10*tol relative
    big_l = res.lipschitz
    pc = d.phi.to_complex()
    xc = res.x_hat.to_complex()
    grad = pc.conj().T @ (y.to_complex() - pc @ xc)
    stepped = soft_threshold(ComplexArray.from_complex(xc + grad / big_l),
                             lam / big_l).to_complex()
    move = np.linalg.norm(stepped - xc) / max(np.linalg.norm(xc), 1e-30)
    assert move < 10 * max(tol, 1e-12) ** 0.5  # norm move ~ sqrt of objective move
    # and the objective cannot decrease appreciably
    assert objective(d, ComplexArray.from_complex(stepped), y, lam) \
        <= objective(d, res.x_hat, y, lam) * (1 + 1e-9)


def test_fista_zero_observation():
    d, _, _ = small_problem()
    res = fista(d, ComplexArray.zeros((d.n_obs,)), SolverConfig(lam=0.1, max_iter=50))
    assert res.x_hat.norm() == 0.0


def test_fista_matches_ista_objective():
    rng = np.random.default_rng(30)
    for trial in range(50):
        d, _, y = small_problem(m=24, n=10, k=3, seed=100 + trial,
                                sigma2=float(rng.uniform(0, 0.3)))
        lam = default_lambda(d, y)
        ri = ista(d, y, SolverConfig(lam=lam, max_iter=4000, tol=1e-13))
        rf = fista(d, y, SolverConfig(lam=lam, max_iter=1500, tol=1e-13))
        oi = objective(d, ri.x_hat, y, lam)
        of = objective(d, rf.x_hat, y, lam)
        assert abs(of - oi) <= 1e-6 * max(oi, 1e-12)


def test_fista_converges_faster():
    # acceleration shows on the hard configuration where ISTA needs ~1500 steps
    d, _, y = small_problem(m=512, n=64, k=5, seed=9)
    lam = default_lambda(d, y, 0.01)
    ri = ista(d, y, SolverConfig(lam=lam, max_iter=1500, tol=0.0, record_trace=True))
    rf = fista(d, y, SolverConfig(lam=lam, max_iter=1500, tol=0.0, record_trace=True))
    target = ri.objective_trace[-1]
    tol = 1e-6 * target

    def first_hit(trace):
        arr = np.asarray(trace)
        idx = np.flatnonzero(arr <= target + tol)
        return int(idx[0]) if idx.size else len(arr)

    # reaches the 1500-step solution's objective in at most a fifth the steps
    assert first_hit(rf.objective_trace) <= 1500 // 5


def test_noiseless_support_recovery_desk_scale():
    m, n, k = 64, 16, 2
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=21))
    hits = []
    for trial in range(20):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, trial))))
        x = hf.harmonic.sparse_from_rng(m, k, rng)
        y = matvec(d.phi, x)
        got = 0.0
        for scale in (0.01, 0.02, 0.05):
            lam = default_lambda(d, y, scale)
            res = ista(d, y, SolverConfig(lam=lam, max_iter=800, tol=0.0))
            got = max(got, hit_rate_metric(res.x_hat, x, k))
            if got == 1.0:
                break
        hits.append(got)
    assert np.mean(hits) == 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0, tol=-1e-3)
    for big_l in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lipschitz"):
            SolverConfig(lam=0.1, lipschitz=big_l)


def test_solver_observation_shape_check():
    d, _, _ = small_problem()
    with pytest.raises(ValueError):
        ista(d, ComplexArray.zeros((d.n_obs + 1,)), SolverConfig(lam=0.1))


def block_problem(b=4, m=32, n=12, k=3, seed=40, sigma2=0.1):
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=seed))
    cols = [small_problem(m, n, k, seed=seed, sigma2=sigma2)[2]]
    for j in range(1, b):
        x = hf.gen_sparse_signal(m, k, seed=seed + 10 * j)
        cols.append(hf.add_noise(matvec(d.phi, x), sigma2, seed=seed + 10 * j + 1))
    y = ComplexArray(np.stack([c.re for c in cols], axis=1),
                     np.stack([c.im for c in cols], axis=1))
    return d, y, cols


@pytest.mark.parametrize("solver", [ista, fista])
def test_block_matches_single_solves(solver):
    d, y, cols = block_problem()
    lam = default_lambda(d, y)
    assert lam.shape == (4,)
    budget = 15  # short enough that no column meets the exact-repeat stop
    res = solver(d, y, SolverConfig(lam=lam, max_iter=budget, tol=0.0))
    assert res.x_hat.shape == (d.total, 4)
    assert np.array_equal(res.iterations_run, [budget] * 4)
    assert not res.converged.any()
    for j, col in enumerate(cols):
        assert abs(lam[j] - default_lambda(d, col)) <= 1e-12 * lam[j]
        one = solver(d, col, SolverConfig(lam=float(lam[j]), max_iter=budget, tol=0.0))
        assert isinstance(one.iterations_run, int) and one.iterations_run == budget
        assert isinstance(one.converged, bool)
        got = res.x_hat.to_complex()[:, j]
        want = one.x_hat.to_complex()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("solver", [ista, fista])
def test_block_zero_column_stops_at_once(solver):
    d, y, _ = block_problem()
    re, im = y.re.copy(), y.im.copy()
    re[:, 2] = 0.0
    im[:, 2] = 0.0
    y = ComplexArray(re, im)
    res = solver(d, y, SolverConfig(lam=default_lambda(d, y), max_iter=60, tol=0.0))
    assert res.iterations_run[2] == 1 and res.converged[2]
    assert not res.x_hat.re[:, 2].any() and not res.x_hat.im[:, 2].any()
    assert res.x_hat.is_finite()
    assert np.all(res.iterations_run[[0, 1, 3]] > 1)


def reference_ista(d, y, lam, big_l, max_iter, tol):
    """Textbook one-vector ISTA with the solvers' relative stop test."""
    phi, yc = d.phi.to_complex(), y.to_complex()
    x = np.zeros(d.total, dtype=complex)
    obj = 0.5 * np.vdot(yc, yc).real
    for it in range(1, max_iter + 1):
        v = x + phi.conj().T @ (yc - phi @ x) / big_l
        x = soft_threshold(ComplexArray.from_complex(v), lam / big_l).to_complex()
        r = yc - phi @ x
        new = 0.5 * np.vdot(r, r).real + lam * np.sum(np.abs(x))
        if abs(new - obj) <= tol * obj:
            return x, it
        obj = new
    return x, max_iter


def test_block_trace_and_per_column_stop():
    d, y, cols = block_problem(sigma2=0.2)
    lam = default_lambda(d, y)
    res = ista(d, y, SolverConfig(lam=lam, max_iter=3000, tol=1e-9, record_trace=True))
    trace = np.asarray(res.objective_trace)
    assert trace.shape == (int(res.iterations_run.max()) + 1, 4)
    assert np.all(np.diff(trace, axis=0) <= 1e-10 * np.maximum(trace[:-1], 1.0))
    assert len(set(res.iterations_run.tolist())) == 4   # the columns stop apart
    for j, col in enumerate(cols):
        want, stop = reference_ista(d, col, lam[j], res.lipschitz, 3000, 1e-9)
        # a column stops on its own test and keeps the iterate it stopped with
        assert res.converged[j] and res.iterations_run[j] == stop
        got = res.x_hat.to_complex()[:, j]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.all(trace[stop:, j] == trace[stop, j])


def test_block_lambda_validation():
    d, y, _ = block_problem()
    with pytest.raises(ValueError, match="3 penalty weights for 4 columns"):
        ista(d, y, SolverConfig(lam=np.ones(3)))
    with pytest.raises(ValueError):
        SolverConfig(lam=np.array([0.1, -0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        SolverConfig(lam=np.array([0.1, np.nan, 0.2, 0.3]))
    with pytest.raises(ValueError):
        SolverConfig(lam=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(lam=np.ones((2, 2)))
