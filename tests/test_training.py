"""Loss, analytic gradients vs finite differences, Adam, the training loop."""

import numpy as np
import pytest

import hunfold as hf
from hunfold import training
from hunfold.cplx import ComplexArray
from hunfold.harmonic import Dataset
from hunfold.nets import (DENSE_MIN_BATCH, Layer, UnfoldedNetwork, branches,
                          forward, forward_planes, init_network, param_count,
                          route)
from hunfold.training import (TrainConfig, _backward_planes,
                              _soft_threshold_adjoint, adam_step, backward,
                              estimate_dictionary, init_adam_state, loss_nmse,
                              net_param_arrays, train)

from conftest import rand_carray


def make_problem(shape, n, k=2, count=4, sigma2=0.05, seed=5):
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, n, seed=seed))
    ds = hf.gen_dataset(d, count, k, sigma2, seed=seed + 1)
    return d, ds


def perturbed_net(arch, d, depth, seed, jitter=0.05, theta_shift=0.03):
    """Initialised network nudged to a generic smooth point, and the arrays
    it holds."""
    rng = np.random.default_rng(seed)
    net = init_network(arch, d, depth, lam=0.8)
    params = net_param_arrays(net)
    for p in params:
        if p.ndim == 0:
            p += theta_shift
        else:
            p.real += jitter * rng.standard_normal(p.shape)
            p.imag += jitter * rng.standard_normal(p.shape)
    return net, params


def kink_margin(net, ds):
    """Smallest distance between any pre-threshold modulus and its theta."""
    from hunfold.nets import forward_planes
    yr = np.ascontiguousarray(ds.obs.re.T)
    yi = np.ascontiguousarray(ds.obs.im.T)
    _, _, cache = forward_planes(net, yr, yi, keep_cache=True)
    margin = np.inf
    for layer, ctx in zip(net.layers, cache):
        mag = np.abs(ctx["u"])
        margin = min(margin, float(np.min(np.abs(mag - layer.threshold))))
    return margin


def place_thresholds(net, ds, lo=0.4, hi=0.9):
    """Put every layer's threshold inside a wide gap of its pre-activation
    magnitude distribution, keeping a mix of active and inactive entries.

    Layer activations depend only on earlier thresholds, so one front-to-back
    pass settles all layers.
    """
    from hunfold.nets import forward_planes
    yr = np.ascontiguousarray(ds.obs.re.T)
    yi = np.ascontiguousarray(ds.obs.im.T)
    for t, layer in enumerate(net.layers):
        _, _, cache = forward_planes(net, yr, yi, keep_cache=True)
        mags = np.sort(np.abs(cache[t]["u"]).ravel())
        a = int(len(mags) * lo)
        b = max(a + 2, int(len(mags) * hi))
        gaps = np.diff(mags[a:b])
        pick = a + int(np.argmax(gaps))
        layer.threshold.fill(0.5 * (mags[pick] + mags[pick + 1]))


def fd_check(arch, shape, n, depth=3, seed=5, eps=1e-5, tol=1e-4, count=4):
    d, ds = make_problem(shape, n, count=count, seed=seed)
    net, params = perturbed_net(arch, d, depth, seed)
    place_thresholds(net, ds)
    assert kink_margin(net, ds) > 1e-2, "no test point clear of threshold kinks"
    grads, _ = backward(net, ds)
    flat = [g.view(np.float64) for g in grads]
    worst = 0.0
    # every real coordinate: a complex weight entry is its real part
    # followed by its imaginary part
    for pi, p in enumerate(p.view(np.float64) for p in params):
        indices = list(np.ndindex(p.shape)) if p.ndim else [()]
        for idx in indices:
            orig = p[idx] if p.ndim else float(p)

            def setv(v):
                if p.ndim:
                    p[idx] = v
                else:
                    p.fill(v)

            setv(orig + eps)
            lp = loss_nmse(net, ds)
            setv(orig - eps)
            lm = loss_nmse(net, ds)
            setv(orig)
            fd = (lp - lm) / (2 * eps)
            an = flat[pi][idx] if p.ndim else float(flat[pi])
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < tol, f"{arch}: worst relative gradient error {worst}"
    return worst


def test_loss_perfect_prediction_zero(desk_dict):
    ds = hf.gen_dataset(desk_dict, 8, 2, 0.0, seed=1)
    # a network cannot be exact, so check the formula directly on sums
    from hunfold.training import _nmse_sums
    t = np.ascontiguousarray(ds.truth.z.T)
    num, den = _nmse_sums(t, t)
    assert num == 0.0 and den > 0.0


def test_loss_zero_estimate_is_one():
    m, n = 12, 6
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=2))
    ds = hf.gen_dataset(d, 10, 2, 0.1, seed=3)
    layers = [Layer(ComplexArray.zeros((m, n)), None,
                    ComplexArray.zeros((2 * m - 1,)), 1.0)]
    net = UnfoldedNetwork("toeplitz1d", (m,), n, layers)
    assert abs(loss_nmse(net, ds) - 1.0) < 1e-15


def test_loss_matches_scalar_loop():
    d, ds = make_problem((10,), 5, count=6, seed=8)
    net, _ = perturbed_net("toeplitz1d", d, 2, seed=9)
    got = loss_nmse(net, ds)
    num = den = 0.0
    for i in range(ds.count):
        y = ComplexArray(ds.obs.re[:, i].copy(), ds.obs.im[:, i].copy())
        x = ds.truth.z[:, i]
        xh = forward(net, y).z
        num += np.linalg.norm(x - xh)
        den += np.linalg.norm(x)
    assert abs(got - num / den) < 1e-12


def test_loss_all_zero_truth_rejected():
    m, n = 8, 4
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=4))
    ds = hf.gen_dataset(d, 3, 0, 0.0, seed=5)  # k=0: all-zero labels
    net = init_network("toeplitz1d", d, 1, lam=0.1)
    with pytest.raises(ValueError):
        loss_nmse(net, ds)


def test_backward_zero_net_zero_theta_gradient():
    m, n = 10, 5
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=6))
    ds = hf.gen_dataset(d, 4, 2, 0.1, seed=7)
    layers = [Layer(ComplexArray.zeros((m, n)), None,
                    ComplexArray.zeros((2 * m - 1,)), 0.5) for _ in range(2)]
    net = UnfoldedNetwork("toeplitz1d", (m,), n, layers)
    grads, _ = backward(net, ds)
    for g in grads[2::3]:
        assert g == 0.0


def adjoint_by_entry(g, u, theta):
    """The soft threshold's adjoint, one entry at a time: the Jacobian off
    the closed ball |u| <= theta, a zero subgradient on it (the identity at
    theta = 0), and the one-sided theta derivative.  Returns the gradient
    on u, the one on theta, and the sum of its terms' moduli."""
    gu = np.zeros_like(g)
    gtheta = scale = 0.0
    for i in np.ndindex(u.shape):
        m, dot = abs(u[i]), (g[i].conjugate() * u[i]).real
        if m > theta:
            gu[i] = g[i] * (1.0 - theta / m) + u[i] * (theta * dot / m ** 3)
            gtheta -= dot / m
            scale += abs(dot / m)
        elif theta == 0.0:
            gu[i] = g[i]
    return gu, gtheta, scale


def threshold_batch(rng, theta):
    """A (6, 8) batch around modulus theta, with entries exactly on
    |u| = theta (along the axes and at 3-4-5 points) and an exact zero."""
    u = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))) * max(theta, 1.0)
    u[0, :5] = [theta, -theta, 1j * theta, theta * (0.6 + 0.8j), theta * (-0.8 + 0.6j)]
    u[1, 0] = 0.0
    return u


@pytest.mark.parametrize("theta, kind", [
    (5.0, "mixed"), (0.0, "mixed"), (5.0, "inactive"), (5.0, "active")])
def test_soft_threshold_adjoint_matches_the_per_entry_formula(theta, kind):
    rng = np.random.default_rng(17)
    u = threshold_batch(rng, theta)
    if kind == "inactive":
        u *= theta / (1.0 + np.max(np.abs(u)))
    elif kind == "active":
        u = u[2:] * (2.0 * theta / np.min(np.abs(u[2:])))
    g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    mag = np.abs(u)
    got, gtheta = _soft_threshold_adjoint(g, u, mag, theta)
    want, want_theta, scale = adjoint_by_entry(g, u, theta)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)) + 1e-300
    assert abs(gtheta - want_theta) <= 1e-14 * max(scale, 1e-300)
    active = mag > theta
    assert {"inactive": not active.any(), "active": active.all(),
            "mixed": 0 < active.sum() < active.size}[kind]
    if theta == 0.0:
        assert np.array_equal(got, g)
    else:
        # the ball, its boundary included, passes back exactly zero
        assert np.all(got[~active] == 0.0)
        if kind == "mixed":
            assert np.all(mag[0, :5] == theta) and np.all(got[0, :5] == 0.0)


@pytest.mark.parametrize("arch, shape", [
    ("lista", (6,)), ("toeplitz1d", (6,)), ("convlista", (6,)),
    ("toeplitz2d", (2, 3)), ("convlista", (2, 3))])
def test_backward_returns_one_gradient_per_parameter(arch, shape):
    d, ds = make_problem(shape, 4, seed=12)
    net, params = perturbed_net(arch, d, 3, seed=13)
    grads, loss = backward(net, ds)
    assert loss == pytest.approx(loss_nmse(net, ds), rel=1e-12)
    assert len(grads) == len(params) == 3 * net.depth
    for g, p in zip(grads, params):
        assert type(g) is np.ndarray
        assert g.shape == p.shape and g.dtype == p.dtype
    # layer 0 sees the zero spectrum, so its inhibition gradient is zero
    assert not np.any(grads[1])


def test_train_config_names_the_bad_field():
    for kwargs, field in [({"learning_rate": float("nan")}, "learning_rate"),
                          ({"learning_rate": float("inf")}, "learning_rate"),
                          ({"learning_rate": 0.0}, "learning_rate"),
                          ({"batch_size": 0}, "batch_size"),
                          ({"epochs": -1}, "epochs"),
                          ({"lr_decay_patience": 0}, "lr_decay_patience"),
                          ({"lr_decay_patience": -3}, "lr_decay_patience"),
                          ({"seed": -1}, "seed")]:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)


def test_gradients_match_finite_differences_toeplitz1d():
    fd_check("toeplitz1d", (16,), 8)


def test_gradients_match_finite_differences_lista():
    fd_check("lista", (10,), 6)


def test_gradients_match_finite_differences_convlista_1d():
    fd_check("convlista", (10,), 6)


def test_gradients_match_finite_differences_toeplitz2d():
    fd_check("toeplitz2d", (3, 4), 6)


def test_gradients_match_finite_differences_convlista_2d():
    fd_check("convlista", (3, 4), 6)


@pytest.mark.parametrize("arch, shape, n, seed", [
    ("toeplitz1d", (12,), 6, 5), ("toeplitz2d", (3, 4), 6, 5), ("convlista", (10,), 6, 7)])
def test_gradients_match_finite_differences_on_the_dense_route(arch, shape, n, seed):
    # a batch at the dense route's floor: every Conv runs as its matrix, in
    # the backward pass and in the loss alike
    obs_op, inhibit_op = branches(arch, shape, n)
    assert route(inhibit_op, DENSE_MIN_BATCH) is inhibit_op.matrix
    if arch == "convlista":
        assert route(obs_op, DENSE_MIN_BATCH) is obs_op.matrix
    fd_check(arch, shape, n, seed=seed, count=DENSE_MIN_BATCH)


def test_filter_gradient_matches_closed_form():
    # single linear layer (zero threshold): the loss gradient wrt the filter
    # has the closed form sum_b (err_b / ||err_b||) y_b^H / sum_b ||x_b||
    d, ds = make_problem((9,), 5, count=5, seed=10, sigma2=0.0)
    rng = np.random.default_rng(11)
    filt = rand_carray(rng, (9, 5))
    net = UnfoldedNetwork("lista", (9,), 5,
                          [Layer(filt, None, ComplexArray.zeros((9, 9)), 0.0)])
    g = backward(net, ds)[0][0]
    yc = ds.obs.z
    xc = ds.truth.z
    pred = filt.z @ yc
    den = sum(np.linalg.norm(xc[:, b]) for b in range(ds.count))
    ref = np.zeros_like(g)
    for b in range(ds.count):
        err = pred[:, b] - xc[:, b]
        ref += np.outer(err / np.linalg.norm(err), yc[:, b].conj())
    ref /= den
    assert np.max(np.abs(g - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_adam_zero_gradient_keeps_parameters():
    params = [np.ones((3, 3)), np.array(0.5)]
    grads = [np.zeros((3, 3)), np.array(0.0)]
    state = init_adam_state(params)
    adam_step(params, grads, state, TrainConfig().learning_rate)
    assert state.step == 1
    assert np.array_equal(params[0], np.ones((3, 3)))
    assert float(params[1]) == 0.5


def test_adam_first_step_magnitude_is_learning_rate():
    lr = 1e-3
    params = [np.zeros(4)]
    grads = [np.full(4, 0.37)]
    state = init_adam_state(params)
    adam_step(params, grads, state, lr)
    # bias-corrected ratio m/sqrt(v) = sign(g) at step one
    assert np.max(np.abs(params[0] + lr)) < 1e-6


def test_adam_quadratic_descent():
    target = np.array([1.5, -2.0, 0.25])
    params = [np.zeros(3)]
    state = init_adam_state(params)
    for _ in range(600):
        grads = [params[0] - target]
        adam_step(params, grads, state, 0.05)
    assert np.max(np.abs(params[0] - target)) < 1e-3


def test_adam_clamps_thresholds():
    params = [np.array(0.01)]
    state = init_adam_state(params)
    adam_step(params, [np.array(5.0)], state, 1.0)
    assert float(params[0]) == 0.0


def test_adam_clamps_only_the_0d_parameter():
    # both gradients drive their parameter below zero; only the 0-d one,
    # a threshold in the flat layout, is projected back onto [0, inf)
    params = [np.array(0.01), np.array([0.01 + 0.01j, 0.02 - 0.0j])]
    grads = [np.array(5.0), np.array([5.0 + 5.0j, 5.0 + 0.0j])]
    adam_step(params, grads, init_adam_state(params), 1.0)
    assert float(params[0]) == 0.0
    assert np.all(params[1].real < -0.9) and params[1].imag[0] < -0.9


def test_adam_steps_complex_parameters_in_the_network(desk_dict):
    net = init_network("toeplitz1d", desk_dict, 2, lam=0.1)
    params = net_param_arrays(net)
    assert len(params) == 3 * net.depth
    assert params[2] is net.layers[0].threshold
    grads = [np.full_like(p, 1 - 2j) if p.ndim else np.array(0.0) for p in params]
    adam_step(params, grads, init_adam_state(params), 0.1)
    # every real and imaginary part moved by the learning rate against its
    # gradient's sign, in the arrays the network holds
    inhibit = net.layers[0].inhibit.z
    assert inhibit is params[1]
    assert np.max(np.abs(inhibit - (-0.1 + 0.1j))) < 1e-6


def test_train_zero_epochs_is_identity(desk_dict):
    ds = hf.gen_dataset(desk_dict, 64, 2, 0.1, seed=20)
    net = init_network("toeplitz1d", desk_dict, 2, lam=0.1)
    out, report = train(net, ds, ds, TrainConfig(epochs=0))
    assert out is net
    assert report.loss_history == [] and report.val_history == []
    assert report.best_epoch is None


@pytest.mark.parametrize("arch", ["lista", "toeplitz1d", "convlista"])
def test_train_leaves_the_network_it_was_given_bit_identical(arch):
    d, tr = make_problem((10,), 5, count=96, seed=31)
    vl = hf.gen_dataset(d, 24, 2, 0.05, seed=32)
    net = init_network(arch, d, 3, lam=0.1)
    before = [p.copy() for p in net_param_arrays(net)]
    out, report = train(net, tr, vl, TrainConfig(learning_rate=1e-2, batch_size=32,
                                                  epochs=2, seed=3))
    assert report.best_epoch is not None
    for p, q in zip(net_param_arrays(net), before):
        assert p.tobytes() == q.tobytes()
    assert any(p.tobytes() != q.tobytes() for p, q in zip(net_param_arrays(out), before))


@pytest.mark.parametrize("arch", ["lista", "toeplitz1d", "convlista"])
def test_layers_sharing_an_inhibition_train_as_separate_copies(tmp_path, arch):
    # each layer trains its own copy; copy.deepcopy would keep the one array
    # shared, and the layers tied
    d, tr = make_problem((10,), 5, count=96, seed=34)
    vl = hf.gen_dataset(d, 24, 2, 0.05, seed=35)
    shared = init_network(arch, d, 3, lam=0.1)
    inhibit = rand_carray(np.random.default_rng(36), shared.layers[0].inhibit.shape, 0.05)
    for layer in shared.layers:
        layer.inhibit = inhibit
    separate = UnfoldedNetwork(arch, d.shape, d.n_obs, [
        Layer(layer.filt.copy(), None, inhibit.copy(), layer.threshold)
        for layer in shared.layers])
    cfg = TrainConfig(learning_rate=1e-2, batch_size=32, epochs=2, seed=3)
    files = []
    for name, net in (("shared", shared), ("separate", separate)):
        out, report = train(net, tr, vl, cfg)
        assert report.best_epoch is not None
        hf.save_network(tmp_path / name, out)
        files.append((tmp_path / name).read_bytes())
    assert files[0] == files[1]


def test_train_rejects_empty_training_set(desk_dict):
    ds = hf.gen_dataset(desk_dict, 8, 2, 0.1, seed=27)
    net = init_network("toeplitz1d", desk_dict, 2, lam=0.1)
    with pytest.raises(ValueError, match="training set is empty"):
        train(net, ds.take(np.arange(0)), ds, TrainConfig(epochs=1))


def test_train_names_the_epoch_and_batch_of_zero_truth_spectra(desk_dict):
    # a learnable set whose one zero truth column fills a batch of one; this
    # once ended in a bare "loss undefined" ValueError naming no batch
    ds = hf.gen_dataset(desk_dict, 8, 2, 0.1, seed=27)
    ds.truth.z[:, 3] = 0.0
    net = init_network("lista", desk_dict, 2, lam=0.1)
    cfg = TrainConfig(batch_size=1, epochs=2, seed=4)
    batch = list(np.random.default_rng(cfg.seed).permutation(ds.count)).index(3)
    with pytest.raises(ValueError) as err:
        train(net, ds, ds.take(np.arange(3)), cfg)
    assert str(err.value) == (f"epoch 1, batch {batch}: every truth spectrum of the "
                              "batch is zero, so its NMSE loss is undefined")


def test_train_deterministic_histories():
    m, n = 24, 8
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=21))
    tr = hf.gen_dataset(d, 256, 2, 0.1, seed=22)
    vl = hf.gen_dataset(d, 64, 2, 0.1, seed=23)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=3, seed=11)
    runs = []
    for _ in range(2):
        net = init_network("toeplitz1d", d, 3, lam=0.1)
        _, rep = train(net, tr, vl, cfg)
        runs.append(rep)
    assert runs[0].loss_history == runs[1].loss_history
    assert runs[0].val_history == runs[1].val_history


def test_train_improves_small_problem():
    m, n = 24, 8
    d = hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=24))
    tr = hf.gen_dataset(d, 512, 2, 0.05, seed=25)
    vl = hf.gen_dataset(d, 128, 2, 0.05, seed=26)
    net = init_network("toeplitz1d", d, 3, lam=0.1)
    before = loss_nmse(net, vl)
    out, rep = train(net, tr, vl, TrainConfig(batch_size=64, epochs=8, seed=1))
    after = loss_nmse(out, vl)
    assert after < before
    assert min(rep.val_history) == pytest.approx(after, rel=1e-9)


def test_plateau_decay_drops_the_rate_after_patience_stalled_epochs(monkeypatch):
    # the validation NMSE of each epoch is scripted, so the run stalls where
    # the script says; every Adam step still runs, at the rate it is given
    vals = iter([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 0.5, 0.6, 0.7, 0.8])
    rates = []

    def record(params, grads, state, lr):
        rates.append(lr)
        return adam_step(params, grads, state, lr)
    monkeypatch.setattr(training, "adam_step", record)
    monkeypatch.setattr(training, "loss_nmse", lambda net, ds: next(vals))
    d, ds = make_problem((8,), 4, count=8)
    lr0 = 1e-2
    cfg = TrainConfig(learning_rate=lr0, batch_size=4, epochs=10, lr_decay_patience=2)
    _, rep = train(init_network("toeplitz1d", d, 2, lam=0.1), ds, ds, cfg)
    assert rep.best_epoch == 7 and len(rates) == 2 * 10
    per_epoch = rates[::2]
    assert rates[1::2] == per_epoch   # the rate changes between epochs only
    # epochs 2 and 3 stall: the rate drops after epoch 3, not before; the
    # count restarts, so epoch 4 alone does not drop it, epoch 5 does; epoch
    # 7 improves, so epoch 8's stall is the first of a new count
    want = [lr0] * 3 + [lr0 * 0.1] * 2 + [lr0 * 0.1 * 0.1] * 4 + [lr0 * 0.1 * 0.1 * 0.1]
    assert per_epoch == want


def test_estimate_dictionary_identity_case():
    rng = np.random.default_rng(27)
    x = rand_carray(rng, (6, 40))
    ds = Dataset(x.copy(), x.copy(), {})
    est = estimate_dictionary(ds).z
    assert np.max(np.abs(est - np.eye(6))) < 1e-8


def test_estimate_dictionary_noiseless_residual():
    d, ds = make_problem((12,), 6, k=4, count=600, sigma2=0.0, seed=28)
    est = estimate_dictionary(ds).z
    res = np.linalg.norm(ds.obs.z - est @ ds.truth.z)
    assert res / np.linalg.norm(ds.obs.z) < 1e-8


def test_estimate_dictionary_noisy_column_angles():
    d, ds = make_problem((16,), 8, k=4, count=6000, sigma2=0.4, seed=29)
    est = estimate_dictionary(ds).z
    ref = d.phi.z
    for col in range(ref.shape[1]):
        a, b = est[:, col], ref[:, col]
        cosang = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        angle = np.degrees(np.arccos(min(1.0, cosang)))
        assert angle < 5.0


def test_estimate_dictionary_rank_deficient_rejected():
    rng = np.random.default_rng(30)
    # every label column lies on the same support: the normal matrix is singular
    xr = np.zeros((8, 50))
    xr[2] = rng.standard_normal(50)
    ds = Dataset(ComplexArray(rng.standard_normal((4, 50)),
                              rng.standard_normal((4, 50))),
                 ComplexArray(xr, np.zeros_like(xr)), {})
    with pytest.raises(ValueError):
        estimate_dictionary(ds)
    with pytest.raises(ValueError):
        estimate_dictionary(Dataset(ComplexArray.zeros((4, 5)),
                                    ComplexArray.zeros((8, 5)), {}))


# -- the spectral cache of the backward pass -----------------------------------


@pytest.mark.parametrize("arch, shape, n_obs", [
    ("toeplitz1d", (64,), 16), ("toeplitz2d", (8, 8), 32), ("convlista", (64,), 16)])
def test_a_desk_training_step_runs_no_fft_and_a_batch_1_forward_does(
        arch, shape, n_obs, monkeypatch):
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2"):
        def spy(*args, _orig=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    rng = np.random.default_rng(43)
    net = random_net(arch, shape, n_obs, 5, rng, theta=0.1)
    y = rng.standard_normal((128, n_obs)) + 1j * rng.standard_normal((128, n_obs))
    truth = rng.standard_normal((128, net.total)) + 1j * rng.standard_normal((128, net.total))
    grads, _, _, _ = _backward_planes(net, y, truth)
    assert calls == [] and len(grads) == 15
    # one row stays on the FFT route: the one-shot Conv.apply convolves
    conv_calls = []

    def counted(*args, _orig=hf.nets.conv_full_planes):
        conv_calls.append(args[2].shape)
        return _orig(*args)

    monkeypatch.setattr(hf.nets, "conv_full_planes", counted)
    forward_planes(net, y[:1].real, y[:1].imag)
    assert len(conv_calls) == 4 and calls


def random_net(arch, shape, n_obs, depth, rng, theta=0.3):
    """Random weights in every slot, so no gradient vanishes."""
    obs_op, inhibit_op = branches(arch, shape, n_obs)
    layers = [Layer(rand_carray(rng, obs_op.shape), None,
                    rand_carray(rng, inhibit_op.shape), theta)
              for _ in range(depth)]
    return UnfoldedNetwork(arch, shape, n_obs, layers)


@pytest.mark.parametrize("arch, shape", [
    ("lista", (12,)), ("toeplitz1d", (12,)), ("toeplitz2d", (3, 4)), ("convlista", (12,))])
def test_a_built_network_builds_no_operator_again(monkeypatch, arch, shape):
    # the two operators are built with the network and read from net.ops
    d, ds = make_problem(shape, 5, count=6, seed=40)
    net = random_net(arch, shape, 5, 3, np.random.default_rng(41))

    def refuse(*args):
        raise AssertionError("branches called on a built network")

    monkeypatch.setattr(hf.nets, "branches", refuse)
    y = ds.obs.z.T
    forward_planes(net, y.real, y.imag)
    assert np.isfinite(loss_nmse(net, ds))
    grads, loss = backward(net, ds)
    assert len(grads) == 3 * net.depth and np.isfinite(loss)
    assert param_count(net)["depth"] == 3


def reference_backward(net, y, truth):
    """The backward pass through each operator's own ``grad`` and
    ``adjoint`` on the cached inputs, transforming everything afresh."""
    xr, xi, cache = forward_planes(net, y.real, y.imag, keep_cache=True)
    err = (xr + 1j * xi) - truth
    per = np.linalg.norm(err, axis=1)
    g = err / (per[:, None] * np.sum(np.linalg.norm(truth, axis=1)))
    obs_op, inhibit_op = branches(net.arch, net.shape, net.n_obs)
    grads = [None] * (3 * net.depth)
    for t in range(net.depth - 1, -1, -1):
        layer = net.layers[t]
        gu, gtheta = _soft_threshold_adjoint(g, cache[t]["u"], cache[t]["mag"],
                                             layer.threshold)
        ginhib = np.zeros(inhibit_op.shape, dtype=np.complex128)
        if t > 0:
            ginhib = inhibit_op.grad(gu, cache[t]["x"])
            g = inhibit_op.adjoint(layer.inhibit, gu)
        grads[3 * t:3 * t + 3] = obs_op.grad(gu, y), ginhib, np.array(gtheta)
    return grads


@pytest.mark.parametrize("arch, shape, n_obs", [
    ("lista", (12,), 5), ("lista", (3, 4), 5), ("toeplitz1d", (12,), 5),
    ("toeplitz2d", (3, 4), 5), ("convlista", (12,), 5), ("convlista", (3, 4), 5),
    ("convlista", (3,), 16)])   # observation Conv((16,), (3,)): grad window from -15
def test_backward_spectra_match_a_fresh_reference_across_adam_steps(arch, shape, n_obs):
    rng = np.random.default_rng(41)
    total = int(np.prod(shape))
    net = random_net(arch, shape, n_obs, 3, rng)
    y = rng.standard_normal((6, n_obs)) + 1j * rng.standard_normal((6, n_obs))
    truth = rng.standard_normal((6, total)) + 1j * rng.standard_normal((6, total))
    params = net_param_arrays(net)
    state = init_adam_state(params)
    for _ in range(3):
        grads, _, _, _ = _backward_planes(net, y, truth)
        for got, want in zip(grads, reference_backward(net, y, truth)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
        # steps the weights and thresholds in place, under the same network
        adam_step(params, grads, state, 0.05)


@pytest.mark.parametrize("arch, shape, depth, batch, want", [
    ("lista", (8,), 5, 128, 0),
    # at 128 rows, grids whose Conv matrices are too large for the dense
    # route (nets.route), so that every branch transforms
    ("toeplitz1d", (256,), 5, 128, 4 * (4 * 128 + 2)),
    ("toeplitz2d", (16, 16), 5, 128, 4 * (4 * 128 + 2)),
    ("toeplitz1d", (8,), 3, 7, 2 * (4 * 7 + 2)),
    # per layer 2B+2 rows on the observation branch, and the observations
    # once; on a 1-D grid both branches transform gu alike and share it
    # (M = 4096: kernels of M+3 and 2M-1 entries, one power of two)
    ("convlista", (4096,), 5, 128, 5 * (2 * 128 + 2) + 128 + 4 * (3 * 128 + 2)),
    ("convlista", (2, 4), 3, 7, 3 * (2 * 7 + 2) + 7 + 2 * (4 * 7 + 2))])
def test_backward_transforms_each_activation_once(arch, shape, depth, batch, want,
                                                  monkeypatch):
    """One training step transforms, per structured layer, the kernel, the
    inhibition input and gu once each, and inverts the forward product, the
    adjoint and the batch-summed weight gradient: (T-1)(4B+2) rows."""
    rows = []
    for name, ndim in (("fft", 1), ("ifft", 1), ("fft2", 2), ("ifft2", 2)):
        def spy(*args, _orig=getattr(np.fft, name), _ndim=ndim, **kwargs):
            out = _orig(*args, **kwargs)
            rows.append(int(np.prod(out.shape[:-_ndim])))
            return out
        monkeypatch.setattr(np.fft, name, spy)
    rng = np.random.default_rng(42)
    total = int(np.prod(shape))
    net = random_net(arch, shape, 4, depth, rng)
    ds = Dataset(ComplexArray(rng.standard_normal((4, batch)),
                              rng.standard_normal((4, batch))),
                 ComplexArray(rng.standard_normal((total, batch)),
                              rng.standard_normal((total, batch))), {})
    backward(net, ds)
    assert sum(rows) == want
