"""Loss, analytic gradients vs finite differences, Adam, the training loop."""

import numpy as np
import pytest

import hunfold as hf
from hunfold.cplx import ComplexArray
from hunfold.harmonic import Dataset
from hunfold.nets import (Layer, UnfoldedNetwork, branches, forward,
                          forward_planes, init_network, place_obs)
from hunfold.training import (TrainConfig, _backward_planes,
                              _soft_threshold_adjoint, adam_step,
                              assemble_network, backward, estimate_dictionary,
                              init_adam_state, loss_nmse, net_param_arrays,
                              train)

from conftest import rand_carray


def make_problem(shape, n, k=2, count=4, sigma2=0.05, seed=5):
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, n, seed=seed))
    ds = hf.gen_dataset(d, count, k, sigma2, seed=seed + 1)
    return d, ds


def perturbed_net(arch, d, depth, seed, jitter=0.05, theta_shift=0.03):
    """Initialised network nudged to a generic smooth point."""
    rng = np.random.default_rng(seed)
    net = init_network(arch, d, depth, lam=0.8)
    params = net_param_arrays(net)
    for p in params:
        if p.ndim == 0:
            p += theta_shift
        else:
            p.real += jitter * rng.standard_normal(p.shape)
            p.imag += jitter * rng.standard_normal(p.shape)
    return assemble_network(arch, d.shape, d.n_obs, params), params


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


def place_thresholds(arch, shape, n, params, ds, lo=0.4, hi=0.9):
    """Put every layer's threshold inside a wide gap of its pre-activation
    magnitude distribution, keeping a mix of active and inactive entries.

    Layer activations depend only on earlier thresholds, so one front-to-back
    pass settles all layers.
    """
    from hunfold.nets import forward_planes
    yr = np.ascontiguousarray(ds.obs.re.T)
    yi = np.ascontiguousarray(ds.obs.im.T)
    depth = len(params) // 3
    for t in range(depth):
        net = assemble_network(arch, shape, n, params)
        _, _, cache = forward_planes(net, yr, yi, keep_cache=True)
        mags = np.sort(np.abs(cache[t]["u"]).ravel())
        a = int(len(mags) * lo)
        b = max(a + 2, int(len(mags) * hi))
        gaps = np.diff(mags[a:b])
        pick = a + int(np.argmax(gaps))
        params[3 * t + 2].fill(0.5 * (mags[pick] + mags[pick + 1]))
    return assemble_network(arch, shape, n, params)


def fd_check(arch, shape, n, depth=3, seed=5, eps=1e-5, tol=1e-4):
    d, ds = make_problem(shape, n, seed=seed)
    _, params = perturbed_net(arch, d, depth, seed)
    net = place_thresholds(arch, shape, n, params, ds)
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
            lp = loss_nmse(assemble_network(arch, shape, n, params), ds)
            setv(orig - eps)
            lm = loss_nmse(assemble_network(arch, shape, n, params), ds)
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
        x = ds.truth.to_complex()[:, i]
        xh = forward(net, y).to_complex()
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
                          ({"epochs": -1}, "epochs")]:
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


def test_filter_gradient_matches_closed_form():
    # single linear layer (zero threshold): the loss gradient wrt the filter
    # has the closed form sum_b (err_b / ||err_b||) y_b^H / sum_b ||x_b||
    d, ds = make_problem((9,), 5, count=5, seed=10, sigma2=0.0)
    rng = np.random.default_rng(11)
    filt = rand_carray(rng, (9, 5))
    net = UnfoldedNetwork("lista", (9,), 5,
                          [Layer(filt, None, ComplexArray.zeros((9, 9)), 0.0)])
    g = backward(net, ds)[0][0]
    yc = ds.obs.to_complex()
    xc = ds.truth.to_complex()
    pred = filt.to_complex() @ yc
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
    work = assemble_network("toeplitz1d", desk_dict.shape, desk_dict.n_obs, params)
    grads = [np.full_like(p, 1 - 2j) if p.ndim else np.array(0.0) for p in params]
    adam_step(params, grads, init_adam_state(params), 0.1)
    # every real and imaginary part moved by the learning rate against its
    # gradient's sign, in the arrays the network holds
    inhibit = work.layers[0].inhibit.z
    assert inhibit is params[1]
    assert np.max(np.abs(inhibit - (-0.1 + 0.1j))) < 1e-6


def test_train_zero_epochs_is_identity(desk_dict):
    ds = hf.gen_dataset(desk_dict, 64, 2, 0.1, seed=20)
    net = init_network("toeplitz1d", desk_dict, 2, lam=0.1)
    out, report = train(net, ds, ds, TrainConfig(epochs=0))
    assert out is net
    assert report.loss_history == [] and report.val_history == []
    assert report.best_epoch is None


def test_train_rejects_empty_training_set(desk_dict):
    ds = hf.gen_dataset(desk_dict, 8, 2, 0.1, seed=27)
    net = init_network("toeplitz1d", desk_dict, 2, lam=0.1)
    with pytest.raises(ValueError, match="training set is empty"):
        train(net, ds.take(np.arange(0)), ds, TrainConfig(epochs=1))


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


def test_estimate_dictionary_identity_case():
    rng = np.random.default_rng(27)
    x = rand_carray(rng, (6, 40))
    ds = Dataset(x.copy(), x.copy(), {})
    est = estimate_dictionary(ds).to_complex()
    assert np.max(np.abs(est - np.eye(6))) < 1e-8


def test_estimate_dictionary_noiseless_residual():
    d, ds = make_problem((12,), 6, k=4, count=600, sigma2=0.0, seed=28)
    est = estimate_dictionary(ds).to_complex()
    res = np.linalg.norm(ds.obs.to_complex() - est @ ds.truth.to_complex())
    assert res / np.linalg.norm(ds.obs.to_complex()) < 1e-8


def test_estimate_dictionary_noisy_column_angles():
    d, ds = make_problem((16,), 8, k=4, count=6000, sigma2=0.4, seed=29)
    est = estimate_dictionary(ds).to_complex()
    ref = d.phi.to_complex()
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


def random_net(arch, shape, n_obs, depth, rng, theta=0.3):
    """Random weights in every slot, so no gradient vanishes."""
    obs_op, inhibit_op = branches(arch, shape, n_obs)
    layers = [Layer(*place_obs(arch, rand_carray(rng, obs_op.shape)),
                    rand_carray(rng, inhibit_op.shape), theta)
              for _ in range(depth)]
    return UnfoldedNetwork(arch, shape, n_obs, layers)


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
        gu, gtheta = _soft_threshold_adjoint(g, cache[t]["u"], layer.threshold)
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
    net = assemble_network(arch, shape, n_obs, params)   # shares the weights
    state = init_adam_state(params)
    for _ in range(3):
        grads, _, _, _ = _backward_planes(net, y.real, y.imag, truth.real, truth.imag)
        for got, want in zip(grads, reference_backward(net, y, truth)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
        # steps the weights in place, under the same network object
        adam_step(params, grads, state, 0.05)
        for layer, theta in zip(net.layers, params[2::3]):
            layer.threshold = float(theta)


@pytest.mark.parametrize("arch, shape, depth, batch, want", [
    ("lista", (8,), 5, 128, 0),
    ("toeplitz1d", (8,), 5, 128, 4 * (4 * 128 + 2)),
    ("toeplitz2d", (2, 4), 5, 128, 4 * (4 * 128 + 2)),
    ("toeplitz1d", (8,), 3, 7, 2 * (4 * 7 + 2)),
    # per layer 2B+2 rows on the observation branch, and the observations
    # once; on a 1-D grid both branches transform gu alike and share it
    ("convlista", (8,), 5, 128, 5 * (2 * 128 + 2) + 128 + 4 * (3 * 128 + 2)),
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
