"""Forward-pass identities, initialization, parameter counts, model files."""

import dataclasses
import json
import struct

import numpy as np
import pytest

import hunfold as hf
from hunfold.cplx import ComplexArray, hermitian, lipschitz_constant, \
    shrink, shrink_factor, soft_threshold
from hunfold.nets import (ARCH_TABLE, ARCHS, DENSE_MIN_BATCH, Conv, Dense, Layer,
                          UnfoldedNetwork, branches, forward, forward_planes,
                          init_network, load_network, param_count, route,
                          save_network)
from hunfold.solvers import SolverConfig, ista
from hunfold.spectral import Toeplitz, next_pow2, toeplitz_expand, toeplitz_matrix
from hunfold.training import TrainConfig, estimate_dictionary, train

from conftest import SENTINEL, poke, rand_carray


def dict_1d(m=16, n=8, seed=7):
    return hf.build_dictionary((m,), hf.draw_sampling(m, n, seed=seed))


def dict_2d(m1=3, m2=4, n=6, seed=7):
    return hf.build_dictionary((m1, m2), hf.draw_sampling(m1 * m2, n, seed=seed))


def layer_outputs(net, y):
    """Every layer's output on one observation, read off the forward cache:
    layer t's output is layer t+1's cached input."""
    xr, xi, cache = forward_planes(net, y.re[None, :], y.im[None, :], keep_cache=True)
    return ([ComplexArray(c["x"][0]) for c in cache[1:]]
            + [ComplexArray(xr[0] + 1j * xi[0])])


def ista_embedding_net(d, depth, lam):
    """Layers that reproduce the classical shrinkage iteration exactly."""
    big_l = lipschitz_constant(d.phi).value
    filt = hermitian(d.phi).scale(1.0 / big_l)
    gen = hf.gram_generator(d)
    diags = gen.diags.scale(-1.0 / big_l)
    re = diags.re.copy()
    re[tuple(g - 1 for g in gen.grid)] += 1.0   # the zero offset
    inhibit = ComplexArray(re, diags.im.copy())
    arch = f"toeplitz{len(d.shape)}d"
    theta = lam / big_l
    layers = [Layer(filt.copy(), None, inhibit.copy(), theta)
              for _ in range(depth)]
    return UnfoldedNetwork(arch, d.shape, d.n_obs, layers), big_l


def test_forward_zero_parameters_gives_zero():
    rng = np.random.default_rng(0)
    m, n = 10, 4
    layers = [Layer(ComplexArray.zeros((m, n)), None,
                    ComplexArray.zeros((2 * m - 1,)), 0.3) for _ in range(3)]
    net = UnfoldedNetwork("toeplitz1d", (m,), n, layers)
    out = forward(net, rand_carray(rng, (n,)))
    assert np.linalg.norm(out.z) == 0.0


def test_forward_single_layer_equals_one_ista_step():
    d = dict_1d()
    lam = 0.05
    net, big_l = ista_embedding_net(d, 1, lam)
    x = hf.sparse_from_rng(d.total, 2, np.random.default_rng(3))
    y = ComplexArray(d.phi.z @ x.z)
    hand = soft_threshold(ComplexArray(net.layers[0].filt.z @ y.z), lam / big_l)
    got = forward(net, y)
    assert np.max(np.abs(got.z - hand.z)) < 1e-10


def test_forward_embeds_ista_iterations_1d():
    d = dict_1d()
    lam = 0.05
    depth = 7
    net, big_l = ista_embedding_net(d, depth, lam)
    x = hf.sparse_from_rng(d.total, 2, np.random.default_rng(4))
    y = ComplexArray(d.phi.z @ x.z)
    ref = ista(d, y, SolverConfig(lam=lam, max_iter=depth, tol=0.0,
                                  lipschitz=big_l)).x_hat
    got = forward(net, y)
    assert np.max(np.abs(got.z - ref.z)) < 1e-9


def test_forward_embeds_ista_iterations_2d():
    d = dict_2d()
    lam = 0.08
    depth = 6
    net, big_l = ista_embedding_net(d, depth, lam)
    x = hf.sparse_from_rng(d.total, 2, np.random.default_rng(5))
    y = ComplexArray(d.phi.z @ x.z)
    ref = ista(d, y, SolverConfig(lam=lam, max_iter=depth, tol=0.0,
                                  lipschitz=big_l)).x_hat
    got = forward(net, y)
    assert np.max(np.abs(got.z - ref.z)) < 1e-9


def test_toeplitz1d_equals_dense_lista():
    rng = np.random.default_rng(6)
    m, n = 16, 8
    for _ in range(20):
        lt, ld = [], []
        for _ in range(3):
            f = rand_carray(rng, (m, n))
            k = rand_carray(rng, (2 * m - 1,), scale=0.2)
            th = float(rng.uniform(0, 0.2))
            lt.append(Layer(f.copy(), None, k.copy(), th))
            dense = toeplitz_expand(Toeplitz(k, (m,)))
            ld.append(Layer(f.copy(), None, dense, th))
        nt = UnfoldedNetwork("toeplitz1d", (m,), n, lt)
        nd = UnfoldedNetwork("lista", (m,), n, ld)
        y = rand_carray(rng, (n,))
        a = forward(nt, y).z
        b = forward(nd, y).z
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_toeplitz2d_equals_dense_lista():
    rng = np.random.default_rng(7)
    m1, m2, n = 3, 4, 6
    total = m1 * m2
    for _ in range(20):
        lt, ld = [], []
        for _ in range(3):
            f = rand_carray(rng, (total, n))
            k = rand_carray(rng, (2 * m1 - 1, 2 * m2 - 1), scale=0.15)
            th = float(rng.uniform(0, 0.2))
            lt.append(Layer(f.copy(), None, k.copy(), th))
            dense = toeplitz_expand(Toeplitz(k, (m1, m2)))
            ld.append(Layer(f.copy(), None, dense, th))
        nt = UnfoldedNetwork("toeplitz2d", (m1, m2), n, lt)
        nd = UnfoldedNetwork("lista", (m1, m2), n, ld)
        y = rand_carray(rng, (n,))
        a = forward(nt, y).z
        b = forward(nd, y).z
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_forward_record_layers():
    d = dict_1d()
    net = init_network("toeplitz1d", d, 4, lam=0.1)
    y = ComplexArray(d.phi.z @ hf.sparse_from_rng(d.total, 2, np.random.default_rng(8)).z)
    final, per_layer = forward(net, y), layer_outputs(net, y)
    assert len(per_layer) == 4
    assert np.array_equal(per_layer[-1].re, final.re)


def test_init_network_degenerate_recursion():
    # zero inhibition makes every layer recompute the same thresholded filter
    d = dict_1d()
    lam = 0.7
    net = init_network("toeplitz1d", d, 10, lam)
    big_l = lipschitz_constant(d.phi).value
    y = ComplexArray(d.phi.z @ hf.sparse_from_rng(d.total, 3, np.random.default_rng(9)).z)
    hand = soft_threshold(
        ComplexArray(hermitian(d.phi).scale(1.0 / big_l).z @ y.z), lam / big_l)
    got = forward(net, y)
    assert np.max(np.abs(got.z - hand.z)) < 1e-10


def test_init_network_zero_lambda_zero_threshold():
    d = dict_1d()
    net = init_network("lista", d, 3, lam=0.0)
    assert all(layer.threshold == 0.0 for layer in net.layers)


def test_init_network_from_estimated_dictionary():
    d = dict_1d(m=16, n=8, seed=11)
    ds = hf.gen_dataset(d, 400, 4, 0.0, seed=12)
    net = init_network("toeplitz1d", d, 2, lam=0.1, phi_hat=estimate_dictionary(ds))
    big_l = lipschitz_constant(d.phi).value
    ref = hermitian(d.phi).scale(1.0 / big_l)
    # noiseless estimate reproduces the true operator, so the filters agree
    diff = np.max(np.abs(net.layers[0].filt.z - ref.z))
    assert diff < 1e-6


def test_init_network_rejects_a_misshapen_operator():
    d = dict_1d()
    with pytest.raises(ValueError, match="operator of shape"):
        init_network("lista", d, 2, lam=0.1, phi_hat=hermitian(d.phi))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
def test_init_network_rejects_a_bad_penalty(lam):
    with pytest.raises(ValueError, match="penalty weight"):
        init_network("lista", dict_1d(), 2, lam=lam)


def test_init_network_arch_validation():
    d1, d2 = dict_1d(), dict_2d()
    with pytest.raises(ValueError):
        init_network("toeplitz2d", d1, 2, lam=0.1)
    with pytest.raises(ValueError):
        init_network("toeplitz1d", d2, 2, lam=0.1)
    with pytest.raises(ValueError):
        init_network("nope", d1, 2, lam=0.1)


def test_convlista_init_not_degenerate():
    d = dict_1d()
    net = init_network("convlista", d, 3, lam=0.1)
    assert net.layers[0].filt.shape == (d.total + d.n_obs - 1,)
    y = ComplexArray(d.phi.z @ hf.sparse_from_rng(d.total, 2, np.random.default_rng(13)).z)
    assert np.linalg.norm(forward(net, y).z) > 0.0


@pytest.mark.parametrize("d", [dict_1d(m=24, n=10, seed=5), dict_2d(m1=4, m2=5, n=9, seed=6)],
                         ids=["1d", "2d"])
def test_convlista_start_kernel_is_the_per_diagonal_mean(d):
    # the mean of each diagonal of the filter (1/L) phi^H: kernel position p
    # sits on the diagonal at offset n_obs - 1 - p
    filt = hermitian(d.phi).z / lipschitz_constant(d.phi).value
    want = np.array([np.mean(np.diagonal(filt, offset=d.n_obs - 1 - p))
                     for p in range(d.total + d.n_obs - 1)])
    for layer in init_network("convlista", d, 2, lam=0.1).layers:
        got = layer.filt.z
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("grid_in, grid_out", [((16,), (64,)), ((3, 4), (3, 4))])
def test_kernel_index_is_the_dense_form_of_conv(grid_in, grid_out):
    # the kernel gathered at the index map, the Toeplitz matrix of a kernel
    # that holds its own positions on each axis, applied to the identity's rows
    op = Conv(grid_in, grid_out)
    k = rand_carray(np.random.default_rng(38), op.shape)
    idx = tuple(toeplitz_matrix(p, grid_in, grid_out) for p in np.indices(op.shape))
    assert all(a.shape == (int(np.prod(grid_out)), int(np.prod(grid_in))) for a in idx)
    dense = k.z[idx]
    eye = np.eye(int(np.prod(grid_in)), dtype=complex)
    assert np.max(np.abs(op.apply(k, eye).T - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("grid_in, grid_out", [
    ((5,), (5,)), ((16,), (64,)), ((64,), (16,)), ((3, 4), (3, 4)), ((2, 3), (4, 5))], ids=str)
def test_conv_start_reads_a_toeplitz_matrix_back_to_its_kernel(grid_in, grid_out):
    op = Conv(grid_in, grid_out)
    rng = np.random.default_rng(41)
    # small integers: every per-position sum and mean is exact
    k = rng.integers(-8, 9, op.shape) + 1j * rng.integers(-8, 9, op.shape)
    got = op.start(ComplexArray(toeplitz_matrix(k, grid_in, grid_out)))
    assert got.shape == op.shape and got.z.tobytes() == k.tobytes()
    k = rand_carray(rng, op.shape).z
    got = op.start(ComplexArray(toeplitz_matrix(k, grid_in, grid_out))).z
    assert np.max(np.abs(got - k)) <= 1e-15 * np.max(np.abs(k))


def test_dense_start_is_the_matrix():
    w = rand_carray(np.random.default_rng(42), (6, 4))
    assert Dense(6, 4).start(w) is w


# the grid ranks each architecture took when the tags were parsed by name
TAG_RANKS = {"lista": (1, 2), "toeplitz1d": (1,), "toeplitz2d": (2,), "convlista": (1, 2)}


@pytest.mark.parametrize("arch", ARCHS)
def test_each_tag_takes_the_ranks_of_its_row(arch):
    assert ARCH_TABLE[arch].ranks == TAG_RANKS[arch]
    for shape in [(), (6,), (3, 4), (2, 3, 2)]:
        if len(shape) in TAG_RANKS[arch]:
            branches(arch, shape, 5)
            continue
        with pytest.raises(ValueError) as err:
            branches(arch, shape, 5)
        assert str(err.value).endswith(f"not the {len(shape)}-D grid {shape}")


def test_param_count_paper_scale_numbers():
    layers = [Layer(ComplexArray.zeros((512, 64)), None,
                    ComplexArray.zeros((512, 512)), 0.1) for _ in range(10)]
    net = UnfoldedNetwork("lista", (512,), 64, layers)
    pc = param_count(net)
    assert pc["per_layer"]["inhibition"] == 512 * 512
    assert pc["inhibition_total"] == 2_621_440
    assert pc["per_layer"]["total"] == 512 * 512 + 512 * 64 + 1

    layers = [Layer(ComplexArray.zeros((512, 64)), None,
                    ComplexArray.zeros((1023,)), 0.1) for _ in range(10)]
    toep = UnfoldedNetwork("toeplitz1d", (512,), 64, layers)
    pc = param_count(toep)
    assert pc["per_layer"]["inhibition"] == 1023
    assert pc["inhibition_total"] == 10_230


def test_param_count_2d_example():
    layers = [Layer(ComplexArray.zeros((512, 64)), None,
                    ComplexArray.zeros((2 * 8 - 1, 2 * 64 - 1)), 0.1)]
    net = UnfoldedNetwork("toeplitz2d", (8, 64), 64, layers)
    assert param_count(net)["per_layer"]["inhibition"] == 15 * 127


def test_param_count_convlista():
    m, n = 20, 8
    layers = [Layer(ComplexArray.zeros((m + n - 1,)), None,
                    ComplexArray.zeros((2 * m - 1,)), 0.1)]
    net = UnfoldedNetwork("convlista", (m,), n, layers)
    pc = param_count(net)
    assert pc["per_layer"]["filter"] == m + n - 1
    assert pc["per_layer"]["total"] == (m + n - 1) + (2 * m - 1) + 1


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    d = dict_2d(m1=3, m2=5, n=7, seed=15)
    net = init_network("toeplitz2d", d, 3, lam=0.2)
    for layer in net.layers:
        layer.inhibit.re += 0.1 * rng.standard_normal(layer.inhibit.shape)
    path = tmp_path / "model.hun"
    save_network(path, net, extra_meta={"note": "round trip"})
    back = load_network(path)
    assert back.arch == net.arch and back.shape == net.shape
    assert back.n_obs == net.n_obs and back.depth == net.depth
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.filt.re, b.filt.re)
        assert np.array_equal(a.filt.im, b.filt.im)
        assert np.array_equal(a.inhibit.re, b.inhibit.re)
        assert np.array_equal(a.inhibit.im, b.inhibit.im)
        assert a.threshold == b.threshold
    side = (tmp_path / "model.hun.json").read_text()
    assert '"note": "round trip"' in side


@pytest.mark.parametrize("arch, shape", [("toeplitz1d", (16,)), ("toeplitz2d", (3, 4))])
def test_the_sampling_set_survives_train_save_and_load(tmp_path, arch, shape):
    d = hf.build_dictionary(shape, hf.draw_sampling(int(np.prod(shape)), 6, seed=23))
    ds = hf.gen_dataset(d, 12, 1, 0.01, seed=4)
    net0 = init_network(arch, d, 2, lam=0.1)
    assert net0.sampling is d.sampling
    net, _ = train(net0, ds.take(np.arange(8)), ds.take(np.arange(8, 12)),
                   TrainConfig(batch_size=4, epochs=1))
    assert net is not net0 and net.sampling is d.sampling
    path = tmp_path / "m.hun"
    save_network(path, net)
    side = json.loads((tmp_path / "m.hun.json").read_text())
    assert side["omega"] == d.sampling.omega.tolist() and side["sampling_seed"] == 23
    back = load_network(path)
    assert np.array_equal(back.sampling.omega, d.sampling.omega)
    assert back.sampling.seed == 23


@pytest.mark.parametrize("omega, words", [
    ([0, 1, 2], "sampling set of 3 indices up to 2 does not fit n_obs = 6 on a grid of 16"),
    ([0, 1, 2, 3, 4, 16], "sampling set of 6 indices up to 16 does not fit n_obs = 6"),
    ([3, 1], "sampling indices must be strictly ascending"),
    ("abc", "sampling indices must be a 1-D list"),
    ([], "sampling set of 0 indices up to 0 does not fit n_obs = 6 on a grid of 16")],
    ids=["short", "past-the-grid", "descending", "not-a-list", "empty"])
def test_load_network_names_the_sidecar_of_a_sampling_set_that_does_not_fit(
        tmp_path, omega, words):
    path, side = tmp_path / "m.hun", tmp_path / "m.hun.json"
    save_network(path, init_network("toeplitz1d", dict_1d(m=16, n=6, seed=3), 1, lam=0.1))
    side.write_text(json.dumps({**json.loads(side.read_text()), "omega": omega}))
    with pytest.raises(ValueError) as err:
        load_network(path)
    assert str(err.value).startswith(f"{side}: {words}")


def test_a_network_refuses_a_sampling_set_that_does_not_fit():
    layers = init_network("lista", dict_1d(m=16, n=6, seed=3), 1, lam=0.1).layers
    for sampling in (hf.draw_sampling(16, 5, seed=1), hf.draw_sampling(16, 7, seed=1),
                     hf.SamplingSet(np.array([0, 1, 2, 3, 4, 16]), 0)):
        with pytest.raises(ValueError, match="does not fit n_obs = 6 on a grid of 16"):
            UnfoldedNetwork("lista", (16,), 6, layers, sampling)
    # the four-argument form records no set
    assert UnfoldedNetwork("lista", (16,), 6, layers).sampling is None


def test_a_network_refuses_the_assignment_of_any_field():
    # a set assigned after the network was built once skipped its fit check,
    # and save_network wrote a file that load_network refused
    net = init_network("lista", dict_1d(m=16, n=6, seed=3), 1, lam=0.1)
    for name, value in (("arch", "convlista"), ("shape", (4, 4)), ("n_obs", 5),
                        ("layers", []), ("sampling", hf.draw_sampling(16, 5, seed=2)),
                        ("ops", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, name, value)
    assert net.sampling.count == net.n_obs == 6 and net.arch == "lista"


@pytest.mark.parametrize("depth", [2.5, np.float64(2.0), True, 0])
def test_init_network_refuses_a_depth_that_is_not_an_integer(depth):
    with pytest.raises(ValueError) as err:
        init_network("lista", dict_1d(), depth, lam=0.1)
    assert str(err.value) == f"depth must be an integer >= 1, got {depth!r}"


def test_model_round_trip_convlista(tmp_path):
    d = dict_1d(m=12, n=5, seed=16)
    net = init_network("convlista", d, 2, lam=0.1)
    path = tmp_path / "c.hun"
    save_network(path, net)
    back = load_network(path)
    assert back.arch == "convlista"
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.filt.re, b.filt.re)
        assert np.array_equal(a.inhibit.im, b.inhibit.im)


@pytest.mark.parametrize("arch", ["toeplitz1d", "convlista"])
def test_model_truncated_file_names_path(tmp_path, arch):
    net = init_network(arch, dict_1d(m=10, n=4, seed=17), 2, lam=0.1)
    path = tmp_path / "short.hun"
    save_network(path, net)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="short.hun"):
        load_network(path)


@pytest.mark.parametrize("arch", ["lista", "toeplitz2d"])
def test_model_extended_file_names_path(tmp_path, arch):
    net = init_network(arch, dict_2d(m1=3, m2=4, n=5, seed=18), 2, lam=0.1)
    path = tmp_path / "long.hun"
    save_network(path, net)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="long.hun"):
        load_network(path)


def test_model_1d_with_second_dimension_names_path(tmp_path):
    path = tmp_path / "dim2.hun"
    save_network(path, init_network("lista", dict_1d(m=6, n=3, seed=20), 1, lam=0.1))
    data = bytearray(path.read_bytes())
    data[20] = 1   # u32 dim2 at byte 20 must be 0 for a 1-D grid
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="dim2.hun: corrupt header"):
        load_network(path)


def test_model_with_no_layers_names_path(tmp_path):
    path = tmp_path / "empty.hun"
    save_network(path, init_network("lista", dict_1d(m=6, n=3, seed=21), 1, lam=0.1))
    data = bytearray(path.read_bytes()[:28])   # the header alone
    data[8] = 0   # u32 depth at byte 8
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="empty.hun: a network needs at least one layer"):
        load_network(path)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.hun"
    path.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_network(path)


def test_forward_shape_validation():
    d = dict_1d()
    net = init_network("lista", d, 2, lam=0.1)
    with pytest.raises(ValueError):
        forward(net, ComplexArray.zeros((d.n_obs + 2,)))


# -- branch operators ---------------------------------------------------------

OPERATORS = [
    Dense(11, 7),
    Conv((11,), (11,)),        # 1-D Toeplitz inhibition
    Conv((7,), (11,)),         # ConvLISTA's rectangular observation kernel
    Conv((5, 3), (5, 3)),      # 2-D Toeplitz inhibition on a (M1, M2) grid
    Conv((3, 5), (6, 2)),      # 2-D, different in and out grids
    Conv((8,), (9,)),          # kernel of 16 = 2^4 entries
    Conv((9,), (9,)),          # kernel of 17 = 2^4 + 1 entries
    Conv((16,), (3,)),         # long input, short output
    Conv((9, 8), (8, 9)),      # 2-D kernel of 16 x 16
    Conv((9, 2), (9, 2)),      # 2-D kernel of 17 = 2^4 + 1 rows, 3 columns
    Conv((2, 9), (2, 9)),      # 2-D kernel of 3 rows, 17 = 2^4 + 1 columns
    Conv((1, 8), (1, 8)),      # a grid one cell wide
]


def op_sizes(op):
    if isinstance(op, Dense):
        return op.n_in, op.n_out
    return int(np.prod(op.grid_in)), int(np.prod(op.grid_out))


def batch(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def inner(a, b):
    """sum a conj(b) over all entries."""
    return np.sum(a * np.conj(b))


@pytest.mark.parametrize("op", OPERATORS, ids=repr)
def test_operator_adjoint_identity(op):
    rng = np.random.default_rng(31)
    n_in, n_out = op_sizes(op)
    w = rand_carray(rng, op.shape)
    x = batch(rng, (4, n_in))
    g = batch(rng, (4, n_out))
    lhs = inner(op.apply(w, x), g)
    rhs = inner(x, op.adjoint(w, g))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def unit_matrices(op):
    """Dense (n_out, n_in) matrix of the operator for each unit weight e_p."""
    n_in, _ = op_sizes(op)
    eye = np.eye(n_in, dtype=complex)
    mats = []
    for p in np.ndindex(op.shape):
        w = ComplexArray.zeros(op.shape)
        w.re[p] = 1.0
        mats.append(op.apply(w, eye).real.T)
    return mats


@pytest.mark.parametrize("op", OPERATORS, ids=repr)
def test_operator_grad_is_mapped_batch_outer_product(op):
    rng = np.random.default_rng(32)
    n_in, n_out = op_sizes(op)
    x = batch(rng, (5, n_in))
    g = batch(rng, (5, n_out))
    # batch sum g conj(x)^T, the gradient of a dense weight
    outer = np.einsum("bj,bi->ji", g, np.conj(x))
    if isinstance(op, Dense):
        want = outer
    else:
        want = np.array([np.sum(outer * m) for m in unit_matrices(op)]).reshape(op.shape)
    got = op.grad(g, x)
    assert got.shape == op.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_conv_rectangular_apply_matches_explicit_sum():
    rng = np.random.default_rng(33)
    for n, m in [(7, 11), (9, 9)]:     # the second kernel has 2^4 + 1 entries
        op = Conv((n,), (m,))
        k = rand_carray(rng, op.shape).z
        x = batch(rng, (3, n))
        want = np.array([[sum(k[j + n - 1 - i] * row[i] for i in range(n))
                          for j in range(m)] for row in x])
        got = op.apply(ComplexArray(k), x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def grid_cells(grid):
    """Per-axis indices of a grid's cells in flat order."""
    return list(np.ndindex(grid))


@pytest.mark.parametrize("op", [op for op in OPERATORS if isinstance(op, Conv)],
                         ids=repr)
def test_conv_matches_explicit_sums(op):
    """apply, adjoint and grad against sums over every (output, input) cell
    pair: output cell j takes kernel entry j - i + grid_in - 1 per axis
    times input cell i."""
    rng = np.random.default_rng(37)
    n_in, n_out = op_sizes(op)
    k = rand_carray(rng, op.shape)
    x = batch(rng, (3, n_in))
    g = batch(rng, (3, n_out))
    taps = [[tuple(a - b + s - 1 for a, b, s in zip(j, i, op.grid_in))
             for i in grid_cells(op.grid_in)] for j in grid_cells(op.grid_out)]
    mat = np.array([[k.z[p] for p in row] for row in taps])
    outer = g.T @ np.conj(x)
    want_grad = np.zeros(op.shape, dtype=complex)
    for row, out_row in zip(taps, outer):
        for p, v in zip(row, out_row):
            want_grad[p] += v
    for got, want in ((op.apply(k, x), x @ mat.T), (op.adjoint(k, g), g @ np.conj(mat)),
                      (op.grad(g, x), want_grad)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("op", [op for op in OPERATORS if isinstance(op, Conv)],
                         ids=repr)
def test_conv_transforms_at_the_kernel_power_of_two(op, monkeypatch):
    """apply, adjoint and grad each take three 1-D transforms (kernel,
    batch, product) of prod(next_pow2(K)) points for a kernel of K entries
    per axis, not the power of two of the full linear length, and a 2-D
    grid runs no 2-D transform."""
    seen = []
    for name in ("fft", "ifft", "fft2", "ifft2"):
        def spy(*args, _orig=getattr(np.fft, name), _name=name, **kwargs):
            out = _orig(*args, **kwargs)
            seen.append((_name.rstrip("2"), out.shape[-1], _name.endswith("2")))
            return out
        monkeypatch.setattr(np.fft, name, spy)
    rng = np.random.default_rng(34)
    n_in, n_out = op_sizes(op)
    w = rand_carray(rng, op.shape)
    x = batch(rng, (2, n_in))
    g = batch(rng, (2, n_out))
    points = int(np.prod([next_pow2(k) for k in op.shape]))
    want = [("fft", points, False)] * 2 + [("ifft", points, False)]
    for call in (lambda: op.apply(w, x), lambda: op.adjoint(w, g),
                 lambda: op.grad(g, x)):
        seen.clear()
        call()
        assert seen == want


@pytest.mark.parametrize("op", OPERATORS, ids=repr)
def test_apply_equals_its_spectral_composition_bit_for_bit(op):
    """The one-shot ``apply`` (inference) and ``apply_hat`` on the spectra
    (training, which caches them) are one computation."""
    rng = np.random.default_rng(35)
    n_in, _ = op_sizes(op)
    w = rand_carray(rng, op.shape)
    x = batch(rng, (3, n_in))
    want = op.apply_hat(op.weight_spectrum(w), op.in_spectrum(x))
    assert np.array_equal(op.apply(w, x), want)


@pytest.mark.parametrize("arch, shape", [
    ("lista", (12,)), ("toeplitz1d", (12,)), ("toeplitz2d", (3, 4)),
    ("convlista", (12,)), ("convlista", (3, 4))])
def test_forward_with_and_without_cache_agree_bit_for_bit(arch, shape):
    rng = np.random.default_rng(36)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=1))
    net = init_network(arch, d, 3, lam=0.1)
    for layer in net.layers:
        layer.inhibit = rand_carray(rng, layer.inhibit.shape)
    y = batch(rng, (4, 5))
    plain = forward_planes(net, y.real, y.imag)
    cached = forward_planes(net, y.real, y.imag, keep_cache=True)
    assert plain[2] is None and len(cached[2]) == 3
    assert np.array_equal(plain[0], cached[0]) and np.array_equal(plain[1], cached[1])


@pytest.mark.parametrize("op", [op for op in OPERATORS if isinstance(op, Conv)],
                         ids=repr)
def test_dense_route_equals_the_fft_route(op):
    # at the batch floor and above, the operator's dense matrix: apply,
    # adjoint and grad as the FFT route computes them
    rng = np.random.default_rng(39)
    n_in, n_out = op_sizes(op)
    w = rand_carray(rng, op.shape)
    for rows in (DENSE_MIN_BATCH, 3 * DENSE_MIN_BATCH):
        dense = route(op, rows)
        assert dense is op.matrix and dense.shape == op.shape
        x = batch(rng, (rows, n_in))
        g = batch(rng, (rows, n_out))
        for got, want in ((dense.apply(w, x), op.apply(w, x)),
                          (dense.adjoint(w, g), op.adjoint(w, g)),
                          (dense.grad(g, x), op.grad(g, x))):
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("arch, shape, n_obs, dense", [
    ("lista", (64,), 16, (False, False)),          # a Dense runs as itself
    ("toeplitz1d", (64,), 16, (False, True)),      # desk
    ("toeplitz2d", (8, 8), 32, (False, True)),
    ("convlista", (64,), 16, (True, True)),        # Conv((16,), (64,)) and its inhibition
    ("toeplitz1d", (512,), 64, (False, False)),    # paper scale
    ("toeplitz1d", (2048,), 64, (False, False)),
    ("toeplitz2d", (32, 32), 256, (False, False)),
    ("convlista", (512,), 64, (False, False))])
def test_route_serves_desk_grids_dense_and_paper_grids_by_fft(arch, shape, n_obs, dense):
    ops = branches(arch, shape, n_obs)
    for rows in (DENSE_MIN_BATCH, 128):
        assert tuple(route(op, rows) is not op for op in ops) == dense
    for rows in range(1, DENSE_MIN_BATCH):
        assert all(route(op, rows) is op for op in ops)


@pytest.mark.parametrize("rows", [DENSE_MIN_BATCH, 32])
@pytest.mark.parametrize("arch, shape", [
    ("lista", (12,)), ("toeplitz1d", (12,)), ("toeplitz2d", (3, 4)),
    ("convlista", (12,)), ("convlista", (3, 4))])
def test_dense_route_forward_with_and_without_cache_agree_bit_for_bit(arch, shape, rows):
    rng = np.random.default_rng(40)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=1))
    net = init_network(arch, d, 3, lam=0.1)
    for layer in net.layers:
        layer.inhibit = rand_carray(rng, layer.inhibit.shape)
    y = batch(rng, (rows, 5))
    plain = forward_planes(net, y.real, y.imag)
    cached = forward_planes(net, y.real, y.imag, keep_cache=True)
    assert np.array_equal(plain[0], cached[0]) and np.array_equal(plain[1], cached[1])
    # and the FFT route's numbers, row by row, to rounding
    fft = [forward_planes(net, y[i:i + 1].real, y[i:i + 1].imag) for i in range(rows)]
    want = np.concatenate([a + 1j * b for a, b, _ in fft])
    got = plain[0] + 1j * plain[1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("arch, shape", [
    ("lista", (12,)), ("toeplitz1d", (12,)), ("toeplitz2d", (3, 4)),
    ("convlista", (12,)), ("convlista", (3, 4))])
def test_forward_cache_keeps_each_layers_modulus(arch, shape):
    rng = np.random.default_rng(37)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=1))
    net = init_network(arch, d, 3, lam=0.1)
    net.layers[1].threshold = 0.0     # the identity layer keeps its modulus too
    for layer in net.layers:
        layer.inhibit = rand_carray(rng, layer.inhibit.shape)
    y = batch(rng, (4, 5))
    _, _, cache = forward_planes(net, y.real, y.imag, keep_cache=True)
    for ctx in cache:
        assert ctx["mag"].dtype == np.float64
        assert np.array_equal(ctx["mag"], np.abs(ctx["u"]))


def test_layer_threshold_is_the_cplx_rule_bit_for_bit():
    rng = np.random.default_rng(38)
    d = dict_1d()
    obs = rand_carray(rng, (d.total, d.n_obs))
    theta = 1.5                     # about half the entries fall in the ball
    net = UnfoldedNetwork("lista", d.shape, d.n_obs,
                          [Layer(obs, None, ComplexArray.zeros((d.total, d.total)), theta)])
    y = batch(rng, (6, d.n_obs))
    xr, xi, cache = forward_planes(net, y.real, y.imag, keep_cache=True)
    u, out = cache[0]["u"], xr + 1j * xi
    assert 0 < np.count_nonzero(out) < out.size
    assert np.array_equal(out, shrink(u, theta)[0])
    assert np.array_equal(out, u * shrink_factor(np.abs(u), theta))
    # the public soft threshold, and so the solvers' step, is the same rule
    public = soft_threshold(ComplexArray(u), theta).z
    assert np.array_equal(public, out)


@pytest.mark.parametrize("arch, shape", [
    ("lista", (12,)), ("lista", (3, 4)), ("toeplitz1d", (12,)),
    ("toeplitz2d", (3, 4)), ("convlista", (12,)), ("convlista", (3, 4))])
def test_branches_shapes_match_init(arch, shape):
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=1))
    net = init_network(arch, d, 2, lam=0.1)
    obs_op, inhibit_op = branches(arch, shape, 5)
    for layer in net.layers:
        assert layer.filt.shape == obs_op.shape
        assert layer.inhibit.shape == inhibit_op.shape


@pytest.mark.parametrize("arch, shape", [
    ("lista", (10,)), ("lista", (3, 4)), ("toeplitz1d", (10,)),
    ("toeplitz2d", (3, 4)), ("convlista", (10,)), ("convlista", (3, 4))])
def test_record_layers_equal_truncated_networks(arch, shape):
    rng = np.random.default_rng(34)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=2))
    net = init_network(arch, d, 4, lam=0.2)
    for layer in net.layers:
        layer.inhibit = rand_carray(rng, layer.inhibit.shape, scale=0.1)
    y = rand_carray(rng, (d.n_obs,))
    final, per_layer = forward(net, y), layer_outputs(net, y)
    assert len(per_layer) == net.depth
    for t, out in enumerate(per_layer):
        head = UnfoldedNetwork(arch, shape, d.n_obs, net.layers[:t + 1])
        ref = forward(head, y)
        assert np.array_equal(out.re, ref.re) and np.array_equal(out.im, ref.im)
    assert np.array_equal(final.re, per_layer[-1].re)


@pytest.mark.parametrize("theta", [-0.1, np.nan, np.inf, np.array([0.1, 0.2])])
def test_layer_rejects_bad_threshold(theta):
    with pytest.raises(ValueError, match="threshold"):
        Layer(ComplexArray.zeros((4, 2)), None, ComplexArray.zeros((4, 4)), theta)


def test_network_rejects_toeplitz_on_wrong_grid():
    layer = Layer(ComplexArray.zeros((12, 5)), None, ComplexArray.zeros((23,)), 0.1)
    with pytest.raises(ValueError, match="toeplitz1d"):
        UnfoldedNetwork("toeplitz1d", (3, 4), 5, [layer])
    with pytest.raises(ValueError, match="toeplitz2d"):
        UnfoldedNetwork("toeplitz2d", (12,), 5, [layer])


def test_layer_refuses_an_observation_kernel_in_the_placeholder():
    # the old convlista form, Layer(None, kernel, ...): the kernel goes in filt
    kernel = ComplexArray.zeros((16,))
    with pytest.raises(ValueError, match="filt_kernel"):
        Layer(None, kernel, ComplexArray.zeros((23,)), 0.1)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("branch, name", [("filt", "observation"), ("inhibit", "inhibition")])
def test_network_names_the_layer_and_branch_of_a_wrong_shaped_weight(arch, branch, name):
    # each weight one entry short on its last axis; toeplitz1d's 22-entry
    # kernel (23 at M=12) once ran forward without a word
    shape = (3, 4) if arch == "toeplitz2d" else (12,)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 5, seed=1))
    layers = init_network(arch, d, 3, lam=0.1).layers
    want = getattr(layers[2], branch).shape
    cut = want[:-1] + (want[-1] - 1,)
    setattr(layers[2], branch, ComplexArray.zeros(cut))
    with pytest.raises(ValueError) as err:
        UnfoldedNetwork(arch, shape, d.n_obs, layers)
    assert str(err.value) == f"layer 2 {name} weight has shape {cut}, expected {want}"


@pytest.mark.parametrize("rows", [1, 128])
def test_forward_refuses_a_weight_assigned_after_the_network_was_built(rows):
    # a 22-entry kernel where M=12 takes 23: the FFT route once ran it without
    # a word, and the dense route's strided view would read past its end
    d = hf.build_dictionary((12,), hf.draw_sampling(12, 5, seed=1))
    net = init_network("toeplitz1d", d, 3, lam=0.1)
    net.layers[2].inhibit = ComplexArray.zeros((22,))
    y = batch(np.random.default_rng(42), (rows, 5))
    with pytest.raises(ValueError) as err:
        forward_planes(net, y.real, y.imag)
    assert str(err.value) == "layer 2 inhibition weight has shape (22,), expected (23,)"


@pytest.mark.parametrize("arch", ARCHS)
def test_model_every_bit_flip_loads_or_names_path(tmp_path, arch):
    shape = (2, 3) if arch == "toeplitz2d" else (5,)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 3, seed=19))
    good = tmp_path / "good.hun"
    save_network(good, init_network(arch, d, 2, lam=0.1))
    data = bytearray(good.read_bytes())
    path = tmp_path / "flipped.hun"
    for bit in range(8 * len(data)):
        data[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            load_network(path)
        except ValueError as exc:
            assert str(path) in str(exc), f"bit {bit}: {exc}"


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("branch, name", [("filt", "observation"), ("inhibit", "inhibition")],
                         ids=["obs-observation", "inhibit-inhibition"])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_model_names_a_weight_that_is_not_finite(tmp_path, arch, branch, name, value):
    shape = (2, 3) if arch == "toeplitz2d" else (5,)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 3, seed=19))
    net = init_network(arch, d, 3, lam=0.1)
    weight = getattr(net.layers[1], branch)
    weight.z[(-1,) * weight.ndim] = SENTINEL
    path = tmp_path / "bad.hun"
    save_network(path, net)
    poke(path, complex(value))   # save_network refuses the value itself
    with pytest.raises(ValueError) as err:
        load_network(path)
    assert str(err.value) == f"{path}: layer 1 {name} weight is not finite"


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("branch, name", [("filt", "observation"), ("inhibit", "inhibition")],
                         ids=["obs-observation", "inhibit-inhibition"])
def test_save_network_refuses_a_weight_that_load_network_would(tmp_path, arch, branch, name):
    # such a file was once written, and only its reader refused it
    shape = (2, 3) if arch == "toeplitz2d" else (5,)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 3, seed=19))
    net = init_network(arch, d, 3, lam=0.1)
    weight = getattr(net.layers[2], branch)
    weight.z[(0,) * weight.ndim] = complex(0.0, np.nan)
    path = tmp_path / "bad.hun"
    with pytest.raises(ValueError) as err:
        save_network(path, net)
    assert str(err.value) == f"{path}: layer 2 {name} weight is not finite"
    assert not path.exists() and not (tmp_path / "bad.hun.json").exists()


@pytest.mark.parametrize("theta", [np.nan, np.inf, -0.5])
def test_model_names_the_layer_of_a_bad_threshold(tmp_path, theta):
    d = hf.build_dictionary((5,), hf.draw_sampling(5, 3, seed=19))
    net = init_network("toeplitz1d", d, 3, lam=0.1)
    net.layers[1].threshold.fill(theta)
    path = tmp_path / "bad.hun"
    save_network(path, net)
    with pytest.raises(ValueError) as err:
        load_network(path)
    assert str(err.value) == (f"{path}: layer 1 threshold must be a finite scalar >= 0, "
                              f"got {theta}")


def test_model_of_finite_weights_whose_sum_overflows_loads(tmp_path):
    d = hf.build_dictionary((5,), hf.draw_sampling(5, 3, seed=19))
    net = init_network("lista", d, 1, lam=0.1)
    net.layers[0].inhibit.z[:] = 1e308
    path = tmp_path / "big.hun"
    save_network(path, net)
    assert np.array_equal(load_network(path).layers[0].inhibit.z, net.layers[0].inhibit.z)


@pytest.mark.parametrize("arch, shape", [("toeplitz2d", (2, 3)), ("convlista", (5,))])
def test_model_file_layout(tmp_path, arch, shape):
    # the documented header, then per layer the observation re and im
    # planes, the inhibition re and im planes and the threshold; a matrix's
    # planes are row-major, a kernel's run its first axis fastest
    rng = np.random.default_rng(41)
    total = int(np.prod(shape))
    d = hf.build_dictionary(shape, hf.draw_sampling(total, 4, seed=22))
    net = init_network(arch, d, 2, lam=0.2)
    for layer in net.layers:
        layer.inhibit = rand_carray(rng, layer.inhibit.shape)
    path = tmp_path / "layout.hun"
    save_network(path, net)
    dims = shape if len(shape) == 2 else (shape[0], 0)
    want = struct.pack("<4sIIIIII", b"HUN1", ARCHS.index(arch), 2, len(shape), *dims, 4)
    orders = ("F", "F") if arch == "convlista" else ("C", "F")
    for layer in net.layers:
        for a, order in zip((layer.filt, layer.inhibit), orders):
            for plane in (a.re, a.im):
                want += struct.pack(f"<{plane.size}d", *plane.ravel(order))
        want += struct.pack("<d", layer.threshold)
    assert path.read_bytes() == want
