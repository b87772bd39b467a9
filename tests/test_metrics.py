"""Error ratio and hit-rate semantics, including the brute-force top-set oracle."""

from itertools import combinations

import numpy as np
import pytest

from hunfold.cplx import ComplexArray
from hunfold.metrics import hit_rate_metric, nmse_metric, top_k_indices

from conftest import rand_carray


def test_nmse_trivial_values():
    rng = np.random.default_rng(0)
    x = rand_carray(rng, (12,))
    assert nmse_metric(x, x) == 0.0
    assert abs(nmse_metric(ComplexArray.zeros((12,)), x) - 1.0) < 1e-15
    doubled = ComplexArray(2 * x.re, 2 * x.im)
    assert abs(nmse_metric(doubled, x) - 1.0) < 1e-12


def test_nmse_zero_truth_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        nmse_metric(rand_carray(rng, (4,)), ComplexArray.zeros((4,)))


def test_hit_rate_perfect_and_zero():
    x = ComplexArray.zeros((512,))
    x.re[[100, 200, 300, 400, 500]] = 1.0
    assert hit_rate_metric(x, x, 5) == 1.0
    # all-zero estimate: stable ties pick the lowest indices 0..4
    zero = ComplexArray.zeros((512,))
    assert hit_rate_metric(zero, x, 5) == 0.0


def test_hit_rate_tie_break_lowest_index():
    x_hat = ComplexArray.zeros((6,))
    x_hat.re[:] = 1.0  # six-way tie
    truth = ComplexArray.zeros((6,))
    truth.re[[0, 1]] = 1.0
    assert np.array_equal(top_k_indices(x_hat, 2), np.array([0, 1]))
    assert hit_rate_metric(x_hat, truth, 2) == 1.0


def test_hit_rate_matches_brute_force_top_sets():
    rng = np.random.default_rng(2)
    m, k = 10, 3
    for _ in range(1000):
        # small integer magnitudes: sums are exact, so ties are real ties
        mag = rng.integers(0, 5, size=m).astype(float)
        x_hat = ComplexArray(mag, np.zeros(m))
        support = rng.choice(m, size=k, replace=False)
        truth = ComplexArray.zeros((m,))
        truth.re[support] = 1.0
        # best K-subset by total magnitude, ties by lexicographic order
        best = max(combinations(range(m), k),
                   key=lambda c: (sum(mag[list(c)]),
                                  tuple(-i for i in c)))
        expect = len(set(best) & set(support)) / k
        assert hit_rate_metric(x_hat, truth, k) == expect


def test_hit_rate_tolerant_1d():
    truth = ComplexArray.zeros((20,))
    truth.re[[5, 12]] = 1.0
    x_hat = ComplexArray.zeros((20,))
    x_hat.re[[6, 11]] = 1.0  # both one cell off
    assert hit_rate_metric(x_hat, truth, 2) == 0.0
    assert hit_rate_metric(x_hat, truth, 2, tol_cells=1) == 1.0


def test_hit_rate_tolerant_2d_chebyshev():
    truth = ComplexArray.zeros((12,))
    truth.re[5] = 1.0  # cell (1, 1) on a 3x4 grid
    x_hat = ComplexArray.zeros((12,))
    x_hat.re[10] = 1.0  # cell (2, 2): diagonal neighbour
    assert hit_rate_metric(x_hat, truth, 1, tol_cells=1, grid_shape=(3, 4)) == 1.0
    x_hat = ComplexArray.zeros((12,))
    x_hat.re[7] = 1.0  # cell (1, 3): two columns away
    assert hit_rate_metric(x_hat, truth, 1, tol_cells=1, grid_shape=(3, 4)) == 0.0


def test_hit_rate_validation():
    truth = ComplexArray.zeros((8,))
    truth.re[2] = 1.0
    with pytest.raises(ValueError):
        hit_rate_metric(truth, truth, 0)
    with pytest.raises(ValueError):
        hit_rate_metric(truth, truth, 2)  # truth has one nonzero, not two


@pytest.mark.parametrize("score, words", [
    (lambda x: hit_rate_metric(x, x, 1, tol_cells=-1), "tol_cells must be an integer >= 0, got -1"),
    (lambda x: hit_rate_metric(x, x, 1, tol_cells=1.5), "tol_cells must be an integer >= 0, got 1.5"),
    (lambda x: top_k_indices(x, 2.5), "k must be an integer >= 0, got 2.5")],
    ids=["negative-tolerance", "fractional-tolerance", "fractional-k"])
def test_metrics_name_a_count_that_is_not_an_integer(score, words):
    # a tolerance of -1 once scored 0.0 and one of 1.5 was taken; a k of 2.5
    # failed inside numpy's partition
    x = ComplexArray.zeros((8,))
    x.re[2] = 1.0
    with pytest.raises(ValueError) as err:
        score(x)
    assert str(err.value) == words


def chebyshev_hit_rate(x_hat, x_true, k, tol_cells=0, shape=None):
    """The rule with every index set on the grid: hypot support, unravelled
    indices and the (B, k, k, rank) Chebyshev distance array."""
    truth = np.ascontiguousarray(np.atleast_2d(x_true.z.T))
    nonzero = np.hypot(truth.real, truth.imag) > 0.0
    counts = np.count_nonzero(nonzero, axis=1)
    if np.any(counts != k):
        i = np.flatnonzero(counts != k)[0]
        raise ValueError(f"has {counts[i]} nonzeros, expected {k}")
    shape = truth.shape[1:] if shape is None else shape
    support = np.stack(np.unravel_index(np.nonzero(nonzero)[1].reshape(-1, k), shape), -1)
    picked = np.stack(np.unravel_index(top_k_indices(x_hat, k).reshape(-1, k), shape), -1)
    dist = np.max(np.abs(support[:, :, None, :] - picked[:, None, :, :]), axis=-1)
    hits = np.count_nonzero(np.any(dist <= tol_cells, axis=2), axis=1)
    return hits / k


@pytest.mark.parametrize("tol_cells, shape", [(0, None), (0, (8, 8)), (1, None),
                                              (1, (8, 8)), (2, (4, 16))])
def test_hit_rate_equals_the_chebyshev_rule_bit_for_bit(tol_cells, shape):
    rng = np.random.default_rng(21)
    total, b, k = 64, 12, 3
    truth = np.zeros((total, b), dtype=np.complex128)
    for i in range(b):
        truth[rng.choice(total, k, replace=False), i] = rng.standard_normal(k) + 1j
    est = truth + 0.4 * (rng.standard_normal((total, b)) + 1j * rng.standard_normal((total, b)))
    est[:, 1] = np.round(est[:, 1].real)   # integer moduli: ties across the top k
    est[:, 2] = 0.0                        # all tied: the lowest indices win
    est[7, 3] = np.nan                     # a NaN estimate ranks last
    truth[9, 4] = truth[10, 5] = complex(np.nan, 0.0)   # a NaN truth entry is no component
    x_hat, x_true = ComplexArray(est), ComplexArray(truth)
    want = chebyshev_hit_rate(x_hat, x_true, k, tol_cells, shape)
    got = hit_rate_metric(x_hat, x_true, k, tol_cells=tol_cells, grid_shape=shape)
    assert np.array_equal(got, want) and got.min() < got.max()
    for i in range(b):
        col_hat, col_true = ComplexArray(est[:, i].copy()), ComplexArray(truth[:, i].copy())
        assert hit_rate_metric(col_hat, col_true, k, tol_cells=tol_cells,
                               grid_shape=shape) == want[i]
    # counts, and so errors, ignore a NaN truth entry alike
    truth[np.flatnonzero(truth[:, 6])[0], 6] = 0.0
    with pytest.raises(ValueError) as old:
        chebyshev_hit_rate(x_hat, x_true, k, tol_cells, shape)
    with pytest.raises(ValueError, match="column 6 has") as new:
        hit_rate_metric(x_hat, x_true, k, tol_cells=tol_cells, grid_shape=shape)
    assert str(old.value).split("has")[1] == str(new.value).split("has")[1]


def test_hit_rate_names_a_grid_shape_that_does_not_fit():
    truth = ComplexArray.zeros((12,))
    truth.re[5] = 1.0
    for tol_cells in (0, 1):
        with pytest.raises(ValueError, match=r"grid_shape \(4, 4\) does not hold 12"):
            hit_rate_metric(truth, truth, 1, tol_cells=tol_cells, grid_shape=(4, 4))
    assert hit_rate_metric(truth, truth, 1, tol_cells=1, grid_shape=(3, 4)) == 1.0


def test_block_metrics_equal_per_column_calls_bit_for_bit():
    rng = np.random.default_rng(3)
    total, b, k = 64, 24, 2
    truth = np.zeros((total, b), dtype=np.complex128)
    for i in range(b):
        truth[rng.choice(total, size=k, replace=False), i] = rng.standard_normal(k) + 1j
    est = truth + 0.3 * (rng.standard_normal((total, b)) + 1j * rng.standard_normal((total, b)))
    est[:, 1] = np.round(est[:, 1].real)   # integer moduli: ties across the top k
    est[:, 2] = 0.0                        # all zero: the lowest indices win
    est[:, 3] = 0.0
    est[:5, 3] = 1.0                       # a five-way tie for the top two
    x_hat, x_true = ComplexArray(est), ComplexArray(truth)
    ratios = nmse_metric(x_hat, x_true)
    hits = hit_rate_metric(x_hat, x_true, k)
    tolerant = hit_rate_metric(x_hat, x_true, k, tol_cells=1, grid_shape=(8, 8))
    picked = top_k_indices(x_hat, k)
    assert ratios.shape == hits.shape == tolerant.shape == (b,)
    for i in range(b):
        col_hat, col_true = ComplexArray(est[:, i].copy()), ComplexArray(truth[:, i].copy())
        assert ratios[i] == nmse_metric(col_hat, col_true)
        assert hits[i] == hit_rate_metric(col_hat, col_true, k)
        assert tolerant[i] == hit_rate_metric(col_hat, col_true, k, tol_cells=1,
                                              grid_shape=(8, 8))
        assert np.array_equal(picked[i], top_k_indices(col_hat, k))
    assert np.array_equal(picked[2], [0, 1]) and np.array_equal(picked[3], [0, 1])
    assert isinstance(nmse_metric(col_hat, col_true), float)


def test_block_metrics_name_the_bad_column():
    truth = np.zeros((8, 3), dtype=np.complex128)
    truth[[1, 4], 0] = 1.0
    truth[[2, 5], 2] = 1.0j
    est = ComplexArray.zeros((8, 3))
    with pytest.raises(ValueError, match="ground truth column 1 is identically zero"):
        nmse_metric(est, ComplexArray(truth))
    truth[6, 1] = 1.0
    with pytest.raises(ValueError, match="ground truth column 1 has 1 nonzeros, expected 2"):
        hit_rate_metric(est, ComplexArray(truth), 2)


def stable_argsort_top_k(z, k):
    """The rule as a full sort: a stable argsort of the negated moduli,
    its first k indices in ascending order (NaN moduli sort last)."""
    rows = np.ascontiguousarray(z.T)
    order = np.argsort(-np.hypot(rows.real, rows.imag), axis=1, kind="stable")
    return np.sort(order[:, :k], axis=1)


@pytest.mark.parametrize("k", [1, 5, 40])
def test_top_k_equals_the_stable_argsort_with_ties_across_the_boundary(k):
    rng = np.random.default_rng(17)
    m, b = 2048, 6
    z = (rng.standard_normal((m, b)) + 1j * rng.standard_normal((m, b))) * 0.1
    for i in range(b):
        # k - 1 clear winners, then 2 + i entries tied for the last place,
        # scattered over the whole column
        spots = rng.choice(m, size=k + 1 + i, replace=False)
        z[spots[:k - 1], i] = 10.0 + np.arange(k - 1)
        z[spots[k - 1:], i] = 3.0j if i % 2 else -3.0
    want = stable_argsort_top_k(z, k)
    got = top_k_indices(ComplexArray(z), k)
    assert np.array_equal(got, want)
    for i in range(b):
        assert np.array_equal(top_k_indices(ComplexArray(z[:, i].copy()), k), want[i])


def test_top_k_ranks_a_nan_modulus_below_every_number():
    x = np.array([np.nan, 0.0, 2.0, np.nan, 1.0, complex(np.nan, 1.0), 0.0])
    # NaN entries rank below zero moduli ...
    assert np.array_equal(top_k_indices(ComplexArray(x), 4), [1, 2, 4, 6])
    # ... and fill up, lowest index first, only when the numbers run out
    assert np.array_equal(top_k_indices(ComplexArray(x), 6), [0, 1, 2, 3, 4, 6])
    assert np.array_equal(top_k_indices(ComplexArray(x), 6),
                          stable_argsort_top_k(x[:, None], 6)[0])
    # an infinite modulus is the largest, even with a NaN part
    y = np.array([1.0, complex(np.inf, np.nan), 2.0])
    assert np.array_equal(top_k_indices(ComplexArray(y), 1), [1])
    assert top_k_indices(ComplexArray(y), 0).shape == (0,)
    with pytest.raises(ValueError):
        top_k_indices(ComplexArray(y), -1)
