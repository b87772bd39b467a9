"""Convolutions and the Toeplitz expansion equivalences.

The windowed FFT convolution under test is the network layers' operator,
:class:`hunfold.nets.Conv`; :func:`conv1d` is its direct reference.
"""

import numpy as np
import pytest

from hunfold.cplx import ComplexArray
from hunfold.nets import Conv
from hunfold.spectral import (Toeplitz, ToeplitzVec, conv1d, conv_full_planes,
                              conv_full2_planes, next_pow2, toeplitz_expand,
                              toeplitz_extract)

from conftest import rand_carray


def conv_apply(t, x):
    """``Conv.apply`` of a generator on one grid, column-stacked and read
    back into the grid."""
    out = Conv(t.grid, t.grid).apply(t.diags, x.z.flatten(order="F")[None])[0]
    return out.reshape(t.grid, order="F")


def rand_toeplitz(rng, m):
    return Toeplitz(rand_carray(rng, (2 * m - 1,)), (m,))


def rand_toeplitz2(rng, m1, m2):
    return Toeplitz(rand_carray(rng, (2 * m1 - 1, 2 * m2 - 1)), (m1, m2))


def test_next_pow2():
    assert [next_pow2(v) for v in (1, 2, 3, 5, 16, 17)] == [1, 2, 4, 8, 16, 32]


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(14)
    m = 9
    diags = ComplexArray.zeros((2 * m - 1,))
    diags.re[m - 1] = 1.0  # offset-zero tap only
    t = Toeplitz(diags, (m,))
    x = rand_carray(rng, (m,))
    out = conv1d(t, x)
    assert np.max(np.abs(out.to_complex() - x.to_complex())) < 1e-15


def test_conv1d_shift_kernel():
    m = 3
    diags = ComplexArray.zeros((2 * m - 1,))
    diags.re[m] = 1.0  # offset +1: one-step shift
    t = Toeplitz(diags, (m,))
    x = ComplexArray.from_complex(np.array([1 + 1j, 2.0, 3 - 1j]))
    out = conv1d(t, x).to_complex()
    assert np.array_equal(out, np.array([0, 1 + 1j, 2.0]))


def test_conv1d_matches_dense_expansion():
    rng = np.random.default_rng(15)
    m = 17
    t = rand_toeplitz(rng, m)
    x = rand_carray(rng, (m,))
    ref = toeplitz_expand(t).to_complex() @ x.to_complex()
    got = conv1d(t, x).to_complex()
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_conv1d_fft_matches_direct_many_sizes():
    rng = np.random.default_rng(16)
    for case in range(200):
        m = int(rng.integers(4, 65))
        t = rand_toeplitz(rng, m)
        x = rand_carray(rng, (m,))
        a = conv1d(t, x).to_complex()
        b = conv_apply(t, x)
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))


def test_conv1d_fft_identity_and_zero_kernels():
    rng = np.random.default_rng(17)
    m = 11
    x = rand_carray(rng, (m,))
    ident = ComplexArray.zeros((2 * m - 1,))
    ident.re[m - 1] = 1.0
    out = conv_apply(Toeplitz(ident, (m,)), x)
    assert np.max(np.abs(out - x.to_complex())) < 1e-12
    zero = Toeplitz(ComplexArray.zeros((2 * m - 1,)), (m,))
    assert np.linalg.norm(conv_apply(zero, x)) < 1e-14


def test_conv1d_size_mismatch():
    rng = np.random.default_rng(18)
    t = rand_toeplitz(rng, 8)
    with pytest.raises(ValueError):
        conv1d(t, rand_carray(rng, (9,)))
    with pytest.raises(ValueError):
        conv1d(rand_toeplitz2(rng, 2, 4), rand_carray(rng, (8,)))


def full_conv_oracle(k, x):
    """Row-by-row np.convolve over broadcast leading axes."""
    lead = np.broadcast_shapes(k.shape[:-1], x.shape[:-1])
    k = np.broadcast_to(k, lead + k.shape[-1:]).reshape(-1, k.shape[-1])
    x = np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
    out = np.array([np.convolve(a, b) for a, b in zip(k, x)])
    return out.reshape(lead + (out.shape[-1],))


def full_conv2_oracle(k, x):
    """Nested-sum full 2-D convolution of one kernel with a batch."""
    f1, f2 = k.shape[0] + x.shape[-2] - 1, k.shape[1] + x.shape[-1] - 1
    out = np.zeros(x.shape[:-2] + (f1, f2), dtype=complex)
    for p in range(k.shape[0]):
        for q in range(k.shape[1]):
            out[..., p:p + x.shape[-2], q:q + x.shape[-1]] += k[p, q] * x
    return out


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_planes_close(planes, ref):
    got = planes[0] + 1j * planes[1]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lk,lx", [(23, 12), (5, 37), (61, 31)])
def test_conv_full_planes_kernel_against_batch(lk, lx):
    rng = np.random.default_rng(40 + lk)
    k, x = rand_c(rng, (lk,)), rand_c(rng, (7, lx))
    got = conv_full_planes(k.real, k.imag, x.real, x.imag, next_pow2(lk + lx - 1))
    assert_planes_close(got, full_conv_oracle(k, x))


@pytest.mark.parametrize("lk,lx", [(12, 12), (9, 21)])
def test_conv_full_planes_batched_kernels(lk, lx):
    # the training adjoint's shapes: one kernel row per input row
    rng = np.random.default_rng(50 + lk)
    k, x = rand_c(rng, (6, lk)), rand_c(rng, (6, lx))
    got = conv_full_planes(k.real, k.imag, x.real, x.imag, next_pow2(lk + lx - 1))
    assert_planes_close(got, full_conv_oracle(k, x))


@pytest.mark.parametrize("k_shape,g", [((5, 9), (3, 5)), ((11, 7), (6, 3))])
def test_conv_full2_planes_kernel_against_batch(k_shape, g):
    rng = np.random.default_rng(60 + k_shape[0])
    k, x = rand_c(rng, k_shape), rand_c(rng, (4,) + g)
    n = tuple(next_pow2(a + b - 1) for a, b in zip(k_shape, g))
    got = conv_full2_planes(k.real, k.imag, x.real, x.imag, n)
    assert_planes_close(got, full_conv2_oracle(k, x))


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(19)
    m1, m2 = 4, 6
    diags = ComplexArray.zeros((2 * m1 - 1, 2 * m2 - 1))
    diags.re[m1 - 1, m2 - 1] = 1.0
    x = rand_carray(rng, (m1, m2))
    out = conv_apply(Toeplitz(diags, (m1, m2)), x)
    assert np.max(np.abs(out - x.to_complex())) < 1e-12


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(20)
    t = Toeplitz(ComplexArray.zeros((5, 7)), (3, 4))
    assert np.linalg.norm(conv_apply(t, rand_carray(rng, (3, 4)))) < 1e-14


def test_conv2d_matches_dense_expansion():
    rng = np.random.default_rng(21)
    m1, m2 = 5, 7
    t = rand_toeplitz2(rng, m1, m2)
    x = rand_carray(rng, (m1, m2))
    w = toeplitz_expand(t).to_complex()
    vec = x.to_complex().flatten(order="F")
    ref = (w @ vec).reshape((m2, m1)).T  # invert the column stacking
    got = conv_apply(t, x)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_toeplitz_expand_small_example():
    diags = ComplexArray.from_complex(np.array([5.0, 1.0, 7.0], dtype=complex))
    out = toeplitz_expand(Toeplitz(diags, (2,))).to_complex()
    assert np.array_equal(out, np.array([[1.0, 5.0], [7.0, 1.0]]))
    vec = ToeplitzVec(diags, 2)
    assert isinstance(vec, Toeplitz) and vec.grid == (2,) and vec.diags is diags


def test_toeplitz_expand_zero():
    t = Toeplitz(ComplexArray.zeros((9,)), (5,))
    assert toeplitz_expand(t).norm() == 0.0


def test_toeplitz_extract_round_trip():
    rng = np.random.default_rng(23)
    t = rand_toeplitz(rng, 12)
    back = toeplitz_extract(toeplitz_expand(t), (12,))
    assert np.array_equal(back.diags.re, t.diags.re)
    assert np.array_equal(back.diags.im, t.diags.im)


def test_toeplitz_rejects_a_generator_of_another_grid():
    with pytest.raises(ValueError, match="does not match grid"):
        Toeplitz(ComplexArray.zeros((5, 7)), (4, 3))
    with pytest.raises(ValueError, match="expected"):
        toeplitz_extract(ComplexArray.zeros((12, 12)), (4, 4))


def test_dbt_expand_degenerate_cases():
    one = Toeplitz(ComplexArray.from_complex(np.array([[3 + 1j]])), (1, 1))
    assert toeplitz_expand(one).to_complex()[0, 0] == 3 + 1j
    # single block column: plain Toeplitz of the kernel's only column
    rng = np.random.default_rng(24)
    diags = rand_carray(rng, (3, 1))
    t = Toeplitz(diags, (2, 1))
    expect = toeplitz_expand(
        Toeplitz(ComplexArray(diags.re[:, 0], diags.im[:, 0]), (2,)))
    assert np.array_equal(toeplitz_expand(t).re, expect.re)
    assert np.array_equal(toeplitz_expand(t).im, expect.im)


def test_dbt_expand_index_relation_exhaustive():
    rng = np.random.default_rng(25)
    for m1, m2 in ((3, 4), (3, 5), (1, 4), (4, 1)):
        t = rand_toeplitz2(rng, m1, m2)
        w = toeplitz_expand(t).to_complex()
        dk = t.diags.to_complex()
        for s in range(m1):
            for tt in range(m2):
                for i in range(m1):
                    for j in range(m2):
                        assert w[s + tt * m1, i + j * m1] == \
                            dk[s - i + m1 - 1, tt - j + m2 - 1]


def test_dbt_extract_round_trip():
    rng = np.random.default_rng(26)
    for grid in ((4, 5), (3, 5), (1, 4), (4, 1)):
        t = rand_toeplitz2(rng, *grid)
        back = toeplitz_extract(toeplitz_expand(t), grid)
        assert np.array_equal(back.diags.re, t.diags.re)
        assert np.array_equal(back.diags.im, t.diags.im)


def test_equivalence_sweep_random_sizes():
    rng = np.random.default_rng(27)
    for _ in range(25):
        m = int(rng.integers(2, 65))
        t = rand_toeplitz(rng, m)
        x = rand_carray(rng, (m,))
        ref = toeplitz_expand(t).to_complex() @ x.to_complex()
        got = conv1d(t, x).to_complex()
        assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))
    for _ in range(25):
        m1 = int(rng.integers(1, 17))
        m2 = int(rng.integers(1, max(2, 256 // max(m1, 1) + 1)))
        m2 = max(1, min(m2, 256 // m1))
        t = rand_toeplitz2(rng, m1, m2)
        x = rand_carray(rng, (m1, m2))
        w = toeplitz_expand(t).to_complex()
        ref = w @ x.to_complex().flatten(order="F")
        got = conv_apply(t, x).flatten(order="F")
        assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))
