"""The complex carrier, the complex soft threshold and the spectral norm."""

import numpy as np
import pytest

import hunfold as hf
from hunfold.cplx import ComplexArray, lipschitz_constant, shrink, soft_threshold

from conftest import rand_carray


def test_soft_threshold_below_threshold_is_zero():
    x = ComplexArray(np.array([0.5 + 0j]))
    out = soft_threshold(x, 1.0)
    assert out.re[0] == 0.0 and out.im[0] == 0.0


def test_soft_threshold_shrinks_magnitude_keeps_phase():
    x = ComplexArray(np.array([3 + 4j]))
    out = soft_threshold(x, 1.0).z[0]
    assert abs(out - (2.4 + 3.2j)) < 1e-15


def test_soft_threshold_zero_is_identity():
    rng = np.random.default_rng(3)
    x = rand_carray(rng, (9,))
    out = soft_threshold(x, 0.0)
    assert np.array_equal(out.re, x.re) and np.array_equal(out.im, x.im)


def test_soft_threshold_exact_boundary_maps_to_zero():
    x = ComplexArray(np.array([0.6 + 0.8j]))  # modulus exactly 1
    out = soft_threshold(x, 1.0)
    assert out.re[0] == 0.0 and out.im[0] == 0.0


def test_soft_threshold_negative_theta_rejected():
    with pytest.raises(ValueError):
        soft_threshold(ComplexArray(np.array([1.0 + 0j])), -0.1)


def test_soft_threshold_phase_preservation():
    rng = np.random.default_rng(4)
    theta = 0.3
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    z = z[np.abs(z) > theta + 1e-6]
    out = soft_threshold(ComplexArray(z), theta).z
    dphi = np.angle(out) - np.angle(z)
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(dphi)) < 1e-12
    assert np.max(np.abs(np.abs(out) - (np.abs(z) - theta))) < 1e-12


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rand_carray(rng, (30,))
        b = rand_carray(rng, (30,))
        theta = float(rng.uniform(0, 2))
        sa = soft_threshold(a, theta)
        sb = soft_threshold(b, theta)
        assert np.linalg.norm(sa.z - sb.z) <= np.linalg.norm(a.z - b.z) + 1e-12


def test_lipschitz_identity():
    est = lipschitz_constant(ComplexArray(np.eye(4)))
    assert est.converged
    assert abs(est.value - 1.0) < 1e-12


def test_lipschitz_diagonal():
    est = lipschitz_constant(ComplexArray(np.diag([2.0, 1.0])))
    assert est.converged
    assert abs(est.value - 4.0) < 1e-8


def test_lipschitz_full_fourier():
    m = 8
    f = hf.fourier_matrix(m)
    # independent check: the Gram of the unnormalised Fourier matrix is m*I
    g = f.z.conj().T @ f.z
    assert np.max(np.abs(g - m * np.eye(m))) < 1e-12 * m
    est = lipschitz_constant(f, tol=1e-8)
    assert abs(est.value - m) <= 1e-8 * m


def test_lipschitz_lower_bound_certificate():
    rng = np.random.default_rng(6)
    phi = rand_carray(rng, (8, 20))
    est = lipschitz_constant(phi, tol=1e-8)
    pc = phi.z
    for _ in range(25):
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        rayleigh = np.linalg.norm(pc @ v) ** 2 / np.linalg.norm(v) ** 2
        assert est.value * (1 + 1e-7) >= rayleigh


def test_lipschitz_zero_matrix_rejected():
    with pytest.raises(ValueError):
        lipschitz_constant(ComplexArray.zeros((3, 3)))


def test_lipschitz_nonconvergence_flag():
    est = lipschitz_constant(ComplexArray(np.diag([2.0, 1.0])),
                             max_iter=1)
    assert not est.converged


def test_complex_array_invariants():
    with pytest.raises(ValueError):
        ComplexArray(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        ComplexArray(np.zeros((2, 2, 2)))


def test_shrink_per_column_theta_matches_soft_threshold():
    rng = np.random.default_rng(6)
    re = rng.standard_normal((20, 4))
    im = rng.standard_normal((20, 4))
    re[3, 1] = im[3, 1] = 0.0          # a zero entry under a zero threshold
    theta = np.array([0.7, 0.0, 1.3, 0.2])
    out = shrink(ComplexArray(re, im).z, theta)[0]
    out_re, out_im = out.real, out.imag
    for j, t in enumerate(theta):
        want = soft_threshold(ComplexArray(re[:, j], im[:, j]), t)
        assert np.array_equal(out_re[:, j], want.re)
        assert np.array_equal(out_im[:, j], want.im)
    # the zero-threshold column, zero entry included, comes back unchanged
    assert np.array_equal(out_re[:, 1], re[:, 1])
    assert np.array_equal(out_im[:, 1], im[:, 1])


def test_shrink_agrees_with_the_planes_on_every_column():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    z[3, 1] = 0.0
    z[4, 2] = 0.75 + 1j               # modulus 1.25, on the column's boundary
    theta = np.array([0.7, 0.0, 1.25, 0.2])
    out = shrink(z, theta)[0]
    out_re, out_im = out.real, out.imag
    for j, t in enumerate(theta):
        got, mag = shrink(z[:, j], t)
        assert np.array_equal(mag, np.abs(z[:, j]))
        assert np.array_equal(got == 0.0, (out_re[:, j] == 0.0) & (out_im[:, j] == 0.0))
        # the planes are shrink's, bit for bit
        assert np.array_equal(got, out_re[:, j] + 1j * out_im[:, j])
    assert shrink(z, 0.0)[0] is z and shrink(z[4:5, 2], 1.25)[0][0] == 0.0


def test_shrink_per_column_theta_equals_per_column_calls():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    z[3, 1] = 0.0                      # a zero entry under a zero threshold
    z[4, 2] = 0.75 + 1j                # modulus 1.25, on the column's boundary
    theta = np.array([0.7, 0.0, 1.25, 0.2])
    got, mag = shrink(z, theta)
    assert np.array_equal(mag, np.abs(z))
    for j, t in enumerate(theta):
        assert np.array_equal(got[:, j], shrink(z[:, j], t)[0])
    assert got[4, 2] == 0.0 and 0 < np.count_nonzero(got[:, 0]) < 20
    # the zero-threshold column, zero entry included, comes back unchanged
    assert np.array_equal(got[:, 1], z[:, 1])
    assert shrink(z, 0.0)[0] is z


def test_complex_array_wraps_complex_without_copying():
    z = np.arange(6.0).reshape(2, 3) * (1 + 2j)
    assert ComplexArray(z).z is z
    joined = ComplexArray(z.T.real, z.T.imag)
    assert joined.z is not z and np.array_equal(joined.z, z.T)
    assert np.array_equal(ComplexArray(z.real).z, z.real + 0j)
