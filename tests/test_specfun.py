import math

import numpy as np
import pytest

from kho import model, specfun

from oracles import (bessel_mp, bessel_series, coherent_mp, displacement_mp,
                     graf_sum_series, log_factorial_mp)


def test_bessel_trivial_values():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(3, 0.0) == 0.0


def test_bessel_negative_order_parity():
    assert specfun.bessel_j(-2, 1.5) == specfun.bessel_j(2, 1.5)
    assert specfun.bessel_j(-3, 1.5) == -specfun.bessel_j(3, 1.5)


def test_bessel_against_series_oracle():
    # frozen from the ascending power series summed to machine convergence
    assert specfun.bessel_j(1, 2.0) == pytest.approx(bessel_series(1, 2.0), rel=1e-13)
    for x in (0.18, 0.9, 2.0, 4.6, 7.3, -3.1):
        for n in range(0, 25):
            ref = bessel_series(n, x)
            got = specfun.bessel_j(n, x)
            if abs(ref) > 1e-280:
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_bessel_against_mpmath():
    # |x| <= 12 covers every argument the library passes; orders reach
    # +-(|x| + 80), far past the turning point on both sides
    for xs, tol in (((0.18, 0.5, 1.0, 2.0, 3.3, 7.3, 12.0, -3.1, -12.0), 5e-16),
                    ((12.7, 25.0, 40.0, 60.0, -60.0), 4e-15)):
        for x in xs:
            top = int(abs(x)) + 80
            got = specfun.bessel_range(x, -top, top)
            want = np.array([bessel_mp(k, x) for k in range(-top, top + 1)])
            assert np.abs(got - want).max() <= tol, x


def test_bessel_normalization_identity():
    for x in (0.3, 1.7, 6.2, 11.0):
        t = specfun.bessel_range(x, 0, int(x) + 40)
        assert abs(t[0] + 2.0 * np.sum(t[2::2]) - 1.0) < 1e-12


def test_bessel_recurrence_residual():
    for x in (0.7, 2.9, 8.8):
        t = specfun.bessel_range(x, 0, 60)
        for n in range(1, 59):
            assert abs(t[n - 1] + t[n + 1] - (2 * n / x) * t[n]) < 1e-11


def test_bessel_rejects_nonfinite():
    with pytest.raises(ValueError):
        specfun.bessel_j(1, float("nan"))
    with pytest.raises(ValueError):
        specfun.bessel_j(0, float("inf"))
    with pytest.raises(ValueError):  # a table would hold millions of orders
        specfun.bessel_j(0, 2e6)


def test_bessel_at_zero_is_kronecker_delta():
    for x in (0.0, -0.0):
        got = specfun.bessel_range(x, -6, 6)
        assert np.array_equal(got, np.arange(-6, 7) == 0), x


@pytest.mark.parametrize("x", [0.18, -3.1, 12.0, 60.0])
def test_bessel_range_is_a_bitwise_prefix_of_a_longer_one(x):
    """A table's values depend on its argument alone, never on how many
    orders a caller asks for; past its last order every value reads 0."""
    longest = specfun.bessel_range(x, 0, 500)
    assert longest[-1] == 0.0
    for k in (0, 1, 7, 40, int(abs(x)) + 60, 499):
        specfun._cached_table.cache_clear()
        assert np.array_equal(specfun.bessel_range(x, 0, k), longest[:k + 1]), k


@pytest.mark.parametrize("tol", [1e-14, 1e-15])
def test_k_cutoff_matches_its_definition(tol):
    # the smallest k past which every |J_k(zeta)| is below tol
    for zeta in (0.0, 0.18, 0.5, 2.2, 5.0, -3.3, 12.0, 40.0):
        tail = np.abs([bessel_mp(k, zeta) for k in range(int(abs(zeta)) + 100)])
        want = max(k for k in range(len(tail)) if tail[k] >= tol) + 1
        assert specfun.k_cutoff(zeta, tol) == want


def test_k_cutoff_bounds_tail():
    for zeta in (0.18, 0.5, 2.2, 5.0):
        kc = specfun.k_cutoff(zeta)
        assert abs(specfun.bessel_j(kc, zeta)) < 1e-14
        assert abs(specfun.bessel_j(kc - 1, zeta)) >= 1e-14
        for k in range(kc, kc + 15):
            assert abs(specfun.bessel_j(k, zeta)) < 1e-14


def test_k_cutoff_reads_the_whole_table():
    # past |zeta| + 60 at large zeta: the tail beyond the turning point grows
    # like zeta^(1/3)
    for zeta, want in ((0.18, 9), (9.0, 32), (50.0, 88), (100.0, 147),
                       (300.0, 366), (1000.0, 1097)):
        assert specfun.k_cutoff(zeta) == want
        assert np.abs(specfun.bessel_range(zeta, want, want + 200)).max() < 1e-14
        assert abs(specfun.bessel_j(want - 1, zeta)) >= 1e-14


def test_k_cutoff_refuses_what_bessel_range_refuses():
    for zeta in (1.5e4, -2e4, math.inf, math.nan):
        with pytest.raises(ValueError, match="Bessel argument"):
            specfun.k_cutoff(zeta)
        with pytest.raises(ValueError, match="Bessel argument"):
            specfun.bessel_range(zeta, 0, 3)


def test_graf_geometry_special_angles():
    zeta_prime, chi = specfun.graf_geometry(1.3, math.pi)
    assert zeta_prime == pytest.approx(2.6, abs=1e-15)
    assert chi == pytest.approx(0.0, abs=1e-15)
    assert specfun.graf_geometry(0.8, 0.0)[0] == 0.0
    zeta_prime, chi = specfun.graf_geometry(0.6, math.pi / 2)
    assert zeta_prime == pytest.approx(0.6 * math.sqrt(2), rel=1e-15)
    assert chi == pytest.approx(math.pi / 4, rel=1e-15)


def test_graf_geometry_defining_relations():
    rng = np.random.default_rng(5)
    for _ in range(50):
        zeta = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.0, math.pi))
        zeta_prime, chi = specfun.graf_geometry(zeta, alpha)
        assert zeta_prime == pytest.approx(zeta * math.sqrt(2 * (1 - math.cos(alpha))), abs=1e-12)
        assert zeta * (1 - math.cos(alpha)) == pytest.approx(zeta_prime * math.cos(chi), abs=1e-12)
        assert zeta * math.sin(alpha) == pytest.approx(zeta_prime * math.sin(chi), abs=1e-12)


def test_graf_geometry_rejects_bad_alpha():
    with pytest.raises(ValueError):
        specfun.graf_geometry(1.0, -0.1)
    with pytest.raises(ValueError):
        specfun.graf_geometry(1.0, math.pi + 0.1)


def test_graf_sum_examples():
    assert abs(specfun.graf_sum(0, 1.3, math.pi) - specfun.bessel_j(0, 2.6)) < 1e-12
    assert abs(specfun.graf_sum(2, 0.8, 0.0)) < 1e-15
    want = bessel_series(1, 0.6 * math.sqrt(2)) * np.exp(1j * math.pi / 4)
    assert abs(specfun.graf_sum(1, 0.6, math.pi / 2) - want) < 1e-13


def test_graf_sum_matches_brute_force_series():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(-6, 7))
        zeta = float(rng.uniform(0.0, 3.0))
        alpha = float(rng.uniform(0.0, math.pi))
        brute = graf_sum_series(n, zeta, alpha, 30)
        assert abs(specfun.graf_sum(n, zeta, alpha) - brute) < 1e-13


def test_graf_closure_property():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(-10, 11))
        zeta = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.0, math.pi))
        zeta_prime, chi = specfun.graf_geometry(zeta, alpha)
        rhs = specfun.bessel_j(n, zeta_prime) * np.exp(1j * n * chi)
        assert abs(specfun.graf_sum(n, zeta, alpha) - rhs) < 1e-12


def test_displacement_trivial_elements():
    a = 0.8 - 0.25j
    mat = specfun.displacement_matrix(a, 6)
    assert mat[0, 0] == pytest.approx(math.exp(-abs(a) ** 2 / 2))
    assert mat[1, 0] == pytest.approx(a * math.exp(-abs(a) ** 2 / 2))
    assert mat[0, 1] == pytest.approx(-np.conj(a) * math.exp(-abs(a) ** 2 / 2))
    assert np.array_equal(specfun.displacement_matrix(0.0, 6), np.eye(6))


def test_displacement_matrix_matches_elements():
    a = 1.1 + 0.6j
    mat = specfun.displacement_matrix(a, 24)
    for m in range(0, 24, 5):
        for n in range(0, 24, 7):
            assert mat[m, n] == pytest.approx(displacement_mp(m, n, a), abs=1e-14)


def test_displacement_unitarity_interior():
    for a, dim in ((0.9 + 0.4j, 128), (math.sqrt(math.pi) + 0j, 256)):
        mat = specfun.displacement_matrix(a, dim)
        defect = mat @ mat.conj().T - np.eye(dim)
        block = dim - int(math.ceil(4 * abs(a) ** 2 * math.sqrt(dim)))
        assert block > 0
        assert np.abs(defect[:block, :block]).max() < 1e-9


def test_displacement_composition_identity():
    a, b = 0.7 - 0.2j, -0.4 + 0.9j
    dim = 96
    lhs = specfun.displacement_matrix(a, dim) @ specfun.displacement_matrix(b, dim)
    rhs = np.exp((a * np.conj(b) - np.conj(a) * b) / 2) * specfun.displacement_matrix(a + b, dim)
    block = dim - int(math.ceil(4 * max(abs(a) ** 2, abs(b) ** 2, abs(a + b) ** 2) * math.sqrt(dim)))
    assert np.abs((lhs - rhs)[:block, :block]).max() < 1e-9


def test_displacement_large_order_stability():
    # |alpha|^2 ~ 1e3 at orders ~2000 must stay finite, bounded by 1 and exact
    a = 31.0 + 5.0j
    mat = specfun.displacement_matrix(a, 2001)
    assert np.isfinite(mat).all()
    assert np.abs(mat).max() <= 1.0
    for m, n in ((2000, 1980), (1980, 2000), (1030, 1000), (700, 1500)):
        assert abs(mat[m, n] - displacement_mp(m, n, a)) < 1e-13


def test_log_factorials_against_mpmath():
    # displacement_matrix's factorial ratios; measured 3.2 ulps at worst
    got = specfun._log_factorials(2049)
    for n, lg in enumerate(got.tolist()):
        want = log_factorial_mp(n)
        assert abs(lg - want) <= 4 * math.ulp(float(want)), n


def test_displacement_matrix_strip_equals_full_columns_bitwise():
    # the commutator check's strip: D=512, the b=213 columns of the interior
    a = 1.7 - 0.9j
    full = specfun.displacement_matrix(a, 512)
    strip = specfun.displacement_matrix(a, 512, block=213)
    assert strip.shape == (512, 213)
    assert np.array_equal(strip, full[:, :213])
    assert np.array_equal(specfun.displacement_matrix(a, 64, block=64),
                          specfun.displacement_matrix(a, 64))
    assert np.array_equal(specfun.displacement_matrix(0, 64, block=20), np.eye(64, 20))


@pytest.mark.parametrize("which", ["gamma", "Gamma"])
@pytest.mark.parametrize("q", model.CRYSTAL_Q)
def test_displacement_rows_follow_from_columns(q, which):
    # <m|D|n> = (-1)^(m+n) conj <n|D|m>, so the rows < b come from the strip;
    # for the commutator check's generators, at D=512 and b=213
    dim, b = 512, 213
    sign = 1 - 2 * (np.add.outer(np.arange(b), np.arange(dim)) % 2)
    for eta_sq in (model.resonant_values(q).principal, model.GOLDEN_RATIO * math.pi):
        for a in model.symmetry_generators(q, math.sqrt(eta_sq), which):
            full = specfun.displacement_matrix(a, dim)
            np.testing.assert_allclose(full[:b], sign * full[:, :b].conj().T, rtol=0, atol=1e-15)


def test_coherent_fock_matches_displacement_column():
    a = 1.3 - 0.7j
    col = np.array(list(specfun.coherent_fock(a, 40)))
    assert np.abs(col - specfun.displacement_matrix(a, 40)[:, 0]).max() < 1e-14
    assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.3 - 0.7j, 33.9, 34.0j, 38.0, 45.0 + 10.0j])
def test_coherent_fock_matches_mpmath(alpha):
    # the power alpha^n / sqrt(n!) passes _RESCALE below order 2600 for
    # |alpha| >= 34, so both sides of a rescale are compared; at 38 and above
    # the seed e^{-|alpha|^2/2} is below the smallest normal double.  The
    # kernel tests the power against _RESCALE only from |alpha| =
    # sqrt(2 ln(_RESCALE) - 2) ~ 33.90 on: 33.9 skips the test, 34 runs it
    dim = 2600
    if alpha:
        log_power = [n * math.log(abs(alpha)) - 0.5 * math.lgamma(n + 1.0) for n in range(dim)]
        assert (max(log_power) > math.log(specfun._RESCALE)) == (abs(alpha) >= 34.0)
    got = np.array(list(specfun.coherent_fock(alpha, dim)))
    want = np.array([coherent_mp(alpha, n) for n in range(dim)])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("alpha", [2e58, 1e100j, float("nan"), complex("inf+1j")])
def test_coherent_fock_rejects_alpha_past_its_domain(alpha):
    # past _ALPHA_MAX the power alpha^n / sqrt(n!) can overflow before its rescale
    assert not abs(alpha) < specfun._ALPHA_MAX
    with pytest.raises(ValueError):
        list(specfun.coherent_fock(np.array([0.5, alpha]), 8))


def test_coherent_fock_yields_the_shape_of_alpha():
    grid = np.array([[0.3 + 0.1j, -2.0], [0.0, 5.5 - 4.0j]])
    orders = list(specfun.coherent_fock(grid, 64))
    assert all(c.shape == grid.shape for c in orders)
    for idx in np.ndindex(grid.shape):
        one = np.array(list(specfun.coherent_fock(grid[idx], 64)))
        assert np.abs(np.array([c[idx] for c in orders]) - one).max() < 1e-15
