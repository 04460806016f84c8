import cmath
import math

import numpy as np
import pytest

from kho import fock, lattice, model, specfun
from kho.model import SystemParams

from oracles import bessel_series, coeff_dict, dict_state, gather_step

PHI = model.GOLDEN_RATIO


def params_q4(eta_sq=math.pi):
    return SystemParams(r=1, q=4, kappa=-0.8, eta_sq=eta_sq)


def params_q6():
    return SystemParams(r=1, q=6, kappa=-0.8, eta_sq=2 * math.pi / math.sqrt(3))


def params_for_zeta(q, eta_sq, zeta):
    """The r = 1 system whose kick strength gives zeta = -kappa/(sqrt(2) eta^2)."""
    return SystemParams(r=1, q=q, kappa=-zeta * math.sqrt(2) * eta_sq, eta_sq=eta_sq)


def support_radius(state):
    """Largest |m| or |n| carrying a retained coefficient."""
    return max(max(abs(m), abs(n)) for m, n in coeff_dict(state))


def random_sparse_state(q, eta_sq, zeta, seed, n_entries=12, span=6):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for _ in range(n_entries):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        coeffs[key] = complex(rng.normal(), rng.normal())
    return dict_state(params_for_zeta(q, eta_sq, zeta), coeffs)


class TestInit:
    def test_delta_initial_condition(self):
        st = lattice.from_params(0.3 + 0.2j, params_for_zeta(4, math.pi, 0.18))
        assert (st.origin, st.coeffs.tolist()) == ((0, 0), [[1.0 + 0.0j]])
        assert st.j == 0

    def test_fresh_state_converts_to_coherent(self):
        st = lattice.from_params(0.5, params_for_zeta(4, math.pi, 0.18))
        conv = lattice.to_fock(st, 64)
        assert abs(conv.raw_norm - 1) <= 1e-3
        assert fock.fidelity(conv.state, fock.coherent_state(0.5, 64)) == pytest.approx(1.0, abs=1e-10)

    def test_far_coherent_state_converts(self):
        # e^{-|alpha|^2/2} underflows to 0 at |alpha| = 40
        conv = lattice.to_fock(lattice.from_params(40.0, params_q4()), 2400)
        assert abs(conv.raw_norm - 1) <= 1e-3
        assert fock.fidelity(conv.state, fock.coherent_state(40.0, 2400)) >= 1.0 - 1e-12

    def test_basis_without_the_state_raises(self):
        with pytest.raises(ValueError, match="hold none"):
            lattice.to_fock(lattice.from_params(100.0, params_q4()), 16)

    def test_q5_rejected(self):
        with pytest.raises(ValueError, match="q in"):
            lattice.from_params(0.0, params_for_zeta(5, 1.0, 0.18))

    def test_r_not_one_rejected(self):
        with pytest.raises(ValueError, match="r = 1"):
            lattice.from_params(0.0, SystemParams(r=3, q=4, kappa=-0.8, eta_sq=math.pi))

    @pytest.mark.parametrize("r,q,match", [(1, 5, "q in"), (2, 3, "r = 1")])
    def test_state_refuses_system(self, r, q, match):
        params = SystemParams(r=r, q=q, kappa=-0.8, eta_sq=math.pi)
        with pytest.raises(ValueError, match=match):
            lattice.LatticeState(alpha=0.0, j=2, params=params, coeffs=np.array([[0.5 + 0j]]),
                                 origin=(1, -1))


class TestArrayForm:
    def test_border_zeros_are_cut(self):
        coeffs = np.zeros((5, 6), dtype=complex)
        coeffs[1, 2], coeffs[3, 4] = 0.5, -0.25j
        st = lattice.LatticeState(alpha=0.0, j=0, params=params_q4(), coeffs=coeffs,
                                  origin=(-2, 7))
        assert st.origin == (-1, 9) and st.coeffs.shape == (3, 3)
        assert coeff_dict(st) == {(-1, 9): 0.5, (1, 11): -0.25j}
        empty = lattice.LatticeState(alpha=0.0, j=0, params=params_q4(),
                                     coeffs=np.zeros((2, 3), dtype=complex), origin=(4, 4))
        assert (empty.origin, empty.coeffs.shape) == ((0, 0), (0, 0))

    def test_max_difference_covers_both_supports(self, traced_peak):
        p = params_q4()
        a = dict_state(p, {(0, 0): 1.0, (2, -1): 0.5j})
        b = dict_state(p, {(0, 0): 1.25, (-5, 8): 0.25})
        assert lattice.max_difference(a, a) == 0.0
        assert lattice.max_difference(a, b) == lattice.max_difference(b, a) == 0.5
        assert lattice.max_difference(a, dict_state(p, {})) == 1.0
        # an empty state adds no box: a far support is compared on its own
        far, empty = dict_state(p, {(3, 10 ** 5): 0.5}), dict_state(p, {})
        assert traced_peak(lambda: lattice.max_difference(far, empty)) < 1e5
        assert lattice.max_difference(far, empty) == 0.5
        assert lattice.max_difference(dict_state(p, {}), dict_state(p, {})) == 0.0
        assert lattice.max_difference(b, dict_state(p, {(0, 0): 1.0, (-5, 8): 0.25})) == 0.25


class TestStep:
    def test_first_kick_formula(self):
        p = params_q4()
        s1 = lattice.step(lattice.from_params(0.0, p))
        assert s1.j == 1
        for (m, n), v in coeff_dict(s1).items():
            assert m == 0
            assert v == pytest.approx((1j) ** n * specfun.bessel_j(n, p.zeta), abs=1e-15)

    def test_second_kick_closed_form(self):
        p = params_q4()
        s2 = lattice.steps(lattice.from_params(0.0, p), 2)
        for (m, n), v in coeff_dict(s2).items():
            want = ((1j) ** m * specfun.bessel_j(m, p.zeta)
                    * (1j) ** n * specfun.bessel_j(n, p.zeta) * (-1.0) ** (m * n))
            assert v == pytest.approx(want, abs=1e-14)

    def test_zero_zeta_is_pure_index_shuffle(self):
        for q in (3, 4, 6):
            st = random_sparse_state(q, 1.7, 0.0, seed=q)
            out = lattice.step(st)
            xi = lattice.XI_Q[q]
            want = {(-n0, m0 + xi * n0): v for (m0, n0), v in coeff_dict(st).items()}
            got = coeff_dict(out)
            assert set(got) == set(want)
            for key, v in want.items():
                assert got[key] == pytest.approx(v, abs=1e-15)

    def test_scatter_matches_gather_oracle(self, monkeypatch):
        states = [random_sparse_state(q, PHI * math.pi, 0.21, seed=seed)
                  for q, seed in ((3, 1), (4, 2), (6, 3))]
        # resonant q = 4: the step phases are signs and many contributions cancel
        states.append(lattice.steps(lattice.from_params(0.0, params_q4()), 3))
        monkeypatch.setattr(lattice, "EPS_LAT", 0.0)  # every sum is kept
        for st in states:
            got = coeff_dict(lattice.step(st))
            span = 2 * support_radius(st) + specfun.k_cutoff(st.params.zeta) + 2
            want = gather_step(st, span)
            keys = set(got) | set(want)
            worst = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
            assert worst < 1e-13

    def test_empty_map_steps_to_empty_map(self):
        empty = random_sparse_state(4, math.pi, 0.18, seed=0, n_entries=0)
        assert empty.coeffs.shape == (0, 0)
        out = lattice.step(empty)
        assert out.coeffs.shape == (0, 0) and out.j == 1
        # every sum below eps: nothing is retained
        faint = dict_state(params_for_zeta(4, math.pi, 0.18),
                           {(0, 0): 1e-14 + 0j, (2, -1): 1e-15j})
        assert lattice.step(faint).coeffs.shape == (0, 0)
        assert lattice.steps(faint, 2).coeffs.shape == (0, 0)

    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_memory_follows_support_not_its_place(self, traced_peak, monkeypatch, q):
        # one coefficient far out along n: the step's memory is set by the
        # 2 kc + 1 targets, not by n0 = 1e5 (a table of e^{i j w} for
        # |j| <= kc*n0 would take 2*9*10^5+1 complex entries, 28.8 MB)
        p = params_for_zeta(q, PHI * math.pi, 0.18)
        kc = specfun.k_cutoff(p.zeta)
        assert kc == 9
        m0, n0, c = 3, 10 ** 5, 0.6 - 0.8j
        st = dict_state(p, {(m0, n0): c})
        lattice.step(st)  # loads the Bessel tables before the measured step
        out = []  # EPS_LAT = 0: every one of the 2 kc + 1 targets is kept
        monkeypatch.setattr(lattice, "EPS_LAT", 0.0)
        assert traced_peak(lambda: out.append(lattice.step(st))) < 1e6
        got = coeff_dict(out[0])
        w = p.eta_sq * math.sin(2 * math.pi / q)
        xi = lattice.XI_Q[q]
        want = {(-n0, m0 + xi * n0 + k):
                c * (1j) ** k * specfun.bessel_j(k, p.zeta) * cmath.exp(1j * w * (k * n0))
                for k in range(-kc, kc + 1)}
        assert set(got) == set(want)
        for key, v in want.items():
            assert got[key] == pytest.approx(v, abs=1e-15)

    def test_support_growth_bounded(self):
        p = params_q4(eta_sq=PHI * math.pi)
        kc = specfun.k_cutoff(p.zeta)
        st = lattice.from_params(0.0, p)
        for j in range(1, 7):
            st = lattice.step(st)
            assert support_radius(st) <= j * kc

    def test_resonant_phase_factors_are_signs(self):
        # at eta^2 sin(2 pi/q) = w pi the step phases e^{i k n0 w pi} are +-1
        p = params_q4()
        w = p.eta_sq * math.sin(2 * math.pi / p.q)
        assert w == pytest.approx(math.pi)
        for k in range(-5, 6):
            for n0 in range(-5, 6):
                ph = cmath.exp(1j * k * n0 * w)
                assert min(abs(ph - 1), abs(ph + 1)) < 1e-12


class TestAnalyticQ4:
    def test_growth_factors(self):
        assert lattice.bessel_growth_factors(2) == (1, 1)
        assert lattice.bessel_growth_factors(3) == (1, 2)
        assert lattice.bessel_growth_factors(4) == (2, 2)
        assert lattice.bessel_growth_factors(5) == (2, 3)
        assert lattice.bessel_growth_factors(8) == (4, 4)

    def test_broadcasts_like_scalar_calls(self):
        z = params_q4().zeta
        ms, ns = np.arange(-9, 10)[:, None], np.arange(-7, 8)
        for n_kicks in (2, 5, 8):
            cm, cn = lattice.bessel_growth_factors(n_kicks)
            grid = lattice.analytic_q4(n_kicks, z, ms, ns)
            pattern = lattice.phase_pattern(n_kicks, ms, ns)
            assert grid.shape == pattern.shape == (19, 15)
            for i, m in enumerate(ms[:, 0].tolist()):
                for j, n in enumerate(ns.tolist()):
                    assert grid[i, j] == lattice.analytic_q4(n_kicks, z, m, n)
                    assert pattern[i, j] == lattice.phase_pattern(n_kicks, m, n)
                    sign = (-1) ** (m * n) * (1j) ** (m + n)
                    assert pattern[i, j] == sign
                    loop = sign * bessel_series(m, cm * z) * bessel_series(n, cn * z)
                    assert abs(grid[i, j] - loop) < 1e-15

    def test_small_n_displays(self):
        z = 0.18
        # N=3: i^m J_m(zeta) i^n J_n(2 zeta) (-1)^{mn}
        assert lattice.analytic_q4(3, z, 2, 1) == pytest.approx(
            (1j) ** 2 * specfun.bessel_j(2, z) * 1j * specfun.bessel_j(1, 2 * z), abs=1e-15)
        # N=4: both arguments doubled; (-1)^{1*1} i^2 = +1 overall
        assert lattice.analytic_q4(4, z, 1, 1) == pytest.approx(
            specfun.bessel_j(1, 2 * z) ** 2, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lattice.analytic_q4(1, 0.18, 0, 0)


class TestPhasePattern:
    def test_examples(self):
        assert lattice.phase_pattern(2, 0, 0) == 1
        assert lattice.phase_pattern(5, 1, 1) == pytest.approx(1.0)
        assert lattice.phase_pattern(3, 1, 0) == pytest.approx(1j)

    def test_constant_in_n(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                vals = {lattice.phase_pattern(N, m, n) for N in range(2, 9)}
                assert len(vals) == 1

    def test_pattern_factorizes_retained_coefficients(self):
        p = params_q4()
        st = lattice.steps(lattice.from_params(0.0, p), 4)
        cm, cn = lattice.bessel_growth_factors(4)
        for (m, n), v in coeff_dict(st).items():
            den = specfun.bessel_j(m, cm * p.zeta) * specfun.bessel_j(n, cn * p.zeta)
            assert abs(v - lattice.phase_pattern(4, m, n) * den) < 1e-11

    def test_nonresonant_phases_scramble(self):
        """Off resonance the quotient by the Bessel-product skeleton is not
        constant between N=3 and N=4."""
        p = params_q4(eta_sq=PHI * math.pi)
        s3 = lattice.steps(lattice.from_params(0.0, p), 3)
        s4 = lattice.step(s3)
        deviations = []
        c3 = coeff_dict(s3)
        for (m, n), v4 in coeff_dict(s4).items():
            v3 = c3.get((m, n))
            if v3 is None or abs(v3) < 1e-4 or abs(v4) < 1e-4:
                continue
            q3 = v3 / (specfun.bessel_j(m, p.zeta) * specfun.bessel_j(n, 2 * p.zeta))
            q4 = v4 / (specfun.bessel_j(m, 2 * p.zeta) * specfun.bessel_j(n, 2 * p.zeta))
            if np.isfinite(q3) and np.isfinite(q4) and abs(q3) > 1e-6:
                deviations.append(abs(cmath.phase(q4 / q3)))
        assert max(deviations) > 1e-3


class TestQ6Cycle:
    def test_triple_sum_center_element(self):
        z = 0.18
        kc = specfun.k_cutoff(z)
        want = sum((1j) ** k * specfun.bessel_j(k, z)
                   * (1j) ** (-k) * specfun.bessel_j(-k, z)
                   * (1j) ** (-k) * specfun.bessel_j(-k, z)
                   * cmath.exp(-1j * k * k * math.pi)
                   for k in range(-kc, kc + 1))
        assert lattice.q6_triple_sum(z, 0, 0) == pytest.approx(want, abs=1e-15)

    def test_triple_sum_broadcasts_like_scalar_calls(self):
        z = 2 * params_q6().zeta
        ms, ns = np.arange(-9, 10)[:, None], np.arange(-7, 8)
        grid = lattice.q6_triple_sum(z, ms, ns)
        assert grid.shape == (19, 15)
        kc = specfun.k_cutoff(z)
        for i, m in enumerate(ms[:, 0]):
            for j, n in enumerate(ns):
                assert abs(grid[i, j] - lattice.q6_triple_sum(z, int(m), int(n))) < 1e-16
                loop = sum((1j) ** ((m + 2 * n - k) % 4) * (-1) ** ((m * n + n * n + k * k) % 2)
                           * bessel_series(k, z) * bessel_series(n - k, z)
                           * bessel_series(m + n - k, z) for k in range(-kc, kc + 1))
                assert abs(grid[i, j] - loop) < 1e-15

    def test_kick3_state_is_triple_sum(self):
        p = params_q6()
        s3 = coeff_dict(lattice.steps(lattice.from_params(0.0, p), 3))
        for m in range(-8, 9):
            for n in range(-8, 9):
                got = s3.get((m, n), 0.0)
                assert abs(got - lattice.q6_triple_sum(p.zeta, m, n)) < 1e-11

    def test_cycle_matches_three_steps(self):
        p = params_q6()
        s3 = lattice.steps(lattice.from_params(0.0, p), 3)
        stepped = lattice.steps(s3, 3)
        jumped = lattice.analytic_q6_cycle(s3)
        assert jumped.j == 6
        assert lattice.max_difference(stepped, jumped) < 1e-10

    def test_second_cycle_linear_argument_growth(self):
        p = params_q6()
        s6 = lattice.steps(lattice.from_params(0.0, p), 6)
        s9 = lattice.steps(s6, 3)
        jumped = lattice.analytic_q6_cycle(lattice.analytic_q6_cycle(
            lattice.steps(lattice.from_params(0.0, p), 3)))
        assert jumped.j == 9
        assert lattice.max_difference(s9, jumped) < 1e-10

    def test_zero_zeta_stays_single_coefficient(self):
        st = lattice.from_params(0.0, params_for_zeta(6, 2 * math.pi / math.sqrt(3), 0.0))
        out = coeff_dict(lattice.analytic_q6_cycle(st))
        assert set(out) == {(0, 0)}
        assert out[(0, 0)] == pytest.approx(1.0)

    def test_preconditions(self):
        p = params_q6()
        s1 = lattice.step(lattice.from_params(0.0, p))
        with pytest.raises(ValueError):
            lattice.analytic_q6_cycle(s1)  # j not on the cycle
        bad = lattice.from_params(0.0, params_for_zeta(6, PHI * math.pi, 0.18))
        with pytest.raises(model.NonresonantError):
            lattice.analytic_q6_cycle(bad)
        q4 = lattice.from_params(0.0, params_q4())
        with pytest.raises(ValueError):
            lattice.analytic_q6_cycle(q4)

    @pytest.mark.parametrize("multiple", [2.0, 0.5])
    def test_needs_odd_integer_multiple_of_principal(self, multiple):
        eta_sq = multiple * model.resonant_values(6).principal
        st = lattice.steps(lattice.from_params(0.0, params_for_zeta(6, eta_sq, 0.18)), 3)
        with pytest.raises(model.NonresonantError):
            lattice.analytic_q6_cycle(st)

    def test_cycle_at_three_times_principal(self):
        p = params_for_zeta(6, 3 * model.resonant_values(6).principal, 0.18)
        s3 = lattice.steps(lattice.from_params(0.0, p), 3)
        stepped = lattice.steps(s3, 3)
        jumped = lattice.analytic_q6_cycle(s3)
        assert jumped.j == 6
        assert lattice.max_difference(stepped, jumped) < 1e-10


class TestToFock:
    def test_single_displaced_coefficient(self):
        # M = {(1,0): 1} at j=0 is D(i eta)|alpha> = phase * |alpha + i eta>
        p = params_for_zeta(4, math.pi, 0.18)
        eta = p.eta
        alpha = 0.4 - 0.1j
        st = dict_state(p, {(1, 0): 1.0 + 0.0j}, alpha=alpha)
        conv = lattice.to_fock(st, 96)
        beta = 1j * eta
        want = fock.coherent_state(alpha + beta, 96).amps
        phase = cmath.exp((beta * alpha.conjugate() - beta.conjugate() * alpha) / 2)
        overlap = abs(np.vdot(conv.state.amps, phase * want))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_norm_invariant_after_steps(self):
        p = params_q4()
        st = lattice.steps(lattice.from_params(0.0, p), 6)
        conv = lattice.to_fock(st, 512)
        assert np.linalg.norm(conv.state.amps) == pytest.approx(1.0, abs=1e-12)
        assert abs(conv.raw_norm - 1.0) < 1e-6
        assert abs(conv.raw_norm - 1) <= 1e-3

    def test_unreliable_flag_in_cramped_basis(self):
        p = params_q4()
        st = lattice.steps(lattice.from_params(0.0, p), 8)
        conv = lattice.to_fock(st, 16)
        assert abs(conv.raw_norm - 1) > 1e-3

    def test_cross_representation_fidelity_with_offset_center(self):
        p = params_q4()
        dim = 384
        alpha = 0.6 + 0.3j
        ev = fock.evolve(fock.coherent_state(alpha, dim), p, 6)
        ls = lattice.steps(lattice.from_params(alpha, p), 6)
        conv = lattice.to_fock(ls, dim)
        assert fock.fidelity(ev.state, conv.state) > 0.999
