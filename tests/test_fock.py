import math

import numpy as np
import pytest

from kho import _lapack, cli, fock, model, specfun, verify
from kho.model import SystemParams

from oracles import (assemble, band_max_gap, commutator_norm_dense, evolve_dense,
                     floquet_dense, interior_max_dense, kick_dense, kick_ground_element,
                     mismatch_up_to_phase_dense, quasienergy_eig)

PHI = model.GOLDEN_RATIO


def params_q4(eta_sq=math.pi, kappa=-0.8, r=1):
    return SystemParams(r=r, q=4, kappa=kappa, eta_sq=eta_sq)


def rotated(kick, theta):
    """The kick along the axis rotated by theta, by the similarity
    K(theta)[m, n] = e^{i theta (m - n)} K(0)[m, n]."""
    n = np.arange(kick.shape[0])
    return kick * np.exp(1j * theta * np.subtract.outer(n, n))


class TestBuildKick:
    def test_zero_kick_is_identity(self):
        p = params_q4(kappa=0.0)
        assert np.abs(assemble(fock.kick_blocks(p, 64)) - np.eye(64)).max() < 1e-14

    def test_exact_unitarity(self):
        p = params_q4()
        u = assemble(fock.kick_blocks(p, 128))
        assert np.abs(u @ u.conj().T - np.eye(128)).max() < 1e-12

    def test_ground_element_matches_displacement_expansion(self):
        p = params_q4()
        u = fock.kick_blocks(p, 256)[0]  # <0|U|0> is in the even block
        oracle = kick_ground_element(p.zeta, p.eta_sq)
        assert abs(u[0, 0] - oracle) < 1e-12

    def test_rotated_kick_matches_dense_oracle(self):
        p = params_q4()
        for strength in (1, 3):
            # the strength-s kick from its parity blocks, turned to the axis here
            got = rotated(assemble(fock.kick_blocks(p, 120, strength)), 0.7)
            assert np.abs(got - kick_dense(p, 120, strength, theta=0.7)).max() < 1e-13

    def test_spectral_vs_exact_element_expansion_interior(self):
        p = params_q4()
        dim = 256
        diff = assemble(fock.kick_blocks(p, dim)) - fock.kick_expansion_matrix(p, dim)
        assert interior_max_dense(diff, fock.interior_block(dim)) < 1e-8


class TestFloquet:
    def test_unitary_everywhere(self):
        f = assemble(fock.floquet_power(params_q4(), 256, 1))
        defect = f @ f.conj().T - np.eye(256)
        assert np.abs(defect).max() < 1e-12
        assert f.shape == (256, 256)

    def test_power_zero_is_identity(self):
        assert np.abs(assemble(fock.floquet_power(params_q4(), 32, 0)) - np.eye(32)).max() == 0.0

    def test_axis_product_identity(self):
        p = params_q4()
        diff = [a - b for a, b in zip(fock.floquet_power(p, 256, 4),
                                      fock.kick_axis_product(p, 256))]
        assert fock.interior_max(diff, fock.interior_block(256)) < 1e-8
        # the rearrangement is an exact matrix identity, so in fact machine-level
        assert fock.interior_max(diff, 256) < 1e-11

    def test_axis_product_identity_q3_q6(self):
        for q in (3, 6):
            p = SystemParams(r=1, q=q, kappa=-0.8, eta_sq=2 * math.pi / math.sqrt(3))
            diff = [a - b for a, b in zip(fock.floquet_power(p, 128, q),
                                          fock.kick_axis_product(p, 128))]
            assert fock.interior_max(diff, 128) < 1e-11

    def test_free_evolution_full_periods(self):
        for r, sign in ((1, -1.0), (2, 1.0)):
            p = SystemParams(r=r, q=4 if r == 1 else 5, kappa=0.0, eta_sq=math.pi)
            fq = assemble(fock.floquet_power(p, 32, p.q))
            assert np.abs(fq - sign * np.eye(32)).max() < 1e-10

    def test_displacement_sum_product_route_small_zeta(self):
        # q-fold product of truncated displacement expansions vs F^q
        eta_sq = math.pi
        kappa = -0.3 * math.sqrt(2) * eta_sq  # zeta = 0.3
        p = params_q4(kappa=kappa)
        assert p.zeta == pytest.approx(0.3)
        dim = 192
        prod = np.eye(dim, dtype=complex) * (-1.0) ** p.r
        for j in range(p.q - 1, -1, -1):
            prod = prod @ rotated(fock.kick_expansion_matrix(p, dim), j * p.tau)
        diff = assemble(fock.floquet_power(p, dim, 4)) - prod
        assert interior_max_dense(diff, fock.interior_block(dim)) < 1e-6


class TestParity:
    @pytest.mark.parametrize("dim", [63, 64])
    def test_operators_exactly_zero_across_parity(self, dim):
        # the operators are held as their parity blocks, which leave out the
        # entries across parity: the dense oracles put only rounding there
        p = params_q4(eta_sq=PHI * math.pi)
        m, n = np.indices((dim, dim))
        cross = (m + n) % 2 == 1
        for mat in (kick_dense(p, dim, 2, theta=0.7), floquet_dense(p, dim)):
            assert np.abs(mat[cross]).max() < 1e-13
        for blocks in (fock.kick_blocks(p, dim), fock.kick_blocks(p, dim, 2),
                       fock.floquet_power(p, dim, 1), fock.floquet_power(p, dim, 3),
                       fock.kick_axis_product(p, dim)):
            assert [b.shape for b in blocks] == [((dim + 1) // 2,) * 2, (dim // 2,) * 2]
            assert min(np.abs(b).max() for b in blocks) > 0.1

    @pytest.mark.parametrize("dim", [63, 64])
    def test_floquet_matches_dense_oracle(self, dim):
        p = params_q4(eta_sq=PHI * math.pi)
        f = assemble(fock.floquet_power(p, dim, 1))
        assert np.abs(f - floquet_dense(p, dim)).max() < 1e-13

    def test_ground_state_keeps_odd_sector_empty(self):
        res = fock.evolve(fock.ground_state(129), params_q4(), 60)
        assert np.all(res.state.amps[1::2] == 0.0)
        assert abs(np.linalg.norm(res.state.amps) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [64, 65, 1, 2, 6, 9, 10, 19, 20])
    def test_leak_counts_exactly_the_top_tenth(self, dim):
        # without a kick a number state stays put, so it is flagged iff it
        # lies in the top tenth of the basis, or in its top two states, one
        # of each parity, whichever is larger
        p = params_q4(kappa=0.0)
        tail = dim - max(dim // 10, 2)
        for n in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[n] = 1.0
            assert fock.evolve(fock.FockVector(amps), p, 1).truncation_unsafe == (n >= tail)

    @pytest.mark.parametrize("dim,alpha,eta_sq,n_kicks,unsafe", [
        (256, 0.6 + 0.3j, PHI * math.pi, 30, False),
        (151, -1.1 + 0.4j, PHI * math.pi, 40, True),  # the leak flag trips mid-run
        (65, 0.5j, math.pi, 50, True),
    ])
    def test_mixed_parity_evolve_matches_dense_oracle(self, dim, alpha, eta_sq, n_kicks, unsafe):
        p = params_q4(eta_sq=eta_sq)
        st = fock.coherent_state(alpha, dim)
        res = fock.evolve(st, p, n_kicks)
        amps, energies, first_unsafe = evolve_dense(st.amps, p, n_kicks)
        assert np.abs(res.state.amps - amps).max() < 1e-12
        assert np.abs(res.energies - energies).max() < 1e-12 * energies.max()
        assert res.first_unsafe_kick == first_unsafe
        assert res.truncation_unsafe == unsafe

    def test_kicks_to_energy_matches_dense_oracle(self):
        # the grid holds an exhausted point, and reached points whose leak
        # flag trips before and after the crossing
        dim, target, n_max = 256, 12.0, 36
        for eta_sq in np.linspace(0.4 * math.pi, 1.6 * math.pi, 5):
            p = params_q4(eta_sq=float(eta_sq))
            res = fock.kicks_to_energy(p, target, n_max, dim=dim)
            _, energies, first_unsafe = evolve_dense(fock.ground_state(dim).amps, p, n_max)
            want = fock.energy_crossings(energies, [target])[0]
            assert fock.energy_crossings(res.energies, [target])[0] == want
            assert res.energies.size == (n_max if want is None else want) + 1
            assert np.abs(res.energies - energies[:res.energies.size]).max() < 1e-12 * target
            stop = res.energies.size - 1
            amps = evolve_dense(fock.ground_state(dim).amps, p, stop)[0]
            assert np.abs(res.state.amps - amps).max() < 1e-12
            assert res.first_unsafe_kick == (
                first_unsafe if first_unsafe is not None and first_unsafe <= stop else None)


class TestAmplified:
    def test_v1_equals_fq(self):
        p = params_q4()
        diff = [a - b for a, b in zip(fock.kick_axis_product(p, 128, 1),
                                      fock.floquet_power(p, 128, 4))]
        assert fock.interior_max(diff, 128) < 1e-11

    def test_nonresonant_rejected(self):
        with pytest.raises(model.NonresonantError):
            fock.kick_axis_product(params_q4(eta_sq=PHI * math.pi), 64, 2)
        with pytest.raises(model.NonresonantError):
            fock.kick_axis_product(params_q4(eta_sq=math.pi / 2), 64, 2)

    def test_v_below_one_rejected(self):
        with pytest.raises(ValueError, match="v must be >= 1"):
            fock.kick_axis_product(params_q4(), 64, 0)

    def test_amplified_matches_power_interior(self):
        p = params_q4(kappa=-0.4)
        dim = 256
        fqv = fock.floquet_power(p, dim, 12)
        amp = fock.kick_axis_product(p, dim, 3)
        block = fock.interior_block(dim)
        assert fock.mismatch_up_to_phase(amp, fqv, block) < 1e-7


class TestEvolve:
    def test_zero_kicks_identity(self):
        st = fock.coherent_state(0.4 + 0.2j, 64)
        res = fock.evolve(st, params_q4(), 0)
        assert np.abs(res.state.amps - st.amps).max() == 0.0

    def test_ground_state_stationary_without_kicks(self):
        res = fock.evolve(fock.ground_state(64), params_q4(kappa=0.0), 25)
        assert abs(res.state.amps[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(res.energies - 0.5).max() < 1e-12

    def test_norm_preserved(self):
        st = fock.coherent_state(0.8, 384)
        res = fock.evolve(st, params_q4(), 30)
        assert abs(np.linalg.norm(res.state.amps) - 1.0) < 1e-10
        assert not res.truncation_unsafe

    def test_truncation_flag_trips_in_tiny_basis(self):
        res = fock.evolve(fock.ground_state(48), params_q4(), 60)
        assert res.truncation_unsafe
        assert res.first_unsafe_kick is not None

    def test_energy_trace_recorded_each_kick(self):
        res = fock.evolve(fock.ground_state(256), params_q4(), 12)
        assert res.energies.shape == (13,)
        assert res.energies[0] == 0.5
        assert np.all(np.isfinite(res.energies))

    def test_evolve_at_equals_separate_evolves_bitwise(self):
        # a mixed-parity state whose leak flag trips at kick 15: the counts
        # before it are safe, the later ones flagged from 15; the counts come
        # unsorted and repeated, and each result is that of its own evolve
        p = params_q4(eta_sq=PHI * math.pi)
        st = fock.coherent_state(-1.1 + 0.4j, 151)
        counts = [40, 0, 14, 15, 40, 7]
        results = fock.evolve_at(st, p, counts)
        assert [r.first_unsafe_kick for r in results] == [15, None, None, 15, 15, None]
        for n, got in zip(counts, results):
            want = fock.evolve(st, p, n)
            assert np.array_equal(got.state.amps, want.state.amps)
            assert np.array_equal(got.energies, want.energies)
            assert got.energies.size == n + 1
            assert (got.truncation_unsafe, got.first_unsafe_kick) == (
                want.truncation_unsafe, want.first_unsafe_kick)


class TestMeanEnergy:
    @staticmethod
    def energy(state):
        """<n + 1/2> before the first kick."""
        return fock.evolve(state, params_q4(), 0).energies[0]

    def test_ground(self):
        assert self.energy(fock.ground_state(16)) == 0.5

    def test_number_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[2] = 1.0
        assert self.energy(fock.FockVector(amps)) == 2.5

    def test_coherent(self):
        assert self.energy(fock.coherent_state(1.0, 64)) == pytest.approx(1.5, abs=1e-10)


class TestQFunction:
    def test_vacuum_at_origin(self):
        g = fock.q_functions([fock.ground_state(32)], (-0.0, 0.0, 0.0, 0.0), (1, 1))[0]
        assert g.values[0, 0] == pytest.approx(1 / math.pi, rel=1e-12)

    def test_vacuum_gaussian(self):
        g = fock.q_functions([fock.ground_state(48)], (-2.0, 2.0, -1.0, 1.0), (21, 11))[0]
        rr, ii = np.meshgrid(np.linspace(-2.0, 2.0, 21), np.linspace(-1.0, 1.0, 11))
        want = np.exp(-(rr ** 2 + ii ** 2)) / math.pi
        assert np.abs(g.values - want).max() < 1e-12

    def test_several_states_equal_single_calls_bitwise(self):
        # states of two basis sizes and both parities, sampled on one grid
        p = params_q4()
        states = [fock.evolve(fock.ground_state(128), p, 36).state,
                  fock.coherent_state(0.7 - 0.3j, 96),
                  fock.evolve(fock.coherent_state(1.2j, 128), p, 9).state]
        window, res = (-6.0, 6.0, -5.0, 7.0), (23, 19)
        grids = fock.q_functions(states, window, res)
        alpha = np.linspace(-6.0, 6.0, 23) + 1j * np.linspace(-5.0, 7.0, 19)[:, None]
        for state, grid in zip(states, grids):
            # the walk of the recurrence for this state alone, over its own basis
            overlap = np.zeros(alpha.shape, dtype=complex)
            for amp, c_n in zip(state.amps.conj().tolist(),
                                specfun.coherent_fock(alpha, state.dim)):
                if amp:
                    overlap += amp * c_n
            assert np.array_equal(grid.values, np.abs(overlap) ** 2 / np.pi)
            assert np.array_equal(grid.values, fock.q_functions([state], window, res)[0].values)
            assert (grid.re_min, grid.re_max, grid.im_min, grid.im_max) == window

    def test_riemann_normalization(self):
        st = fock.coherent_state(0.7 - 0.3j, 96)
        g = fock.q_functions([st], (-8.0, 8.0, -8.0, 8.0), (161, 161))[0]
        assert g.riemann_sum() == pytest.approx(1.0, abs=1e-3)
        assert g.riemann_sum() <= 1.0 + 1e-3

    def test_riemann_normalization_far_from_origin(self):
        # e^{-|alpha|^2/2} underflows to 0 on most of this grid; the basis
        # holds the state (top-tenth population 1e-19)
        st = fock.coherent_state(38.0, 2000)
        g = fock.q_functions([st], (30.0, 46.0, -8.0, 8.0), (161, 161))[0]
        assert abs(g.riemann_sum() - 1.0) < 1e-6

    def test_fourfold_symmetry_after_full_resonant_periods(self):
        # 36 kicks = 9 full periods at q=4 resonance: F^4 commutes with the
        # quarter-turn rotation, so Q inherits the fourfold symmetry
        st = fock.evolve(fock.ground_state(512), params_q4(), 36).state
        rng = np.random.default_rng(17)
        for _ in range(8):
            a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            qs = []
            for rot in (1, 1j, -1, -1j):
                b = a * rot
                grid = fock.q_functions([st], (b.real, b.real, b.imag, b.imag), (1, 1))[0]
                qs.append(grid.values[0, 0])
            assert max(qs) - min(qs) < 1e-10

    def test_cross_representation_fidelity_at_36_kicks(self):
        from kho import lattice
        p = params_q4()
        dim = 1024
        ev = fock.evolve(fock.ground_state(dim), p, 36)
        ls = lattice.steps(lattice.from_params(0.0, p), 36)
        conv = lattice.to_fock(ls, dim)
        assert abs(conv.raw_norm - 1) <= 1e-3
        assert fock.fidelity(ev.state, conv.state) > 0.999


class TestKicksToEnergy:
    def test_ground_already_at_half(self):
        res = fock.kicks_to_energy(params_q4(), 0.5, 10, dim=64)
        assert res.energies.tolist() == [0.5]
        assert np.array_equal(res.state.amps, fock.ground_state(64).amps)

    def test_exhausted(self):
        res = fock.kicks_to_energy(params_q4(kappa=0.0), 5.0, 8, dim=64)
        assert fock.energy_crossings(res.energies, [5.0]) == [None]
        assert len(res.energies) == 9

    def test_crossings_match_evolve_trace(self):
        p = params_q4()
        res = fock.kicks_to_energy(p, 10.0, 200, dim=256)
        n_kicks = res.energies.size - 1
        ev = fock.evolve(fock.ground_state(256), p, n_kicks)
        assert ev.energies[n_kicks] >= 10.0
        assert np.all(ev.energies[:n_kicks] < 10.0)
        assert fock.energy_crossings(ev.energies, [10.0]) == [n_kicks]
        assert np.array_equal(res.state.amps, ev.state.amps)
        assert np.array_equal(res.energies, ev.energies)


class TestQuasienergy:
    def test_free_spectrum_phases(self):
        p = params_q4(kappa=0.0)
        res = fock.quasienergy_spectrum(p, 64)
        assert res.n_discarded == 0
        want = sorted(float(np.angle(np.exp(-1j * (n + 0.5) * p.tau))) for n in range(64))
        assert np.abs(res.phi - np.array(want)).max() < 1e-12

    def test_free_spectrum_ground_overlap_nondegenerate(self):
        # q = 64 at D = 64 keeps all free phases distinct, so eigenvectors
        # are unique and the ground overlap is delta_{n,0}
        p = SystemParams(r=1, q=64, kappa=0.0, eta_sq=math.pi)
        res = fock.quasienergy_spectrum(p, 64)
        phi0 = float(np.angle(np.exp(-1j * 0.5 * p.tau)))
        for phi, overlap in zip(res.phi, res.ground_overlap):
            if abs(phi - phi0) < 1e-12:
                assert overlap == pytest.approx(1.0, abs=1e-12)
            else:
                assert overlap < 1e-12

    def test_unit_modulus(self):
        res = fock.quasienergy_spectrum(params_q4(), 128)
        assert res.n_discarded == 0
        assert res.max_unit_defect < 1e-8
        assert res.phi.shape == res.ground_overlap.shape == (128,)

    def test_band_gap_statistic(self):
        res = fock.quasienergy_spectrum(params_q4(), 128)
        gap = band_max_gap(res)
        assert 0.0 < gap < 2 * math.pi / 4

    @pytest.mark.parametrize("r,q,kappa,eta_sq,dim", [
        (1, 1, 0.0, math.pi, 48),  # F = -I: every eigenvalue sits on -1
        (1, 3, -0.8, 2 * math.pi / math.sqrt(3), 96),
        (1, 6, 2.5, PHI * math.pi, 96),
        (1, 4, -0.8, PHI * math.pi, 97),  # odd D: the even block is one larger
        (1, 4, -8.0, math.pi, 128),
        (2, 5, 8.0, 1.3, 96),
        (3, 4, -0.8, PHI * math.pi, 96),
        (3, 7, -5.0, 2.5, 96),
        # strong kick: an eigenvalue sits 4e-6 from -1 under the first shift,
        # so the solve must move -1 into the widest gap and repeat
        (5, 3, -53.72498222366804, 0.37780315759480493, 200),
    ])
    def test_matches_eig_oracle(self, r, q, kappa, eta_sq, dim):
        p = SystemParams(r=r, q=q, kappa=kappa, eta_sq=eta_sq)
        res = fock.quasienergy_spectrum(p, dim)
        phis, overlaps = res.phi, res.ground_overlap
        ref_phis, ref_overlaps = quasienergy_eig(p, dim)
        assert np.all((phis > -math.pi) & (phis <= math.pi))
        assert np.all(np.diff(phis) >= 0)
        # phases match on the circle, so a wrap at +-pi is not a mismatch
        dist = np.abs(np.angle(np.exp(1j * (phis[:, None] - ref_phis[None, :]))))
        assert dist.min(axis=1).max() < 1e-12
        assert dist.min(axis=0).max() < 1e-12
        # overlaps are defined only where the eigenvector is unique
        gaps = np.diff(np.concatenate([phis, [phis[0] + 2 * math.pi]]))
        isolated = np.minimum(gaps, np.roll(gaps, 1)) > 1e-4
        if kappa != 0.0:
            assert isolated.sum() > dim // 2
        nearest = np.argmin(dist, axis=1)
        assert np.all(np.abs(overlaps - ref_overlaps[nearest])[isolated] < 1e-9)
        assert res.max_residual < 1e-10
        assert math.fsum(overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_failed_factorization_turns_shift(self, monkeypatch):
        factored, solve_spd = [], _lapack.solve_spd

        def first_fails(a, b):
            factored.append(a - np.eye(len(a)))  # C = Re G
            if len(factored) == 1:
                raise np.linalg.LinAlgError("leading minor not positive definite")
            return solve_spd(a, b)

        monkeypatch.setattr(_lapack, "solve_spd", first_fails)
        p = params_q4()
        res = fock.quasienergy_spectrum(p, 64)
        # the even block fails first; its eigenvalue on -1 is turned to +1
        # (G -> -G), and the odd block then factors once, at the first shift
        first_shift = p.tau / 2 + math.pi + math.pi / p.q
        half = np.exp(0.5j * (first_shift - (np.arange(64) + 0.5) * p.tau))
        c_first = (kick_dense(p, 64) * np.outer(half, half)).real
        assert [len(c) for c in factored] == [32, 32, 32]
        assert np.abs(factored[0] - c_first[0::2, 0::2]).max() < 1e-13
        assert np.abs(factored[1] + factored[0]).max() < 1e-14
        assert np.abs(factored[2] - c_first[1::2, 1::2]).max() < 1e-13
        ref_phis, _ = quasienergy_eig(p, 64)
        assert np.abs(res.phi - ref_phis).max() < 1e-12

    @pytest.mark.parametrize("dim", [63, 64])
    def test_odd_states_have_zero_ground_overlap(self, dim):
        res = fock.quasienergy_spectrum(params_q4(eta_sq=PHI * math.pi), dim)
        overlaps = res.ground_overlap
        assert len(overlaps) == dim
        assert np.count_nonzero(overlaps == 0.0) == dim // 2
        assert math.fsum(overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound_raises(self, monkeypatch):
        monkeypatch.setattr(fock, "EIGEN_RESIDUAL_TOL", 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            fock.quasienergy_spectrum(params_q4(), 32)


class TestSymmetryCommutator:
    def test_zero_generator(self):
        assert fock.symmetry_commutator_norm(params_q4(), 64, 0.0) == 0.0

    def test_gamma_generator_commutes(self):
        p = params_q4()
        gen = model.symmetry_generators(4, p.eta, "gamma")[0]
        assert fock.symmetry_commutator_norm(p, 256, gen) < 1e-6

    def test_offresonant_gamma_still_commutes(self):
        p = params_q4(eta_sq=PHI * math.pi)
        gen = model.symmetry_generators(4, p.eta, "gamma")[0]
        assert fock.symmetry_commutator_norm(p, 256, gen) < 1e-6

    def test_gamma_set_is_eta_independent_but_Gamma_not(self):
        # a Gamma generator off resonance is not a symmetry: the commutator
        # norm is orders of magnitude above the gamma one
        p = params_q4(eta_sq=PHI * math.pi)
        gamma = model.symmetry_generators(4, p.eta, "gamma")[0]
        Gamma = model.symmetry_generators(4, p.eta, "Gamma")[0]
        c_gamma = fock.symmetry_commutator_norm(p, 256, gamma)
        c_Gamma = fock.symmetry_commutator_norm(p, 256, Gamma)
        assert c_Gamma > 1e4 * c_gamma

    @pytest.mark.parametrize("dim", [256, 512])
    def test_conjugate_generator_gives_conjugate_displacement(self, dim):
        # the column strips, bitwise but for the sign of zero (x + 0.0 clears
        # it); |comm| does not see the sign of zero
        b = fock.interior_block(dim)
        pairs = [model.symmetry_generators(p.q, p.eta, "gamma")
                 for _, p in verify.CRYSTAL_CASES if p.q != 4]
        assert len(pairs) == 4
        for g, g_bar in pairs:
            assert g_bar == g.conjugate()
            got = specfun.displacement_matrix(g, dim, block=b).conj() + 0.0
            want = specfun.displacement_matrix(g_bar, dim, block=b) + 0.0
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("case", [c for c in verify.CRYSTAL_CASES if c[1].q != 4],
                             ids=lambda c: f"q{c[1].q}-{c[0]}")
    def test_conjugate_pair_builds_one_displacement(self, monkeypatch, case):
        p = case[1]
        gens = model.symmetry_generators(p.q, p.eta, "gamma")
        each = max(fock.symmetry_commutator_norm(p, 256, g) for g in gens)
        calls = []
        build = specfun.displacement_matrix
        monkeypatch.setattr(specfun, "displacement_matrix",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        assert fock.symmetry_commutator_norm(p, 256, *gens) == each
        assert len(calls) == 1

    @pytest.mark.parametrize("which", ["gamma", "Gamma"])
    @pytest.mark.parametrize("case", [c for c in verify.CRYSTAL_CASES if c[1].q == 4],
                             ids=lambda c: f"q4-{c[0]}")
    def test_quarter_turn_pair_builds_one_displacement(self, monkeypatch, case, which):
        # D(1j g) is D(g) with rows times i^m and columns times i^-n: the
        # same matrix up to the rounding of a separate build
        p = case[1]
        g, g_turned = model.symmetry_generators(4, p.eta, which)
        assert g_turned == 1j * g
        each = max(fock.symmetry_commutator_norm(p, 256, gen) for gen in (g, g_turned))
        built = []
        build = specfun.displacement_matrix
        monkeypatch.setattr(specfun, "displacement_matrix",
                            lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
        assert fock.symmetry_commutator_norm(p, 256, g, g_turned) == pytest.approx(
            each, rel=1e-15, abs=0)
        assert len(built) == 1
        # the norm cannot tell D(1j g) from D(-1j g); the turned matrix can
        b = fock.interior_block(256)
        want = build(g_turned, 256, block=b)[:b, :b]
        np.testing.assert_allclose(built[0][:b, :b], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("which", ["gamma", "Gamma"])
    @pytest.mark.parametrize("q", [3, 4, 6])
    @pytest.mark.parametrize("tag", ["principal", "phi*pi"])
    def test_parity_blocks_match_dense_formula(self, tag, q, which):
        # off resonance a Gamma generator does not commute, so the max-norm
        # compared is far from 0 there
        eta_sq = model.resonant_values(q).principal if tag == "principal" else PHI * math.pi
        p = SystemParams(r=1, q=q, kappa=-0.8, eta_sq=eta_sq)
        gens = model.symmetry_generators(q, p.eta, which)
        got = fock.symmetry_commutator_norm(p, 128, *gens)
        assert abs(got - commutator_norm_dense(p, 128, *gens)) < 1e-13


class TestKickBuildMemory:
    """Outside a shared_quadratures() block kick_blocks drops the D x D
    quadrature eigenvectors V (8 D^2 bytes) before its GEMMs, so a
    one-parity build peaks at the eigensolve's own 16 D^2 bytes and a
    two-parity build at 18 D^2; with V kept they peak at 22 and 26 D^2."""

    @pytest.mark.parametrize("dim", [400, 401])
    @pytest.mark.parametrize("parities, bound", [((0,), 17), ((0, 1), 19)], ids=["even", "both"])
    def test_peak_bytes(self, traced_peak, dim, parities, bound):
        p = params_q4()
        fock.kick_blocks(p, dim, parities=parities)  # first-call set-up is not the build's
        assert traced_peak(lambda: fock.kick_blocks(p, dim, parities=parities)) <= bound * dim ** 2


class TestCommutatorMemory:
    """symmetry_commutator_norm builds only the dim x b column strip of D(gen)
    (16 b/dim D^2 bytes, 6.7 D^2 at D=512) and forms the interior commutator
    by parity sub-block, so within a shared_quadratures() block that holds
    the quadrature its peak is the F^q build's, about 18 D^2 at every q:
    floquet_power holds one block of F, one partial product and the next.
    With the full D and the b x b commutator it was 29.5 D^2, and with
    numpy's matrix_power 20 D^2 at q = 4 and 24 D^2 at q = 6."""

    DIM = 512

    @pytest.mark.parametrize("case", [c for c in verify.CRYSTAL_CASES if c[1].q in (4, 6)],
                             ids=lambda c: f"q{c[1].q}-{c[0]}")
    def test_commutator_peak_bytes(self, traced_peak, case):
        p = case[1]
        gens = model.symmetry_generators(p.q, p.eta, "gamma")
        with fock.shared_quadratures():
            fock.symmetry_commutator_norm(p, self.DIM, *gens)  # caches the quadrature
            peak = traced_peak(lambda: fock.symmetry_commutator_norm(p, self.DIM, *gens))
        assert peak < 19 * self.DIM ** 2

    def test_strip_peak_bytes(self, traced_peak):
        gen = model.symmetry_generators(4, verify.Q4.eta, "gamma")[0]
        b = fock.interior_block(self.DIM)
        specfun.displacement_matrix(gen, self.DIM, block=b)  # first-call set-up is not the build's
        peak = traced_peak(lambda: specfun.displacement_matrix(gen, self.DIM, block=b))
        assert peak < 7.5 * self.DIM ** 2


class TestSharedQuadratures:
    def test_each_quadrature_once_within_the_block(self, eigh_calls):
        p = params_q4()
        alone = fock.floquet_power(p, 64, 3)
        with fock.shared_quadratures():
            shared = fock.floquet_power(p, 64, 3)
            kick = fock.kick_blocks(p, 64)
            fock.kick_blocks(params_q4(kappa=0.3), 64)  # zeta is not part of the quadrature
            fock.kick_blocks(p, 32)
            fock.kick_blocks(params_q4(eta_sq=PHI * math.pi), 64)
        assert len(eigh_calls) == 1 + 3  # (pi, 64), (pi, 32) and (phi*pi, 64) in the block
        for got, want in ((shared, alone), (kick, fock.kick_blocks(p, 64))):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(eigh_calls) == 5  # nothing is kept after the block
        assert fock._SHARED_QUADRATURES.get() is None

    def test_block_is_reset_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with fock.shared_quadratures():
                fock.kick_blocks(params_q4(), 16)
                assert fock._SHARED_QUADRATURES.get()
                raise RuntimeError
        assert fock._SHARED_QUADRATURES.get() is None

    def test_scans_share_nothing(self, eigh_calls, tmp_path):
        # one process: a forked worker's calls do not reach eigh_calls
        code = cli.main(["energy-scan", "--scan-points", "3", "--dim", "32", "--kicks", "5",
                         "--threads", "1", "--out", str(tmp_path / "scan.csv")])
        assert code == cli.EXIT_TRUNCATION
        assert len(eigh_calls) == 3
        assert fock._SHARED_QUADRATURES.get() is None


class TestHelpers:
    def test_interior_block(self):
        assert fock.interior_block(256) == 64
        assert fock.interior_block(512) == int((math.sqrt(512) - 8) ** 2)
        with pytest.raises(ValueError):
            fock.interior_block(64)

    @staticmethod
    def random_blocks(rng, dim):
        return tuple(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                     for n in ((dim + 1) // 2, dim // 2))

    def test_phase_align(self):
        # blocks that differ by a global phase: mismatch_up_to_phase aligns it
        rng = np.random.default_rng(0)
        b = self.random_blocks(rng, 16)
        a = tuple(mat * np.exp(0.73j) for mat in b)
        assert fock.mismatch_up_to_phase(a, b, 16) < 1e-12

    @pytest.mark.parametrize("dim", [63, 64])
    def test_block_comparisons_equal_dense_references_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        a, b = self.random_blocks(rng, dim), self.random_blocks(rng, dim)
        for block in (dim, dim - 1, 21, 20, 1):
            assert fock.interior_max(b, block) == interior_max_dense(assemble(b), block)
            assert (fock.mismatch_up_to_phase(a, b, block)
                    == mismatch_up_to_phase_dense(assemble(a), assemble(b), block))

    def test_verify_comparisons_equal_dense_formulas_bitwise(self):
        p = verify.Q4
        fq, prod = (assemble(m) for m in (fock.floquet_power(p, 128, p.q),
                                          fock.kick_axis_product(p, 128)))
        assert verify.check_axis_product().measured == float(np.abs(fq - prod).max())
        block = fock.interior_block(256)
        diff = (assemble(fock.kick_blocks(p, 256))[:block, :block]
                - fock.kick_expansion_matrix(p, block))
        assert verify.check_kick_expansion().measured == interior_max_dense(diff, block)

    def test_doubling_rule(self):
        calls = []

        def obs(d):
            calls.append(d)
            return 1.0 + math.exp(-d / 40.0)

        res = fock.doubling_rule(obs)
        assert res.converged and res.dim == 1024
        assert calls == [256, 512, 1024, 2048]
        res = fock.doubling_rule(float)  # moves by D at every doubling
        assert not res.converged and (res.value, res.dim) == (2048.0, 2048)

    def test_coherent_state_outside_the_basis_raises(self):
        # e^{-|alpha|^2/2} |alpha|^n / sqrt(n!) underflows to 0 for every n < 6
        with pytest.raises(ValueError, match="hold none"):
            fock.coherent_state(50.0, 6)

    def test_fidelity(self):
        a = fock.coherent_state(0.5, 64)
        b = fock.coherent_state(0.5, 64)
        assert fock.fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
