import math

import numpy as np
import pytest

from kho import model
from kho.model import (
    ResonanceKind,
    SystemParams,
    classify,
    parse_eta2,
    resonant_values,
    symmetry_generators,
    z_values,
)

from oracles import commutation_phase, z_values_search

PHI = model.GOLDEN_RATIO


class TestSystemParams:
    def test_derived_quantities(self):
        sp = SystemParams(r=1, q=4, kappa=-0.8, eta_sq=math.pi)
        assert sp.tau == 2 * math.pi / 4
        assert sp.zeta == -sp.kappa / (math.sqrt(2) * sp.eta_sq)
        assert sp.eta == math.sqrt(math.pi)

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            SystemParams(r=2, q=4, kappa=-0.8, eta_sq=math.pi)

    @pytest.mark.parametrize("kappa,eta_sq", [
        (-0.8, math.nan), (-0.8, math.inf), (-0.8, 0.0), (-0.8, -1.0),
        (math.nan, math.pi), (math.inf, math.pi), (-math.inf, math.pi),
        (-0.8, 1e-320), (1e300, 1e-10),  # zeta = -kappa/(sqrt(2) eta^2) overflows
    ])
    def test_rejects_nonfinite_or_nonpositive(self, kappa, eta_sq):
        with pytest.raises(ValueError):
            SystemParams(r=1, q=4, kappa=kappa, eta_sq=eta_sq)


class TestResonantValues:
    def test_table(self):
        assert resonant_values(4).principal == pytest.approx(math.pi)
        assert resonant_values(3).principal == pytest.approx(2 * math.pi / math.sqrt(3))
        assert resonant_values(6).principal == pytest.approx(2 * math.pi / math.sqrt(3))
        for q in (5, 7, 8, 11):
            assert resonant_values(q).kind is ResonanceKind.NO_RESONANCE_POSSIBLE
        for q in (1, 2):
            assert resonant_values(q).kind is ResonanceKind.TRIVIAL_PERIOD

    def test_z_values(self):
        assert z_values(3) == pytest.approx([math.sqrt(3) / 2])
        assert z_values(4) == pytest.approx([1.0])
        assert len(z_values(5)) == 2
        assert z_values(6) == pytest.approx([math.sqrt(3) / 2])

    def test_z_values_match_the_search_over_every_j(self):
        assert [z_values(q) for q in range(1, 1201)] == [z_values_search(q)
                                                        for q in range(1, 1201)]

    def test_z_values_of_large_odd_q_are_all_distinct(self):
        # odd q: one value for each j = 1..(q-1)/2, the closest 9.9e-10 apart
        vals = z_values(100003)
        assert len(vals) == 50001
        assert min(b - a for a, b in zip(vals, vals[1:])) > 9e-10


class TestCommutationPhase:
    def test_resonant_unity(self):
        assert commutation_phase(math.pi, 4, 1, 1, 1, 1) == pytest.approx(1.0)

    def test_zero_index_always_commutes(self):
        for dj in range(4):
            assert commutation_phase(1.234, 4, 1, 0, 5, dj) == pytest.approx(1.0)

    def test_half_resonance_antiphase(self):
        # 2*(pi/2)*1*1*sin(pi/2) = pi -> e^{-i pi} = -1
        assert commutation_phase(math.pi / 2, 4, 1, 1, 1, 1) == pytest.approx(-1.0)

    def test_brute_force_grid_oracle(self):
        """Scanning eta^2: a value making all q-1 relative phases unity
        exists exactly for q in {3, 4, 6}."""
        grid = np.linspace(0.05, 15.0, 12001)
        for q in range(3, 13):
            best = np.inf
            for eta_sq in grid:
                worst = max(abs(commutation_phase(eta_sq, q, 1, 1, 1, dj) - 1.0)
                            for dj in range(1, q))
                best = min(best, worst)
            if q in (3, 4, 6):
                assert best < 5e-3, f"q={q} should admit a resonant eta^2"
            else:
                assert best > 5e-2, f"q={q} should not admit a resonant eta^2"


class TestClassify:
    def test_principal(self):
        rc = classify(math.pi, 4)
        assert rc.kind is ResonanceKind.RESONANT and (rc.a, rc.b) == (1, 1)

    def test_half(self):
        rc = classify(math.pi / 2, 4)
        assert rc.kind is ResonanceKind.RESONANT and (rc.a, rc.b) == (1, 2)

    def test_golden_is_nonresonant(self):
        assert classify(PHI * math.pi, 4).kind is ResonanceKind.NONRESONANT

    def test_scale_consistency(self):
        for q in (3, 4, 6):
            for w in range(1, 6):
                rc = classify(w * resonant_values(q).principal, q)
                assert (rc.a, rc.b) == (w, 1)

    def test_trivial_and_impossible(self):
        assert classify(1.0, 2).kind is ResonanceKind.TRIVIAL_PERIOD
        assert classify(1.0, 5).kind is ResonanceKind.NO_RESONANCE_POSSIBLE

    def test_partial_commutativity_at_rational_multiples(self):
        """At eta^2 = (a/b)*principal, displacements with both indices
        multiples of b commute for every axis separation."""
        rng = np.random.default_rng(3)
        for q in (3, 4, 6):
            for b in range(1, 9):
                a = int(rng.integers(1, 12))
                eta_sq = (a / b) * resonant_values(q).principal
                for k_scale in (1, 2):
                    k_m, k_n = b * k_scale, b * int(rng.integers(1, 4))
                    for dj in range(q):
                        phase = commutation_phase(eta_sq, q, 1, k_m, k_n, dj)
                        assert abs(phase - 1.0) < 1e-9


class TestSymmetryGenerators:
    def test_gamma_equals_Gamma_at_principal(self):
        eta = math.sqrt(math.pi)
        gam = symmetry_generators(4, eta, "gamma")
        Gam = symmetry_generators(4, eta, "Gamma")
        assert gam[0] == pytest.approx(Gam[0]) and gam[1] == pytest.approx(Gam[1])
        assert gam[0] == pytest.approx(math.sqrt(math.pi))

    def test_q4_gamma_values(self):
        eta = 1.7
        gens = symmetry_generators(4, eta, "gamma")
        assert gens[0] == pytest.approx(math.pi / eta)
        assert gens[1] == pytest.approx(1j * math.pi / eta)

    def test_q6_Gamma_values(self):
        eta = 1.3
        gens = symmetry_generators(6, eta, "Gamma")
        assert gens[0] == pytest.approx((math.sqrt(3) + 1j) / 2 * eta)
        assert gens[1] == pytest.approx((math.sqrt(3) - 1j) / 2 * eta)

    def test_no_crystal_for_q5(self):
        with pytest.raises(model.NoCrystalSymmetryError):
            symmetry_generators(5, 1.0)


class TestParseEta2:
    @pytest.mark.parametrize("text,value", [
        ("3.14", 3.14),
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("2pi/sqrt3", 2 * math.pi / math.sqrt(3)),
        ("phi*pi", PHI * math.pi),
        ("3/2*pi", 1.5 * math.pi),
        ("pi*0.9", 0.9 * math.pi),
        ("2pi/sqrt3*2", 4 * math.pi / math.sqrt(3)),
        ("sqrt3*pi/2", math.sqrt(3) * math.pi / 2),
        ("0.4*pi", 0.4 * math.pi),
    ])
    def test_forms(self, text, value):
        assert parse_eta2(text) == pytest.approx(value, rel=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_eta2("tau*2")
        with pytest.raises(ValueError):
            parse_eta2("")
        with pytest.raises(ValueError):
            parse_eta2("pi/0")
