"""Self-verification suite wiring the independent computation routes against
each other: Graf identities, the q-axis product rearrangement, the
displacement expansion of the kick, amplified-kick equivalence, the lattice
mapping against its closed forms, cross-representation fidelity, and the
phase-space symmetry commutators.

`run(level)` executes the quick suite (about 0.12 s on a 2-core Xeon host,
the first run in a process that has imported kho) or the full suite (about
0.5 s) and returns per-check results with measured values.  It runs the
checks one eta^2 at a time, in one `fock.shared_quadratures()` block per
eta^2: each quadrature is diagonalized once, and the spectra of an eta^2
are dropped before the checks of the next one start.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import fock, lattice, model, specfun

GOLDEN = model.GOLDEN_RATIO


def _principal(q: int) -> model.SystemParams:
    """The system of the checks at kick count q: q at its principal resonance."""
    return model.SystemParams(r=1, q=q, kappa=-0.8, eta_sq=model.resonant_values(q).principal)


#: the resonant q = 4 system of the acceptance checks
Q4 = _principal(4)
#: (tag, system) at the principal resonance and at phi*pi for each crystal q,
#: the cases of the cross-representation and commutator checks
CRYSTAL_CASES = tuple(
    (tag, params)
    for q in model.CRYSTAL_Q
    for tag, params in (("principal", _principal(q)),
                        ("phi*pi", replace(_principal(q), eta_sq=GOLDEN * math.pi))))
#: (q, v) of the full suite's amplified-kick checks, each q at its principal resonance
AMPLIFIED = ((4, 2), (4, 3), (3, 2))


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float
    seconds: float = 0.0  # set by run()
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return (f"{status}  {self.name}: measured={self.measured:.3e} "
                f"tol={self.tol:.1e} ({self.seconds:.1f}s){note}")


def _check(name, measured, tol, note="", larger_is_better=False):
    passed = measured >= tol if larger_is_better else measured <= tol
    return CheckResult(name=name, passed=passed, measured=float(measured),
                       tol=float(tol), note=note)


def check_resonant_table() -> CheckResult:
    expected = {
        1: (model.ResonanceKind.TRIVIAL_PERIOD, None),
        2: (model.ResonanceKind.TRIVIAL_PERIOD, None),
        3: (model.ResonanceKind.RESONANT, 2 * math.pi / math.sqrt(3)),
        4: (model.ResonanceKind.RESONANT, math.pi),
        5: (model.ResonanceKind.NO_RESONANCE_POSSIBLE, None),
        6: (model.ResonanceKind.RESONANT, 2 * math.pi / math.sqrt(3)),
        7: (model.ResonanceKind.NO_RESONANCE_POSSIBLE, None),
        8: (model.ResonanceKind.NO_RESONANCE_POSSIBLE, None),
    }
    worst = 0.0
    for q, (kind, principal) in expected.items():
        rc = model.resonant_values(q)
        if rc.kind is not kind:
            worst = 1.0
        elif principal is not None:
            worst = max(worst, abs(rc.principal - principal))
    return _check("resonant-value table q=1..8", worst, 1e-15)


def check_graf_closure() -> CheckResult:
    # the standard library's generator: numpy.random would load secrets and,
    # through it, hashlib and libcrypto, for 100 draws
    import random

    rng = random.Random(424242)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(-10, 10)
        zeta = rng.uniform(0.0, 5.0)
        alpha = rng.uniform(0.0, math.pi)
        geo = specfun.graf_geometry(zeta, alpha)
        lhs = specfun.graf_sum(n, zeta, alpha)
        rhs = specfun.bessel_j(n, geo.zeta_prime) * np.exp(1j * n * geo.chi)
        worst = max(worst, abs(lhs - rhs))
    # alpha = pi special case: J_n(2 zeta)
    for n in range(-8, 9):
        for zeta in (0.3, 1.3, 2.7):
            worst = max(worst, abs(specfun.graf_sum(n, zeta, math.pi)
                                   - specfun.bessel_j(n, 2 * zeta)))
    return _check("Graf closure (100 random triples + alpha=pi)", worst, 1e-12)


def check_axis_product() -> CheckResult:
    fq = fock.floquet_power(Q4, 128, Q4.q)
    prod = fock.kick_axis_product(Q4, 128)
    # both are exactly 0 across parity, so their blocks hold every difference
    return _check("q-axis product vs F^q (D=128, full matrix)",
                  fock.interior_max([a - b for a, b in zip(fq, prod)], 128), 1e-8)


def check_kick_expansion() -> CheckResult:
    block = fock.interior_block(256)
    # the expansion's leading block x block entries do not depend on its size
    expansion = fock.kick_expansion_matrix(Q4, block)
    diff = [kick[:len(half), :len(half)] - half
            for kick, half in zip(fock.kick_blocks(Q4, 256),
                                  (expansion[0::2, 0::2], expansion[1::2, 1::2]))]
    # the spectral kick is exactly 0 across parity: there the mismatch is the expansion
    across = [np.abs(expansion[s::2, 1 - s::2]).max() for s in (0, 1)]
    return _check(f"kick spectral vs displacement expansion (D=256, block={block})",
                  np.max([fock.interior_max(diff, block), *across]), 1e-8)


def check_q4_closed_form() -> tuple[CheckResult, CheckResult]:
    """The stepped q = 4 lattice state against analytic_q4, N = 2..8, from
    one walk: (mapping, phase pattern).

    mapping: max |M[N]_{m,n} - analytic| over |m|, |n| <= 12 and the retained
    support, a value missing on either side counting as 0.  phase pattern:
    max |M[N]_{m,n} - pattern * J_m(C_m zeta) J_n(C_n zeta)| over every
    retained coefficient.  Where |J_m J_n| > d this bounds the quotient form
    |M / (J_m J_n) - pattern| by measured / d; the quotient itself is
    ill-conditioned near Bessel zeros."""
    state = lattice.steps(lattice.from_params(0.0, Q4), 2)
    box = np.arange(-12, 13)
    in_box = retained = 0.0
    for n_kicks in range(2, 9):
        want = lattice.analytic_q4(n_kicks, Q4.zeta, box[:, None], box)
        in_box = max(in_box, lattice.max_difference(state, lattice.LatticeState(
            alpha=0j, j=n_kicks, params=Q4, coeffs=want, origin=(-12, -12))))
        ms, ns = np.nonzero(state.coeffs)
        want = lattice.analytic_q4(n_kicks, Q4.zeta, ms + state.origin[0], ns + state.origin[1])
        retained = max(retained, float(np.abs(state.coeffs[ms, ns] - want).max()))
        if n_kicks < 8:
            state = lattice.step(state)
    return (_check("lattice mapping vs closed form (q=4, N=2..8)", in_box, 1e-10),
            _check("resonant phase pattern (-1)^{mn} i^{m+n}", retained, 1e-10))


def check_q6_cycle() -> CheckResult:
    eta_sq = 2 * math.pi / math.sqrt(3)
    params = model.SystemParams(r=1, q=6, kappa=-0.18 * math.sqrt(2) * eta_sq,
                                eta_sq=eta_sq)  # zeta = 0.18
    kick3 = lattice.steps(lattice.from_params(0.0, params), 3)
    worst = lattice.max_difference(lattice.steps(kick3, 3), lattice.analytic_q6_cycle(kick3))
    return _check("q=6 three-step cycle vs stepped mapping", worst, 1e-10)


def cross_representation_fidelity(params: model.SystemParams,
                                  state: lattice.LatticeState, dim: int) -> float:
    """Fidelity between the ground state propagated by params on the Fock
    route and the lattice state after the same number of kicks, both in a
    dim-state basis.  params is given apart from state.params, so a lattice
    state built for another system fails the check."""
    ev = fock.evolve(fock.ground_state(dim), params, state.j)
    return fock.fidelity(ev.state, lattice.to_fock(state, dim).state)


def _q4_fidelity_case() -> CheckResult:
    """The quick suite's one cross-representation case: Q4 at D=512."""
    fid = cross_representation_fidelity(Q4, lattice.steps(lattice.from_params(0.0, Q4), 12), 512)
    return _check("fock/lattice fidelity q=4 N=12 (D=512)", fid, 0.999, larger_is_better=True)


def _cross_representation_case(tag: str, params: model.SystemParams) -> CheckResult:
    # the lattice state does not depend on D: one evolution per case
    state = lattice.steps(lattice.from_params(0.0, params), 12)
    res = fock.doubling_rule(lambda d: cross_representation_fidelity(params, state, d))
    return _check(
        f"fock/lattice fidelity q={params.q} eta2={tag} N=12 (D={res.dim})",
        res.value, 0.999, larger_is_better=True,
        note="" if res.converged else "doubling rule not converged")


def check_cross_representation() -> list[CheckResult]:
    return [_cross_representation_case(tag, params) for tag, params in CRYSTAL_CASES]


def _amplified_case(params: model.SystemParams, v: int, dim: int) -> CheckResult:
    fqv = fock.floquet_power(params, dim, params.q * v)
    amp = fock.amplified_kick_operator(params, dim, v)
    block = fock.interior_block(dim)
    return _check(
        f"amplified kick q={params.q} v={v} vs F^(qv) (D={dim}, block={block})",
        fock.mismatch_up_to_phase(amp, fqv, block), 1e-7)


def check_amplified() -> list[CheckResult]:
    return [_amplified_case(_principal(q), v, 256) for q, v in AMPLIFIED]


def _commutator_case(tag: str, params: model.SystemParams, dim: int) -> CheckResult:
    gens = model.symmetry_generators(params.q, params.eta, "gamma")
    worst = fock.symmetry_commutator_norm(params, dim, *gens)
    return _check(f"[F^q, D(gamma)] q={params.q} eta2={tag} (D={dim})", worst, 1e-6)


def check_commutators() -> list[CheckResult]:
    return [_commutator_case(tag, params, 512) for tag, params in CRYSTAL_CASES]


def check_state_roundtrip() -> CheckResult:
    params = replace(Q4, eta_sq=GOLDEN * math.pi)
    state = lattice.steps(lattice.from_params(0.25 + 0.1j, params), 3)
    back = lattice.from_json(lattice.to_json(state))
    # equal coefficients do not make up for a lost center, j or system
    same = (back.alpha, back.j, back.params) == (state.alpha, state.j, state.params)
    worst = lattice.max_difference(state, back) if same else math.inf
    return _check("lattice state JSON roundtrip", worst, 0.0)


def _schedule(level: str) -> list[tuple[float | None, Callable]]:
    """(eta^2, check) for each check of the level, in the order run()
    reports them: eta^2 is that of every quadrature the check diagonalizes,
    None for a check that diagonalizes none.  A check returns one result,
    or a tuple of them."""
    quick = level == "quick"
    amp_cases, amp_dim, comm_dim = (((4, 2),), 128, 256) if quick else (AMPLIFIED, 256, 512)
    schedule = [(None, check_resonant_table), (None, check_graf_closure),
                (Q4.eta_sq, check_axis_product), (Q4.eta_sq, check_kick_expansion),
                (None, check_q4_closed_form), (None, check_state_roundtrip),
                (None, check_q6_cycle)]
    if quick:
        schedule.append((Q4.eta_sq, _q4_fidelity_case))
    else:
        schedule += [(params.eta_sq, partial(_cross_representation_case, tag, params))
                     for tag, params in CRYSTAL_CASES]
    schedule += [(_principal(q).eta_sq, partial(_amplified_case, _principal(q), v, amp_dim))
                 for q, v in amp_cases]
    schedule += [(params.eta_sq, partial(_commutator_case, tag, params, comm_dim))
                 for tag, params in CRYSTAL_CASES]
    return schedule


def run(level: str = "quick") -> list[CheckResult]:
    """Run the verification suite; `level` is 'quick' or 'full'.

    The checks run one eta^2 at a time, each eta^2 in its own
    shared_quadratures() block: the checks that diagonalize no quadrature
    first, then those of each eta^2 in the order it first appears (pi,
    2pi/sqrt3, phi*pi).  Within a block each quadrature is diagonalized
    once, and its spectrum is dropped when the block ends, so the suite
    holds the spectra of one eta^2 at a time.  Each check measures bitwise
    what it measures when run alone, and the results come back in the
    schedule's order, each timed on its own."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    specfun.ufuncs()  # loaded before the first timer starts, so no check's time holds it
    schedule = _schedule(level)
    results = [None] * len(schedule)
    for eta_sq in dict.fromkeys(key for key, _ in schedule):
        with fock.shared_quadratures():
            for i, (key, check) in enumerate(schedule):
                if key == eta_sq:
                    t0 = time.perf_counter()
                    res = check()
                    seconds = time.perf_counter() - t0
                    results[i] = res if isinstance(res, tuple) else (res,)
                    for r in results[i]:
                        r.seconds = seconds
    return [r for res in results for r in res]
