"""Phase-space lattice-state representation of kicked-oscillator dynamics.

A state after j kicks is a superposition of coherent states on the oblique
grid i*eta*(m + n*e^{-i 2 pi/q}) around a rotating center, with complex
coefficients M[j]_{m,n}.  One kick acts as an exact recurrence on the
coefficients:

    M[j+1]_{m,n} = sum_k i^k J_k(zeta) M[j]_{m*xi_q + n - k, -m}
                   * exp(-i k m eta^2 sin(2 pi / q))

A LatticeState holds them as one dense complex array `coeffs` (0 x 0 when
empty), entries below EPS_LAT set to 0, with no border row or column of
zeros.  `step` reads the recurrence from the source side: (m0, n0) goes to
(-n0, m0 + xi_q*n0 + k) with weight i^k J_k(zeta) e^{+i k n0 eta^2 sin(2 pi/q)},
so each source column n0 is convolved with these weights into row -n0.

A LatticeState carries its system as a model.SystemParams.  The derivation
fixes r = 1 and needs a crystal kick-axis set, q in {3, 4, 6}; the state
refuses anything else, so every state `step` sees is valid.  At quantum
resonance the phase factors collapse to signs and the evolution reduces to
cyclically growing Bessel arguments (analytic_q4 for q = 4; a three-step
cycle evaluated by analytic_q6_cycle for q = 6, which asks model.classify
whether eta^2 is an odd multiple of the principal resonance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .fock import FockVector
from .model import NonresonantError, ResonanceKind, SystemParams, classify

#: integer xi_q from decomposing e^{-i 4 pi/q} over {1, e^{-i 2 pi/q}}
XI_Q = {3: -1, 4: 0, 6: 1}

EPS_LAT = 1e-12  # magnitude threshold for retaining coefficients

_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k indexed by k mod 4


@dataclass(eq=False)  # == is identity: compare coefficients with max_difference
class LatticeState:
    alpha: complex  # coherent amplitude at the lattice center
    j: int  # kicks applied so far
    params: SystemParams
    coeffs: np.ndarray  # complex 2-D: M_{m,n} at [m - origin[0], n - origin[1]]
    origin: tuple[int, int]  # the (m, n) of coeffs[0, 0]

    def __post_init__(self):
        if self.params.r != 1:
            raise ValueError("the lattice mapping is derived for r = 1 only")
        if self.params.q not in XI_Q:
            raise ValueError(f"lattice evolution needs q in {sorted(XI_Q)}, got q={self.params.q}")
        ms, ns = np.nonzero(self.coeffs)  # cut the border rows and columns of zeros
        if ms.size:
            self.coeffs = self.coeffs[ms.min():ms.max() + 1, ns.min():ns.max() + 1].copy()
            self.origin = (int(self.origin[0] + ms.min()), int(self.origin[1] + ns.min()))
        else:
            self.coeffs, self.origin = np.zeros((0, 0), complex), (0, 0)


@dataclass
class ConversionResult:
    state: FockVector
    raw_norm: float  # pre-normalization norm; |raw_norm - 1| measures truncation


def from_params(alpha: complex, params: SystemParams) -> LatticeState:
    """Lattice state for a bare coherent state |alpha>: M[0] = delta_m0 delta_n0."""
    return LatticeState(complex(alpha), 0, params, np.ones((1, 1), complex), (0, 0))


def max_difference(a: LatticeState, b: LatticeState) -> float:
    """max |M_{m,n}(a) - M_{m,n}(b)| over the box holding both supports."""
    held = [s for s in (a, b) if s.coeffs.size] or [a]  # an empty state has no place
    lo = np.min([s.origin for s in held], axis=0)
    diff = np.zeros(np.max([np.add(s.origin, s.coeffs.shape) for s in held], 0) - lo, complex)
    for state, sign in ((a, 1), (b, -1)):
        (m, n), (rows, cols) = state.origin - lo, state.coeffs.shape
        diff[m:m + rows, n:n + cols] += sign * state.coeffs
    return float(np.abs(diff).max(initial=0.0))


def step(state: LatticeState) -> LatticeState:
    """Advance the coefficient lattice by one kick: each source column n0 is
    convolved with i^k J_k(zeta) e^{i k n0 w}, |k| <= k_cutoff(zeta), into
    target row -n0; coefficients below EPS_LAT are dropped after the full sum."""
    params = state.params
    xi = XI_Q[params.q]
    kc = specfun.k_cutoff(params.zeta)
    k = np.arange(-kc, kc + 1)
    wk = _I_POWERS[k % 4] * specfun.bessel_range(params.zeta, -kc, kc)  # i^k J_k(zeta)
    w = params.eta_sq * math.sin(2.0 * math.pi / params.q)
    rows, cols = state.coeffs.shape
    n0 = state.origin[1] + np.arange(cols)
    # column n0 goes to row -n0 (out's rows run in -m order) from n' = origin[0] + xi*n0 - kc
    lead = min(xi * n0, default=0)
    out = np.zeros((cols, rows + 2 * kc + abs(xi) * (cols - 1)), complex)
    kernels = wk * np.exp(1j * w * (n0[:, None] * k))
    for c, start in enumerate(xi * n0 - lead):
        out[c, start:start + rows + 2 * kc] = np.convolve(state.coeffs[:, c], kernels[c])
    out[np.abs(out) < EPS_LAT] = 0
    return LatticeState(alpha=state.alpha, j=state.j + 1, params=params, coeffs=out[::-1],
                        origin=(1 - cols - state.origin[1], state.origin[0] - kc + lead))


def steps(state: LatticeState, n: int) -> LatticeState:
    for _ in range(n):
        state = step(state)
    return state


def bessel_growth_factors(n_kicks: int) -> tuple[int, int]:
    """Integer factors (C_m, C_n) scaling the Bessel arguments after N kicks
    of the resonant q = 4 evolution, N >= 2.

    Two-kick cycle (C_m, C_n) -> (C_n, C_m + 1): every second kick merges the
    mapping's J_k(zeta) into one coordinate through the addition theorem
    sum_k J_k(x) J_{n-k}(y) = J_n(x+y), so the arguments grow linearly --
    the closed-form counterpart of the kick strength amplifying linearly
    over full periods.
    """
    return n_kicks // 2, (n_kicks + 1) // 2


def analytic_q4(n_kicks: int, zeta: float, m, n):
    """Closed-form coefficient M[N]_{m,n} for q = 4 at the principal
    quantum resonance (eta^2 an odd multiple of pi):

        (-1)^{m n} i^{m+n} J_m(C_m zeta) J_n(C_n zeta),  N >= 2,

    with (C_m, C_n) = bessel_growth_factors(N).  The whole time dependence
    sits in the growing Bessel arguments.  m and n are integers or integer
    arrays, broadcast against each other.
    """
    cm, cn = bessel_growth_factors(n_kicks)
    m, n = np.asarray(m), np.asarray(n)
    top = int(max(np.max(np.abs(m)), np.max(np.abs(n))))
    return (phase_pattern(n_kicks, m, n) * specfun.bessel_range(cm * zeta, -top, top)[m + top]
            * specfun.bessel_range(cn * zeta, -top, top)[n + top])


def phase_pattern(n_kicks: int, m, n):
    """Coefficient phase with Bessel parity divided out, q = 4 resonant case:
    M[N]_{m,n} / [J_m(C_m zeta) J_n(C_n zeta)] = (-1)^{m n} i^{m+n},
    independent of N for N >= 2.  m and n broadcast like analytic_q4's."""
    if n_kicks < 2:
        raise ValueError(f"pattern holds for N >= 2 kicks, got N={n_kicks}")
    m, n = np.asarray(m), np.asarray(n)
    return (1 - 2 * ((m * n) % 2)) * _I_POWERS[(m + n) % 4]


def q6_triple_sum(zeta_eff: float, m, n):
    """Coefficient of the resonant q = 6 evolution at a cycle point as the
    triple Bessel sum

        sum_k i^k J_k i^{n-k} J_{n-k} i^{m+n-k} J_{m+n-k} (-1)^{m n + n^2 + k^2},

    all arguments zeta_eff.  The coefficients cannot be reduced below a
    single sum over three Bessel factors; the three-kick cycle advances
    zeta_eff by one unit of zeta each time.  m and n are integers or
    integer arrays, broadcast against each other; the sum runs over k into
    one array of their broadcast shape.
    """
    m, n = np.asarray(m), np.asarray(n)
    kc = specfun.k_cutoff(zeta_eff)
    top = kc + int(np.max(np.abs(m) + np.abs(n)))
    bessel = specfun.bessel_range(zeta_eff, -top, top)
    total = 0
    for k in range(-kc, kc + 1):
        sign = 1 - 2 * ((m * n + n * n + k * k) % 2)
        total += (sign * _I_POWERS[(m + 2 * n - k) % 4] * bessel[k + top]
                  * bessel[n - k + top] * bessel[m + n - k + top])
    return total


def analytic_q6_cycle(state: LatticeState) -> LatticeState:
    """Jump a resonant q = 6 state from kick 3j to kick 3(j+1).

    The coefficients at 3(j+1) are the kick-3 triple sums with every Bessel
    argument scaled to (j+1) * zeta: each cycle folds one more mapping
    J(zeta) into the state arguments via the addition theorem, mirroring the
    q = 4 linear growth.  eta^2 must be an odd multiple of the principal
    resonance 2 pi / sqrt(3): the sign structure (-1)^{...} of the cycle
    assumes e^{-i k m eta^2 sin(2pi/6)} = (-1)^{k m}.
    """
    params = state.params
    if params.q != 6:
        raise ValueError("the three-step cycle applies to q = 6")
    if state.j % 3 != 0:
        raise ValueError(f"state must sit on the cycle (j divisible by 3), got j={state.j}")
    res = classify(params.eta_sq, 6)
    if res.kind is not ResonanceKind.RESONANT or res.b != 1 or res.a % 2 == 0:
        raise NonresonantError(f"eta_sq={params.eta_sq} is not an odd multiple of 2*pi/sqrt(3), "
                               "which the q=6 three-step cycle needs")
    zeff = params.zeta * (state.j // 3 + 1)
    kc = specfun.k_cutoff(zeff)
    vals = q6_triple_sum(zeff, np.arange(-3 * kc, 3 * kc + 1)[:, None],
                         np.arange(-2 * kc, 2 * kc + 1))
    vals[np.abs(vals) < EPS_LAT] = 0
    return LatticeState(alpha=state.alpha, j=state.j + 3, params=params, coeffs=vals,
                        origin=(-3 * kc, -2 * kc))


def _entries(state: LatticeState):
    """(m, n, M_{m,n}) arrays of the nonzero coefficients, in sorted (m, n) order."""
    ms, ns = np.nonzero(state.coeffs)  # row-major
    return ms + state.origin[0], ns + state.origin[1], state.coeffs[ms, ns]


def to_fock(state: LatticeState, dim: int) -> ConversionResult:
    """Materialize the lattice superposition in the truncated number basis.

    Each term is a displaced coherent state, reduced with
    D(beta)|alpha_j> = e^{(beta alpha_j^* - beta^* alpha_j)/2} |beta + alpha_j>,
    and psi_n sums the prefactors times c_n(beta + alpha_j) from
    specfun.coherent_fock.  The output is normalized; raw_norm records the
    pre-normalization norm, whose distance from 1 measures what the basis
    lost.  ValueError if it is 0: the basis holds none of the state (an
    empty state included).
    """
    ms, ns, vals = _entries(state)
    q = state.params.q
    omega = np.exp(-2j * np.pi / q)
    alpha_j = state.alpha * omega ** state.j
    betas = 1j * state.params.eta * (ms + ns * omega)
    pref = (vals * np.exp((betas * np.conj(alpha_j) - np.conj(betas) * alpha_j) / 2.0)
            * np.exp(-1j * np.pi * state.j / q))  # the global phase
    psi = np.array([pref @ c_n for c_n in specfun.coherent_fock(betas + alpha_j, dim)])
    raw_norm = float(np.linalg.norm(psi))
    if raw_norm == 0.0:
        raise ValueError(f"the first {dim} number states hold none of the lattice state")
    return ConversionResult(state=FockVector(psi / raw_norm), raw_norm=raw_norm)

