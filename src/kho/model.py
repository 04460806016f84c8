"""Dimensionless parameters, phase-space symmetry sets, and quantum-resonance
classification for the kicked harmonic oscillator.

(r, q, kappa, eta^2) is the only input.  An atom of mass M in a trap of
frequency omega, kicked every T by a standing wave of wavevector
K = 4*pi/lambda_L, Rabi frequency Omega, pulse length t_p and detuning Delta
has eta^2 = K^2*hbar/(2*M*omega), tau = omega*T = 2*pi*r/q and
kappa = hbar*Omega^2*t_p*K^2/(8*sqrt(2)*Delta*M*omega).  For 87Rb at
780.241 nm, q = 4 resonates (eta^2 = pi) at omega/2pi = 4.80 kHz with
T = 52.1 us; q = 3 and q = 6 (eta^2 = 2*pi/sqrt(3)) at 4.16 kHz, with
T = 80.2 us and 40.1 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: q values whose kick axes form a crystal lattice in phase space
CRYSTAL_Q = (3, 4, 6)

DEFAULT_RATIONAL_TOL = 1e-9
B_MAX_RESONANCE = 64


class NoCrystalSymmetryError(ValueError):
    """Raised for q outside {3, 4, 6} where no lattice symmetry set exists."""


class NonresonantError(ValueError):
    """An operation requiring a quantum-resonant eta^2 got a nonresonant one."""


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless dynamical description (r, q, kappa, eta^2).

    tau and zeta are always derived from the primaries, so they satisfy
    tau = 2*pi*r/q and zeta = -kappa/(sqrt(2)*eta^2) exactly.
    """

    r: int
    q: int
    kappa: float
    eta_sq: float

    def __post_init__(self):
        if self.r < 1 or self.q < 1:
            raise ValueError("r and q must be positive integers")
        if math.gcd(self.r, self.q) != 1:
            raise ValueError(f"r={self.r}, q={self.q} must be coprime")
        if not (math.isfinite(self.eta_sq) and self.eta_sq > 0):
            raise ValueError(f"eta_sq must be finite and positive, got {self.eta_sq}")
        if not math.isfinite(self.zeta):  # a non-finite kappa, or one too large for eta_sq
            raise ValueError(f"zeta = -kappa/(sqrt(2)*eta_sq) must be finite, got {self.zeta} "
                             f"from kappa={self.kappa}, eta_sq={self.eta_sq}")

    @property
    def tau(self) -> float:
        return 2.0 * math.pi * self.r / self.q

    @property
    def eta(self) -> float:
        return math.sqrt(self.eta_sq)

    @property
    def zeta(self) -> float:
        return -self.kappa / (math.sqrt(2.0) * self.eta_sq)


class ResonanceKind(str, Enum):
    RESONANT = "resonant"
    NONRESONANT = "nonresonant"
    TRIVIAL_PERIOD = "trivial_period"
    NO_RESONANCE_POSSIBLE = "no_resonance_possible"


@dataclass(frozen=True)
class ResonanceClass:
    """Outcome of resonance classification.

    For RESONANT, eta^2 = (a/b) * principal within tolerance.  TRIVIAL_PERIOD
    marks q in {1, 2}, where the free evolution is inert for every eta^2 and
    no quantum resonance exists.
    """

    kind: ResonanceKind
    a: int | None = None
    b: int | None = None
    principal: float | None = None


def z_values(q: int) -> list[float]:
    """Distinct nonzero values of |sin(2*pi*j/q)|, j = 0..q-1.

    j and q - j give the same value, and for even q so do j and q/2 - j, so
    j = 1..q//2 for odd q, or j = 1..q//4 for even q, gives each value once,
    at its smallest j.  Quantum resonances require all of these to coincide,
    which happens only for q in {3, 4, 6}.
    """
    top = q // 2 if q % 2 else q // 4
    return sorted(abs(math.sin(2.0 * math.pi * j / q)) for j in range(1, top + 1))


def resonant_values(q: int) -> ResonanceClass:
    """Resonance metadata for a kick count q: the principal eta^2, trivial
    period, or impossibility."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if q in (1, 2):
        return ResonanceClass(kind=ResonanceKind.TRIVIAL_PERIOD)
    if q not in CRYSTAL_Q:
        return ResonanceClass(kind=ResonanceKind.NO_RESONANCE_POSSIBLE)
    principal = math.pi if q == 4 else 2.0 * math.pi / math.sqrt(3.0)
    return ResonanceClass(kind=ResonanceKind.RESONANT, principal=principal)


def classify(eta_sq: float, q: int) -> ResonanceClass:
    """Classify eta^2 as a rational multiple a/b of the principal resonance
    value, b <= B_MAX_RESONANCE within DEFAULT_RATIONAL_TOL (continued-fraction
    detection), or as nonresonant."""
    if eta_sq <= 0:
        raise ValueError("eta_sq must be positive")
    base = resonant_values(q)
    if base.kind is not ResonanceKind.RESONANT:
        return base
    ratio = eta_sq / base.principal
    frac = Fraction(ratio).limit_denominator(B_MAX_RESONANCE)
    if frac.numerator >= 1 and abs(ratio - float(frac)) < DEFAULT_RATIONAL_TOL:
        return ResonanceClass(kind=ResonanceKind.RESONANT, a=frac.numerator,
                              b=frac.denominator, principal=base.principal)
    return ResonanceClass(kind=ResonanceKind.NONRESONANT, principal=base.principal)


def symmetry_generators(q: int, eta: float, which: str = "gamma") -> tuple[complex, complex]:
    """Generating displacements of the symmetry set:

    'gamma' - translations commuting with F^q for every eta (the classical
    stochastic-web crystal group); 'Gamma' - displacements out of which F^q
    itself is built.  The two coincide exactly at the principal resonance.
    """
    if q not in CRYSTAL_Q:
        raise NoCrystalSymmetryError(f"no crystal symmetry for q={q}; need q in {CRYSTAL_Q}")
    if which == "gamma":
        if q == 4:
            gens = (math.pi / eta + 0j, 1j * math.pi / eta)
        else:
            gens = ((1.0 + 1j / math.sqrt(3.0)) * math.pi / eta,
                    (1.0 - 1j / math.sqrt(3.0)) * math.pi / eta)
    elif which == "Gamma":
        if q == 4:
            gens = (eta + 0j, 1j * eta)
        else:
            gens = ((math.sqrt(3.0) + 1j) / 2.0 * eta,
                    (math.sqrt(3.0) - 1j) / 2.0 * eta)
    else:
        raise ValueError("which must be 'gamma' or 'Gamma'")
    return gens


def parse_eta2(text: str) -> float:
    """Parse a symbolic eta^2: float literal or products/quotients of
    numbers, `pi`, `phi` (golden ratio) and `sqrt3`, e.g. `pi/2`,
    `2pi/sqrt3`, `phi*pi`, `3/2*pi`, `sqrt3*pi/2`."""
    import re

    s = text.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty eta^2 expression")
    s = re.sub(r"(\d)(pi|phi|sqrt3)", r"\1*\2", s)
    tokens = re.split(r"([*/])", s)
    consts = {"pi": math.pi, "phi": GOLDEN_RATIO, "sqrt3": math.sqrt(3.0)}

    def atom(tok: str) -> float:
        if tok in consts:
            return consts[tok]
        try:
            return float(tok)
        except ValueError:
            raise ValueError(f"cannot parse eta^2 token {tok!r} in {text!r}") from None

    value = atom(tokens[0])
    for op, tok in zip(tokens[1::2], tokens[2::2]):
        factor = atom(tok)
        if op == "/" and factor == 0.0:
            raise ValueError(f"division by zero in eta^2 expression {text!r}")
        value = value * factor if op == "*" else value / factor
    return value
