"""Special-function kernel: integer-order Bessel functions, Graf-geometry
helpers, displacement-operator matrix elements and coherent-state amplitudes.

Everything here is a pure function of its arguments.  Bessel values come
from scipy.special's jv, tabulated over orders 0..n per argument and cached,
and are read through bessel_range, which takes negative orders from
J_{-n}(x) = (-1)^n J_n(x); bessel_j is its one-order case.
jv and gammaln are the ufuncs of scipy's compiled extension
scipy.special._ufuncs, which `ufuncs()` loads at its first call (the first
Bessel table or displacement matrix), so the paths that need neither
(evolve, qfunc, spectrum, energy-scan, resonances) never load it: only
verify does.  It loads the extension without the scipy.special package,
whose import also pulls in scipy's array-API layer and with it numpy.f2py,
numpy.testing and numpy.ma, about 0.2 s and 14 MiB of a cold verify: the
extension's init imports its sibling extensions through the package, so a
bare stand-in module with the package's __path__ takes the package's place
in sys.modules for that one import.  A later `import scipy.special` runs
the real package, which reuses the loaded extension and so hands out the
very ufuncs kho calls.  If scipy.special is already imported, its
extension is used; if the extension cannot be loaded or lacks jv or
gammaln, the functions come from the scipy.special package.
Displacement matrix elements use the associated-Laguerre closed form with
factorial ratios carried in log space, so they remain finite at orders of a
few thousand.  Coherent amplitudes c_n(alpha) come from one recurrence over
n, vectorized over an array of alpha and yielded one order at a time; it
carries e^{-|alpha|^2/2} as a log scale, so nothing underflows where the
basis still holds the state.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import sys
import types
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

_SPECIAL = "scipy.special"
_UFUNCS = ("jv", "gammaln")
_RESCALE = 1e250
_ALPHA_MAX = np.finfo(float).max / _RESCALE  # |power * alpha| stays finite below it


@dataclass(frozen=True)
class GrafGeometry:
    """Triangle data (zeta', chi) for Graf's addition theorem with equal
    Bessel arguments zeta and relative angle alpha in [0, pi]."""

    zeta: float
    alpha: float
    zeta_prime: float
    chi: float


def _load_ufuncs(special_dir: Path) -> types.ModuleType:
    """scipy.special's _ufuncs extension: the loaded package's, else the
    one in special_dir, imported under a stand-in for the package; the
    scipy.special package itself if neither holds every name in _UFUNCS."""
    package = sys.modules.get(_SPECIAL)
    if package is not None:
        module = getattr(package, "_ufuncs", None)
    else:
        stand_in = types.ModuleType(_SPECIAL)
        stand_in.__path__ = [str(special_dir)]
        sys.modules[_SPECIAL] = stand_in
        try:
            module = importlib.import_module(f"{_SPECIAL}._ufuncs")
        except ImportError:
            module = None
        finally:
            if sys.modules.get(_SPECIAL) is stand_in:
                del sys.modules[_SPECIAL]
    if module is None or not all(hasattr(module, name) for name in _UFUNCS):
        module = importlib.import_module(_SPECIAL)
    return module


@lru_cache(maxsize=None)
def ufuncs() -> types.ModuleType:
    """The module whose jv and gammaln kho calls, loaded at the first call:
    scipy.special's compiled _ufuncs extension, without the package where
    it can be (see the module docstring)."""
    return _load_ufuncs(Path(importlib.util.find_spec("scipy").origin).parent / "special")


@lru_cache(maxsize=512)
def _cached_table(x: float, order_max: int) -> np.ndarray:
    out = ufuncs().jv(np.arange(order_max + 1), x)
    out.flags.writeable = False
    return out


def bessel_j(n: int, x: float) -> float:
    """Integer-order cylindrical Bessel function J_n(x)."""
    n = int(n)
    return float(bessel_range(x, n, n)[0])


@lru_cache(maxsize=512)
def k_cutoff(zeta: float, tol: float = 1e-14) -> int:
    """Smallest k with |J_k(zeta)| < tol; truncation bound for all k-sums.

    The super-exponential decay past the turning point makes this a uniform
    tail bound: |J_k(zeta)| < tol for every k >= k_cutoff(zeta).
    """
    guess = int(abs(zeta)) + 60
    table = bessel_range(zeta, 0, guess)
    kc = int(np.nonzero(np.abs(table) >= tol)[0][-1]) + 1
    if kc > guess:
        raise RuntimeError(f"no cutoff below tol={tol} found for zeta={zeta}")
    return kc


def bessel_range(zeta: float, k_lo: int, k_hi: int) -> np.ndarray:
    """J_k(zeta) for k = k_lo..k_hi inclusive (negative orders via parity)."""
    if not math.isfinite(zeta):
        raise ValueError(f"Bessel argument must be finite, got {zeta}")
    table = _cached_table(float(zeta), int(max(abs(k_lo), abs(k_hi))))
    ks = np.arange(k_lo, k_hi + 1)
    vals = table[np.abs(ks)].copy()
    odd_neg = (ks < 0) & (ks % 2 != 0)
    vals[odd_neg] *= -1.0
    return vals


def graf_geometry(zeta: float, alpha: float) -> GrafGeometry:
    """Resolve (zeta', chi) from the triangle construction behind Graf's
    theorem for two equal arguments.

    zeta' = zeta * sqrt(2 [1 - cos(alpha)]) is the defining relation; chi is
    the two-argument arctangent of (zeta sin(alpha), zeta [1 - cos(alpha)]),
    which lands in [0, pi/2] for alpha in [0, pi].
    """
    if not math.isfinite(zeta):
        raise ValueError("zeta must be finite")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
    zeta_prime = zeta * math.sqrt(2.0 * (1.0 - math.cos(alpha)))
    chi = math.atan2(abs(zeta) * math.sin(alpha), abs(zeta) * (1.0 - math.cos(alpha)))
    return GrafGeometry(zeta=zeta, alpha=alpha, zeta_prime=zeta_prime, chi=chi)


def graf_sum(n: int, zeta: float, alpha: float) -> complex:
    """Truncated sum_{k} J_{n+k}(zeta) J_k(zeta) e^{i k alpha}.

    Equals J_n(zeta') e^{i n chi} with (zeta', chi) = graf_geometry(zeta,
    alpha); the truncation |k| <= k_cutoff(zeta, 1e-15) + |n| keeps every
    dropped term below 1e-15.
    """
    k_max = k_cutoff(zeta, 1e-15) + abs(n)
    ks = np.arange(-k_max, k_max + 1)
    jk = bessel_range(zeta, -k_max, k_max)
    jnk = bessel_range(zeta, n - k_max, n + k_max)
    return complex(np.sum(jnk * jk * np.exp(1j * ks * alpha)))


def displacement_matrix(alpha: complex, dim: int, block: int | None = None) -> np.ndarray:
    """Dense matrix of exact displacement elements <m|D(alpha)|n>: all dim x
    dim of them, or with `block` the dim x block strip of columns n < block.

    One pass of the Laguerre recurrence over the lower index n, vectorized
    across the dim - n diagonal offsets still inside the matrix, fills both
    triangles, one column and one row per step; a strip stops after
    n = block - 1 and is bitwise the full matrix's first block columns.  The
    rows < block follow from the strip: D^dag = D(-alpha) = P D P with P the
    parity (-1)^n, so <m|D|n> = (-1)^(m+n) conj <n|D|m>.
    """
    alpha = complex(alpha)
    block = dim if block is None else min(block, dim)
    if alpha == 0:
        return np.eye(dim, block, dtype=complex)
    x = abs(alpha) ** 2
    out = np.empty((dim, block), dtype=complex)
    offs = np.arange(dim)
    lg = ufuncs().gammaln(np.arange(dim) + 1.0)
    unit = alpha / abs(alpha)
    phase_up = unit ** offs
    phase_dn = (-np.conj(unit)) ** offs
    lk_m1 = np.zeros(dim)
    lk = np.ones(dim)
    logscale = np.zeros(dim)
    d_log_a = offs * math.log(abs(alpha))
    for n in range(block):
        width = dim - n  # offsets still inside the matrix
        if n > 0:
            d = offs[:width]
            lk_m1, lk = lk[:width], ((2 * n - 1 + d - x) * lk[:width]
                                     - (n - 1 + d) * lk_m1[:width]) / n
            big = np.abs(lk) > _RESCALE
            if big.any():
                lk[big] /= _RESCALE
                lk_m1[big] /= _RESCALE
                logscale[:width][big] += math.log(_RESCALE)
        logpref = 0.5 * (lg[n] - lg[n:]) + d_log_a[:width] - 0.5 * x
        mag = np.exp(logpref + logscale[:width]) * lk
        out[n:, n] = mag * phase_up[:width]
        out[n, n:] = mag[:block - n] * phase_dn[:block - n]
    return out


def coherent_fock(alpha, dim: int) -> Iterator[np.ndarray]:
    """Yield the coherent amplitudes c_n(alpha) = e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    for n = 0..dim-1, each shaped like alpha (a complex scalar or array).

    c_n = c_{n-1} alpha / sqrt(n) runs on the power alpha^n / sqrt(n!), divided
    by _RESCALE whenever it exceeds it, times a scale factor whose log starts
    at -|alpha|^2 / 2; neither the seed nor the power under- or overflows.
    ValueError unless every |alpha| is below _ALPHA_MAX (about 1.8e58).
    """
    shape = np.shape(alpha)
    alpha = np.array(alpha, dtype=complex, ndmin=1)
    if not np.all(np.abs(alpha) < _ALPHA_MAX):
        raise ValueError(f"coherent amplitudes need |alpha| < {_ALPHA_MAX:.2g}")
    power = np.ones_like(alpha)
    logscale = -0.5 * np.abs(alpha) ** 2
    scale = np.exp(logscale)
    # |alpha^n / sqrt(n!)| <= e^{|alpha|^2/2}: the power passes _RESCALE only past
    # this bound, whose margin of 1 covers rounding
    may_pass = -logscale.min(initial=0.0) >= math.log(_RESCALE) - 1.0
    for n in range(dim):
        if n:
            power *= alpha / math.sqrt(n)
        if n and may_pass:
            big = np.abs(power) > _RESCALE
            if big.any():
                power[big] /= _RESCALE
                logscale[big] += math.log(_RESCALE)
                scale[big] = np.exp(logscale[big])
        yield (power * scale).reshape(shape)
