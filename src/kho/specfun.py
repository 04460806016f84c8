"""Special-function kernel: integer-order Bessel functions, Graf-geometry
helpers, displacement-operator matrix elements and coherent-state amplitudes.

Everything here is a pure function of its arguments.  A Bessel table holds
J_n(x) for n = 0..top, from Miller's backward recurrence
J_{n-1} = (2n/|x|) J_n - J_{n+1} started at J_top = 1, J_{top+1} = 0,
normalized by J_0 + 2 sum_k J_2k = 1, with J_n(-x) = (-1)^n J_n(|x|).  top
depends on x alone (|J_n(x)| falls below 1e-304 past it), so a table is
cached by x alone, orders past top read 0, and no value depends on how many
orders a caller asks for.  bessel_range reads it, negative orders by
J_{-n} = (-1)^n J_n; bessel_j is its one-order case, and k_cutoff reads a
whole table for its last order at or above a tolerance.  The cost grows with
|x|: 113 orders and ~75 us at |x| = 0.18, 253 and ~135 us at 12 (2-core
Xeon host); only verify builds tables, at |x| below about 9.
Displacement matrix elements use the associated-Laguerre closed form with
factorial ratios carried in log space (math.lgamma), so they remain finite
at orders of a few thousand.  Coherent amplitudes c_n(alpha) come from one
recurrence over n, vectorized over an array of alpha and yielded one order
at a time; it carries e^{-|alpha|^2/2} as a log scale, so nothing
underflows where the basis still holds the state.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

_LOG_TINY = math.log(1e-304)  # Bessel tables stop where |J_n(x)| falls below it
_X_MAX = 1e4  # largest |x| of a Bessel table: about 14k orders
_RESCALE = 1e250
_ALPHA_MAX = np.finfo(float).max / _RESCALE  # |power * alpha| stays finite below it


@lru_cache(maxsize=512)
def _cached_table(x: float) -> np.ndarray:
    """J_n(x) for n = 0..top by Miller's recurrence (see the module
    docstring).  top is the last n where the bound (|x|/2)^n / n! on |J_n|,
    falling from its peak at n = |x|/2, reaches 1e-304; by Stirling it is
    below n = e|x|/2 + 705.  The running value is rescaled by a power of 2,
    exactly, before the next factor 2n/|x| could overflow it.  ValueError
    unless |x| <= _X_MAX."""
    if not abs(x) <= _X_MAX:
        raise ValueError(f"Bessel argument must be finite with |x| <= {_X_MAX:g}, got {x}")
    ax = abs(x)
    ns = np.arange(1, int(np.e * ax / 2) + 706)
    log_bound = np.cumsum((math.log(ax / 2) if ax else -math.inf) - np.log(ns))
    top = int(np.count_nonzero(log_bound >= _LOG_TINY))  # rises to n = |x|/2, then falls
    big = 1e300 * ax / (2 * top + 2)
    vals = [0.0] * (top + 1)
    vals[top] = f = 1.0
    f_next = 0.0
    for n in range(top, 0, -1):
        f_next, f = f, 2.0 * n / ax * f - f_next
        if not -big <= f <= big:
            f, e = math.frexp(f)
            f_next = math.ldexp(f_next, -e)
            vals[n:] = [math.ldexp(v, -e) for v in vals[n:]]
        vals[n - 1] = f
    out = np.array(vals)
    out /= math.fsum([out[0], *(2.0 * out[2::2]).tolist()])
    if x < 0:
        out[1::2] *= -1.0
    out.flags.writeable = False
    return out


def bessel_j(n: int, x: float) -> float:
    """Integer-order cylindrical Bessel function J_n(x)."""
    n = int(n)
    return float(bessel_range(x, n, n)[0])


@lru_cache(maxsize=512)
def k_cutoff(zeta: float, tol: float = 1e-14) -> int:
    """Smallest k with |J_j(zeta)| < tol for every j >= k, read off zeta's
    whole Bessel table; truncation bound for all k-sums."""
    table = np.abs(_cached_table(float(zeta)))
    return int(np.nonzero(table >= tol)[0][-1]) + 1


def bessel_range(zeta: float, k_lo: int, k_hi: int) -> np.ndarray:
    """J_k(zeta) for k = k_lo..k_hi inclusive (negative orders via parity)."""
    table = _cached_table(float(zeta))
    ks = np.arange(k_lo, k_hi + 1)
    vals = np.append(table, 0.0)[np.minimum(np.abs(ks), table.size)]
    odd_neg = (ks < 0) & (ks % 2 != 0)
    vals[odd_neg] *= -1.0
    return vals


def graf_geometry(zeta: float, alpha: float) -> tuple[float, float]:
    """(zeta', chi) from the triangle construction behind Graf's theorem for
    two equal Bessel arguments zeta and relative angle alpha in [0, pi].

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
    return zeta_prime, chi


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


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n = 0..dim-1."""
    return np.array([math.lgamma(n + 1) for n in range(dim)])


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
    lg = _log_factorials(dim)
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
