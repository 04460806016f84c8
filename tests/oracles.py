"""Independent oracles for the test suite.

These deliberately avoid the library's computation paths: Bessel values come
from the ascending power series or from mpmath at 40 digits (the
implementation runs Miller's backward recurrence in double precision),
displacement matrix elements and log-factorials from the
associated-Laguerre closed form and loggamma in mpmath (the implementation
runs the Laguerre recurrence in double precision, vectorized over offsets,
on math.lgamma), the lattice one-kick map is evaluated in gather form
directly off the recurrence definition, on a dict of coefficients (the
implementation convolves the columns of a dense array), kicks come
from a dense complex eigensolve of the full rotated quadrature (the
implementation builds parity blocks from one real tridiagonal eigensolve and
turns axes by similarity), propagation applies the dense D x D Floquet
matrix, quasienergy spectra come from a general complex eigensolve of it
(the implementation uses a real symmetric Cayley transform per parity block),
coherent amplitudes come from the closed form in mpmath at 40 digits (the
implementation runs a rescaled recurrence in double precision), the
symmetry commutators multiply the dense F^q, zeros across parity included
(the implementation multiplies each parity block by its rows or columns of
the displacement), and interior comparisons slice the dense matrices
assembled from parity blocks (the implementation slices each block).  The
band-gap statistic of acceptance criterion 9 and the commutation phase of
two kick displacements live here too, as only tests use them, and so does
a dict view of a lattice state, {(m, n): M_{m,n}}, for tests that read or
build coefficients one by one.  The distinct z_n values come from comparing
each |sin(2 pi j/q)|, j = 0..q-1, with every value already kept (the
implementation takes the j that give each value once).
"""

import math

import mpmath
import numpy as np

from kho import fock, specfun
from kho.lattice import XI_Q, LatticeState


def bessel_series(n: int, x: float) -> float:
    """J_n(x) by the ascending power series, summed to machine convergence.

    sum_s (-1)^s (x/2)^{n+2s} / (s! (n+s)!); adequate for |n| <= ~80 and
    |x| <= ~15, which covers every argument the tests use.
    """
    if n < 0:
        return (-1.0) ** n * bessel_series(-n, x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = 0.5 * x
    term = math.exp(n * math.log(abs(half)) - math.lgamma(n + 1.0))
    if half < 0 and n % 2:
        term = -term
    total = term
    s = 0
    while True:
        s += 1
        term *= -(half * half) / (s * (n + s))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-30) or s > 400:
            return total


def graf_sum_series(n: int, zeta: float, alpha: float, k_max: int) -> complex:
    """Brute-force Graf sum with series-oracle Bessel factors."""
    total = 0.0 + 0.0j
    for k in range(-k_max, k_max + 1):
        total += (bessel_series(n + k, zeta) * bessel_series(k, zeta)
                  * complex(math.cos(k * alpha), math.sin(k * alpha)))
    return total


def coeff_dict(state: LatticeState) -> dict:
    """{(m, n): M_{m,n}} over the nonzero coefficients, read off the array
    entry by entry."""
    return {(state.origin[0] + a, state.origin[1] + b): complex(state.coeffs[a, b])
            for a in range(state.coeffs.shape[0]) for b in range(state.coeffs.shape[1])
            if state.coeffs[a, b] != 0}


def dict_state(params, coeffs: dict, alpha: complex = 0.0) -> LatticeState:
    """The lattice state with the coefficients {(m, n): M_{m,n}}, placed on
    their bounding box (the origin box when there are none)."""
    ms = [m for m, _ in coeffs] or [0]
    ns = [n for _, n in coeffs] or [0]
    arr = np.zeros((max(ms) - min(ms) + 1, max(ns) - min(ns) + 1), dtype=complex)
    for (m, n), v in coeffs.items():
        arr[m - min(ms), n - min(ns)] = v
    return LatticeState(alpha=alpha, j=0, params=params, coeffs=arr, origin=(min(ms), min(ns)))


def gather_step(state: LatticeState, span: int) -> dict:
    """One kick of the coefficient map evaluated in gather form:

        M'[m,n] = sum_k i^k J_k(zeta) M[m*xi_q + n - k, -m]
                  e^{-i k m eta^2 sin(2 pi/q)}

    over the full target box |m|, |n| <= span.
    """
    params = state.params
    xi = XI_Q[params.q]
    kc = specfun.k_cutoff(params.zeta)
    w = params.eta_sq * math.sin(2.0 * math.pi / params.q)
    coeffs = coeff_dict(state)
    out = {}
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            total = 0.0 + 0.0j
            for k in range(-kc, kc + 1):
                src = coeffs.get((m * xi + n - k, -m))
                if src is None:
                    continue
                phase = complex(math.cos(k * m * w), -math.sin(k * m * w))
                total += (1j) ** k * specfun.bessel_j(k, params.zeta) * src * phase
            if total != 0:
                out[(m, n)] = total
    return out


def kick_ground_element(zeta: float, eta_sq: float) -> complex:
    """<0|U_kick|0> from the displacement expansion:
    sum_k i^k J_k(zeta) e^{-k^2 eta^2 / 2}, with series-oracle Bessels."""
    total = 0.0 + 0.0j
    k = 0
    while True:
        jk = bessel_series(k, zeta)
        term = (1j) ** k * jk * math.exp(-k * k * eta_sq / 2.0)
        if k == 0:
            total += term
        else:
            # +k and -k terms: i^{-k} J_{-k} = i^k J_k
            total += 2.0 * term
        if abs(jk) < 1e-18 and k > 3:
            return total
        k += 1


def kick_dense(params, dim: int, strength: int = 1, theta: float = 0.0) -> np.ndarray:
    """exp(i zeta strength cos[eta (a e^{-i theta} + a^dag e^{i theta})]) from
    np.linalg.eigh of the full complex Hermitian quadrature."""
    off = params.eta * np.sqrt(np.arange(1, dim))
    gen = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    gen[idx, idx + 1] = off * np.exp(-1j * theta)
    gen[idx + 1, idx] = off * np.exp(1j * theta)
    x, vecs = np.linalg.eigh(gen)
    phases = np.exp(1j * params.zeta * strength * np.cos(x))
    return (vecs * phases) @ vecs.conj().T


def floquet_dense(params, dim: int) -> np.ndarray:
    """F = diag(e^{-i(n+1/2) tau}) K as one dense D x D matrix."""
    free = np.exp(-1j * (np.arange(dim) + 0.5) * params.tau)
    return free[:, None] * kick_dense(params, dim)


def evolve_dense(amps: np.ndarray, params, n_kicks: int, leak_tol: float = 1e-8):
    """(final amplitudes, mean energies before kick 0..n_kicks, first kick
    whose top-tenth population exceeds leak_tol or None), by full mat-vecs."""
    f = floquet_dense(params, amps.shape[0])
    weights = np.arange(amps.shape[0]) + 0.5
    tail = amps.shape[0] - amps.shape[0] // 10
    psi = amps.copy()
    energies = [float(np.sum(np.abs(psi) ** 2 * weights))]
    first_unsafe = None
    for k in range(1, n_kicks + 1):
        psi = f @ psi
        energies.append(float(np.sum(np.abs(psi) ** 2 * weights)))
        if first_unsafe is None and float(np.sum(np.abs(psi[tail:]) ** 2)) > leak_tol:
            first_unsafe = k
    return psi, np.array(energies), first_unsafe


def quasienergy_eig(params, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases of the dense Floquet matrix F in (-pi, pi] with ground
    overlaps |<0|v>|^2, from np.linalg.eig on F, sorted by phase."""
    lam, vecs = np.linalg.eig(floquet_dense(params, dim))
    phis = np.angle(lam)
    phis[phis == -math.pi] = math.pi
    order = np.argsort(phis)
    return phis[order], np.abs(vecs[0, order]) ** 2


def coherent_mp(alpha: complex, n: int) -> complex:
    """c_n(alpha) = e^{-|alpha|^2/2} alpha^n / sqrt(n!) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        return complex(mpmath.exp(-abs(a) ** 2 / 2) * a ** n / mpmath.sqrt(mpmath.factorial(n)))


def bessel_mp(n: int, x: float) -> float:
    """J_n(x) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return float(mpmath.besselj(n, x))


def log_factorial_mp(n: int) -> mpmath.mpf:
    """log n! in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return mpmath.loggamma(n + 1)


def displacement_mp(m: int, n: int, alpha: complex) -> complex:
    """<m|D(alpha)|n> in 40-digit arithmetic: for m >= n,
    sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2), and
    sqrt(m!/n!) (-alpha^*)^{n-m} e^{-|alpha|^2/2} L_m^{(n-m)}(|alpha|^2) otherwise."""
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        low, d, w = (n, m - n, a) if m >= n else (m, n - m, -mpmath.conj(a))
        x = abs(a) ** 2
        return complex(mpmath.sqrt(mpmath.factorial(low) / mpmath.factorial(low + d)) * w ** d
                       * mpmath.exp(-x / 2) * mpmath.laguerre(low, d, x))


def assemble(blocks) -> np.ndarray:
    """Dense matrix from its (even, odd) parity blocks, 0 across parity."""
    even, odd = blocks
    dim = even.shape[0] + odd.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    out[0::2, 0::2] = even
    out[1::2, 1::2] = odd
    return out


def interior_max_dense(mat: np.ndarray, block: int) -> float:
    """Max-norm over the leading block x block submatrix."""
    return float(np.abs(mat[:block, :block]).max())


def phase_align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotate a by the global phase that matches b at b's largest element."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ratio = b[idx] / a[idx]
    return a * (ratio / abs(ratio))


def mismatch_up_to_phase_dense(a: np.ndarray, b: np.ndarray, block: int) -> float:
    """Interior max-norm of (a - b) after aligning global phases."""
    return interior_max_dense(b - phase_align(a, b), block)


def commutator_norm_dense(params, dim: int, *gens: complex) -> float:
    """Worst interior max-norm of [F^q, D(gen)] over gens, from the dense
    F^q and the full D(gen): max |fq[:b] D[:, :b] - D[:b] fq[:, :b]| with b
    the interior block, its rows of D read as built, not from its columns."""
    b = fock.interior_block(dim)
    fq = assemble(fock.floquet_power(params, dim, params.q))
    worst = 0.0
    for gen in gens:
        dg = specfun.displacement_matrix(gen, dim)
        worst = max(worst, float(np.abs(fq[:b] @ dg[:, :b] - dg[:b] @ fq[:, :b]).max()))
    return worst


def band_max_gap(result) -> float:
    """Largest eigenphase gap inside the uppermost free-evolution band of a
    fock.SpectrumResult.

    Bands sit near the kappa = 0 phases -(n+1/2)*tau mod 2pi; states are
    assigned to the nearest band center within a quarter band spacing.
    """
    params = result.params
    center = np.angle(np.exp(-1j * (np.arange(params.q) + 0.5) * params.tau)).max()
    dist = np.abs(np.angle(np.exp(1j * (result.phi - center))))
    sel = result.phi[dist < params.tau / 4.0]
    if sel.size < 2:
        raise ValueError("fewer than two eigenphases in the uppermost band")
    return float(np.max(np.diff(sel)))


def commutation_phase(eta_sq: float, q: int, r: int, k_m: int, k_n: int, dj: int) -> complex:
    """Phase e^{alpha beta* - alpha* beta} between two kick displacements
    separated by dj axes; equals 1 exactly when they commute."""
    if not 0 <= dj <= q - 1:
        raise ValueError("dj must lie in 0..q-1")
    arg = 2.0 * eta_sq * k_m * k_n * math.sin(2.0 * math.pi * r * dj / q)
    return complex(math.cos(arg), -math.sin(arg))


def z_values_search(q: int) -> list[float]:
    """Distinct nonzero |sin(2 pi j/q)|, j = 0..q-1, each kept at the first j
    to give it, up to 1e-12."""
    vals: list[float] = []
    for j in range(q):
        z = abs(math.sin(2.0 * math.pi * j / q))
        if z > 1e-12 and not any(abs(z - v) < 1e-12 for v in vals):
            vals.append(z)
    return sorted(vals)
