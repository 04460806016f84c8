"""Truncated-Fock-basis realization of the kicked harmonic oscillator:
Floquet operator construction, state propagation, quasienergy spectra, and
phase-space observables.

Parity.  cos(eta x) is even, so neither the kick nor the free factor couples
even and odd number states: the kick and F are block diagonal.  Every
operator here is the tuple of its even block (rows and columns 0, 2, 4,
...) and odd block (1, 3, 5, ...), and `interior_max` and
`mismatch_up_to_phase` compare such tuples: no D x D matrix of them is
assembled.  Propagation applies each block to its own
parity sector and neither builds nor applies the block of a sector without
amplitude, which stays exactly empty: a ground state only ever meets the
even block.  `evolve`, `evolve_at` and `kicks_to_energy` share one kick loop
and return one record, EvolveResult: the final state, the energy trace and
the truncation flag.  `evolve_at` takes several kick counts from one
propagation, so the N = 36 and N = 108 Husimi panels of one eta^2 build F
once and run 108 kicks, not 144; each result is bitwise that of `evolve`.
Likewise `q_functions` samples several states on one grid from a single
walk of the coherent-amplitude recurrence.

Each kick is built from one diagonalization of the real tridiagonal
quadrature operator eta (a + a^dag) and exponentiated on its spectrum, so it
is exactly unitary regardless of truncation.  The kick along the axis
rotated by theta is the diagonal-phase similarity
K(theta)[m, n] = e^{i theta (m - n)} K(0)[m, n], so `kick_axis_product` builds
its kick blocks once and turns them to each of its q axes; with kick strength
v it is also the amplified kick, equal to F^{q v} at resonance.  `_quadrature`
is the one place the quadrature is diagonalized.  Inside a `shared_quadratures()`
block each (eta, D) is diagonalized once and its spectrum reused, bitwise, by
every later operator build of the block; `verify.run` enters one for each
eta^2 of its checks, so it holds one eta^2's spectra at a time.  Outside
such a block nothing is kept between calls, so a scan holds no
eigenvectors of points it has finished, and `kick_blocks` drops V once it
has copied the parity rows it reads, before its GEMMs: a one-parity build
peaks at the eigensolve's own 16 D^2 bytes.

Quasienergy spectra use the structure of F = P K, with P the diagonal free
factor and K = V diag(e^{i zeta cos x}) V^T complex symmetric (V real
orthogonal).  F is similar, through P^{1/2}, to the complex-symmetric unitary
S = P^{1/2} K P^{1/2}.  The real and imaginary parts C, D of
G = e^{i delta} S commute and satisfy C^2 + D^2 = I, so S has real
orthonormal eigenvectors O, which are those of the real symmetric Cayley
transform (I + C)^{-1} D (eigenvalues tan(theta/2) for G's e^{i theta}).
`quasienergy_spectrum` finds O for each parity block of S by Cholesky on
I + C and a real `eigh`; the ground overlaps are O[0, k]^2 in the even
block and exactly 0 in the odd one, and the phases are the Rayleigh
quotients O^T S O.  A SpectrumResult holds them as two arrays, `phi` in
ascending order and `ground_overlap` in the same order.

Interior-block comparisons between operator identities use a light-cone
block: only states whose phase-space radius sits more than a fixed buffer
inside the truncation edge sqrt(D) are compared, since edge effects
propagate inward by roughly the total displacement reach of the operators
involved.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, specfun
from .model import NonresonantError, ResonanceKind, SystemParams, classify

DEFAULT_LEAK_TOL = 1e-8
DEFAULT_EDGE_BUFFER = 8.0  # phase-space radius units, see interior_block
EIGEN_RESIDUAL_TOL = 1e-10  # max ||S o_k - mu_k o_k|| accepted by quasienergy_spectrum
_CAYLEY_SHIFTS = 3  # Cayley shifts quasienergy_spectrum tries before it raises
_DOUBLING_START = 256  # first basis size doubling_rule tries
_DOUBLING_MAX_DIM = 2048  # largest basis size doubling_rule tries


@dataclass
class FockVector:
    """Complex amplitudes over number states |0..D-1>."""

    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass
class EvolveResult:
    """Outcome of a propagation by `evolve` or `kicks_to_energy`."""

    state: FockVector
    energies: np.ndarray  # mean energy before kick 0, 1, ..., up to the last kick applied
    first_unsafe_kick: int | None  # first kick whose leak exceeds DEFAULT_LEAK_TOL

    @property
    def truncation_unsafe(self) -> bool:
        return self.first_unsafe_kick is not None


@dataclass
class QGrid:
    """Sampled Husimi distribution over a rectangular phase-space window:
    values[i_im, i_re] is Q at the i_re-th of n_re real parts spaced evenly
    from re_min to re_max, and the i_im-th of n_im imaginary parts."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    values: np.ndarray

    def riemann_sum(self) -> float:
        n_im, n_re = self.values.shape
        dre = (self.re_max - self.re_min) / (n_re - 1)
        dim_ = (self.im_max - self.im_min) / (n_im - 1)
        return float(np.sum(self.values) * dre * dim_)


@dataclass
class SpectrumResult:
    """Eigenphases of F in ascending order, with the ground overlap of each."""

    phi: np.ndarray  # eigenphases in (-pi, pi]
    ground_overlap: np.ndarray  # |<eigvec|0>|^2, same order
    params: SystemParams
    max_unit_defect: float  # max ||mu_k| - 1| over the Rayleigh quotients
    max_residual: float  # max ||S o_k - mu_k o_k||
    n_discarded: int = 0  # always 0: every eigenphase of the unitary F is kept


def ground_state(dim: int) -> FockVector:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(amps)


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Fock expansion of |alpha>, renormalized over the truncated basis.
    ValueError if every amplitude in the basis underflows to 0."""
    amps = np.array(list(specfun.coherent_fock(alpha, dim)))
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError(f"the first {dim} number states hold none of the coherent "
                         f"state at alpha={alpha}")
    return FockVector(amps / norm)


def fidelity(a: FockVector, b: FockVector) -> float:
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# operator construction


# (eta, dim) -> (x, V) inside a shared_quadratures() block, None outside one
_SHARED_QUADRATURES: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "kho_shared_quadratures", default=None)


@contextlib.contextmanager
def shared_quadratures():
    """Within the block, diagonalize each (eta, D) quadrature once: later
    operator builds reuse its spectrum, bitwise, and the block's end drops
    it.  A block opened inside another starts afresh.  Every spectrum met
    in a block stays alive until its end, so a caller that meets several
    eta opens one block per eta, as `verify.run` does."""
    token = _SHARED_QUADRATURES.set({})
    try:
        yield
    finally:
        _SHARED_QUADRATURES.reset(token)


def _quadrature(eta: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, V): eigenvalues and orthonormal eigenvectors (columns) of the real
    tridiagonal eta (a + a^dag) over the first dim number states.  Callers
    must not write into them: inside shared_quadratures() they are shared."""
    shared = _SHARED_QUADRATURES.get()
    if shared is not None and (eta, dim) in shared:
        return shared[eta, dim]
    spectrum = _lapack.eigh_tridiagonal(np.zeros(dim), eta * np.sqrt(np.arange(1, dim)))
    if shared is not None:
        shared[eta, dim] = spectrum
    return spectrum


def kick_blocks(params: SystemParams, dim: int, strength: int = 1,
                parities: tuple[int, ...] = (0, 1)) -> tuple[np.ndarray, ...]:
    """Parity blocks of exp(i*zeta*strength*cos[eta*(a + a^dag)]), one for
    each of `parities` (0 even, 1 odd): (even, odd) by default.

    With x, V the spectrum of the quadrature, block s is
    (V[s::2] e^{i zeta strength cos x}) V[s::2]^T: one real GEMM each for its
    real and imaginary parts, on a contiguous copy of the rows.  The copies
    are taken before the GEMMs and V is dropped, so outside a
    shared_quadratures() block it is freed before the first GEMM, and each
    copy is freed once its block is built.
    """
    x, vecs = _quadrature(params.eta, dim)
    phases = np.exp(1j * params.zeta * strength * np.cos(x))
    parts = [np.ascontiguousarray(vecs[s::2]) for s in parities]
    del vecs
    blocks = []
    while parts:
        rows = parts.pop(0)
        block = np.empty((rows.shape[0], rows.shape[0]), dtype=complex)
        block.real = (rows * phases.real) @ rows.T
        block.imag = (rows * phases.imag) @ rows.T
        blocks.append(block)
    return tuple(blocks)


def _axis_turn(theta: float, n: np.ndarray) -> np.ndarray:
    """e^{i theta (m - n)} over the rows m and columns n of the given states."""
    turn = np.exp(1j * theta * n)
    return np.outer(turn, turn.conj())


def _free_phases(params: SystemParams, dim: int) -> np.ndarray:
    return np.exp(-1j * (np.arange(dim) + 0.5) * params.tau)


def floquet(params: SystemParams, dim: int,
            parities: tuple[int, ...] = (0, 1)) -> tuple[np.ndarray, ...]:
    """One-kick Floquet operator F = U_free * U_kick as its parity blocks,
    one for each of `parities`: the rows of each kick block scaled by the
    free phases e^{-i(n+1/2) tau} of its parity."""
    free = _free_phases(params, dim)
    blocks = kick_blocks(params, dim, parities=parities)
    for s, block in zip(parities, blocks):
        block *= free[s::2, None]
    return blocks


def floquet_power(params: SystemParams, dim: int, p: int) -> tuple[np.ndarray, ...]:
    """Parity blocks of F^p.  Each block f is powered over the bits of p
    after the leading one: square, then multiply by f from the left where
    the bit is set.  Only f, one partial product and the next are alive,
    and each block of F is dropped once its power is formed."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    blocks, powers = list(floquet(params, dim)), []
    while blocks:
        f = out = blocks.pop(0)
        for bit in f"{p:b}"[1:]:
            out = out @ out
            if bit == "1":
                out = f @ out
        powers.append(out if p else np.eye(len(f), dtype=complex))
    return tuple(powers)


def kick_axis_product(params: SystemParams, dim: int, v: int = 1) -> tuple[np.ndarray, ...]:
    """Parity blocks of the q-axis product form of F^q: q cosine kicks
    along axes rotated by 2*pi*j*r/q, with kick strength amplified by v.

    Includes the global phase (-1)^{r v} from the free evolution over full
    oscillator periods, which makes the v = 1 case equal F^q exactly, at
    every eta^2.  For v > 1 it is the single q-fold diffraction of strength
    kappa*v, equal up to global phase to F^{q v} when eta^2 is an integer
    multiple of the principal resonance; ValueError for v < 1, and
    NonresonantError for v > 1 at any other eta^2.  The kick blocks are
    built once; each rotated factor is their similarity.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    if v > 1:
        res = classify(params.eta_sq, params.q)
        if res.kind is not ResonanceKind.RESONANT or res.b != 1:
            raise NonresonantError(
                f"eta_sq={params.eta_sq} is not an integer multiple of the principal "
                f"resonance for q={params.q}; the amplified-kick identity needs one")
    q, r = params.q, params.r
    blocks = []
    for s, kick in enumerate(kick_blocks(params, dim, strength=v)):
        n = np.arange(s, dim, 2)
        out = np.eye(n.size, dtype=complex) * (-1.0) ** (r * v)
        for j in range(q - 1, -1, -1):
            out = out @ (kick * _axis_turn(j * params.tau, n))
        blocks.append(out)
    return tuple(blocks)


def kick_expansion_matrix(params: SystemParams, dim: int) -> np.ndarray:
    """Kick factor assembled from its displacement-operator expansion,
    sum_k i^k J_k(zeta) D(i k eta), with exact matrix elements.

    Independent verification route for kick_blocks, dense as it is not
    exactly 0 across parity; the k-sum truncates at k_cutoff(zeta).
    """
    kc = specfun.k_cutoff(params.zeta)
    out = np.zeros((dim, dim), dtype=complex)
    for k, jk in zip(range(-kc, kc + 1), specfun.bessel_range(params.zeta, -kc, kc).tolist()):
        out += (1j) ** k * jk * specfun.displacement_matrix(1j * k * params.eta, dim)
    return out


# ---------------------------------------------------------------------------
# interior-block comparison helpers


def interior_block(dim: int) -> int:
    """Dimension of the truncation-safe block: states with phase-space
    radius sqrt(n) at least DEFAULT_EDGE_BUFFER inside the edge radius
    sqrt(dim)."""
    root = math.sqrt(dim) - DEFAULT_EDGE_BUFFER
    if root <= 1.0:
        raise ValueError(f"dim={dim} too small for edge buffer {DEFAULT_EDGE_BUFFER}")
    return int(root * root)


def _interior(s: int, block: int) -> int:
    """The states of parity s below block: the interior of parity block s."""
    return (block + 1 - s) // 2


def interior_max(blocks, block: int) -> float:
    """Max-norm over the leading block x block submatrix of the operator
    with these parity blocks."""
    maxima = [np.abs(mat[:_interior(s, block), :_interior(s, block)]).max(initial=0.0)
              for s, mat in enumerate(blocks)]
    return float(np.max(maxima))  # not max(): a NaN must carry through


def mismatch_up_to_phase(a, b, block: int) -> float:
    """Interior max-norm of b - a e^{i phi}, for parity blocks a and b, with
    phi the phase that matches a to b at b's largest entry (the first in
    the even block, then the odd one, on a tie)."""
    mags = [np.abs(mat) for mat in b]
    s = int(np.argmax([mag.max(initial=0.0) for mag in mags]))
    idx = np.unravel_index(np.argmax(mags[s]), mags[s].shape)
    ratio = b[s][idx] / a[s][idx]
    turn = ratio / abs(ratio)
    return interior_max([mat_b - mat_a * turn for mat_a, mat_b in zip(a, b)], block)


def symmetry_commutator_norm(params: SystemParams, dim: int, *gens: complex) -> float:
    """Worst interior max-norm of [F^q, D(gen)] over symmetry-set generators.

    F^q is built once for all of them, as its parity blocks, and only the
    interior b x b block of each commutator is formed, by (s, t) sub-block:
    its rows of parity s and columns of parity t, i_s x i_t states.  F^q
    couples only states of one parity, so that sub-block is

        F_s[:i_s] D[parity s, parity t < b] - D[parity s < b, parity t] F_t[:, :i_t],

    half the products of the dense F^q, which is never assembled.  Of D(gen)
    only the strip of columns < b is built: its rows < b follow from
    <m|D|n> = (-1)^(m+n) conj <n|D|m>, one sign (-1)^(s+t) per sub-block.
    A generator that conjugates the one before it, or is 1j times it, reuses
    its D in place: D(conj g) = conj D(g) in the real Fock matrices of a and
    a^dag, and <m|D(1j g)|n> = i^m <m|D(g)|n> i^-n, a quarter turn of phase
    space (exact, as each factor only swaps or negates parts).
    """
    gens = [g for g in gens if g != 0]
    if not gens:
        return 0.0
    b = interior_block(dim)
    fq = floquet_power(params, dim, params.q)
    worst = 0.0
    dg = prev = None
    for gen in gens:
        if prev is not None and gen == prev.conjugate():
            np.conjugate(dg, out=dg)
        elif prev is not None and gen == 1j * prev:
            for k, unit in ((1, 1j), (2, -1), (3, -1j)):
                dg[k::4] *= unit
                dg[:, k::4] *= unit.conjugate()
        else:
            dg = None  # else it stays alive while this generator's is built
            dg = specfun.displacement_matrix(gen, dim, block=b)  # columns < b only
        prev = gen
        for s, fs in enumerate(fq):
            for t, ft in enumerate(fq):
                sub = fs[:_interior(s, b)] @ dg[s::2, t::2]
                sub -= (-1) ** (s + t) * (dg[t::2, s::2].conj().T @ ft[:, :_interior(t, b)])
                worst = max(worst, float(np.abs(sub).max()))
    return worst


# ---------------------------------------------------------------------------
# propagation and observables


def _propagate(params: SystemParams, amps: np.ndarray, stops,
               e_target: float = math.inf) -> list[EvolveResult]:
    """The kick loop of `evolve`, `evolve_at` and `kicks_to_energy`: apply F
    up to max(stops) times, stopping after the first kick whose mean energy
    reaches e_target.  Returns one EvolveResult for each kick count in stops
    that the loop reaches, in ascending order, and one for the kick that
    stopped it, if any; each holds the energies of its own kicks, and the
    first unsafe kick among them.

    Each parity sector is propagated by its own block of F; a sector with no
    amplitude stays exactly empty, and its block is neither built nor
    applied.  The leak is the weight on the top tenth of the basis, and on
    its top two states at least, so that below D = 20 the tail still holds
    one state of each parity; the first kick whose leak exceeds
    DEFAULT_LEAK_TOL is the first unsafe kick.
    """
    dim = amps.shape[0]
    tail = dim - max(dim // 10, 2)
    parities = tuple(s for s in (0, 1) if amps[s::2].any())
    sectors, psis = [], []  # (parity, block, weights, first tail float), amplitudes
    for s, block in zip(parities, floquet(params, dim, parities)):
        # one weight n + 1/2 per float of the (re, im) view of the amplitudes
        weights = np.repeat(np.arange(s, dim, 2) + 0.5, 2)
        sectors.append((s, block, weights, 2 * ((tail - s + 1) // 2)))
        psis.append(amps[s::2].astype(complex))
    stops = set(stops)
    energies = np.empty(max(stops) + 1)
    first_unsafe = None
    results = []
    for k in range(energies.size):
        energy = leak = 0.0
        for i, (_, block, weights, edge) in enumerate(sectors):
            if k:
                psis[i] = block @ psis[i]
            x = psis[i].view(np.float64)  # |psi_n|^2 = x_2n^2 + x_2n+1^2
            energy += (x * weights) @ x
            if first_unsafe is None:
                leak += x[edge:] @ x[edge:]
        energies[k] = energy
        if k and first_unsafe is None and leak > DEFAULT_LEAK_TOL:
            first_unsafe = k
        reached = energy >= e_target
        if reached or k in stops:
            out = np.zeros(dim, dtype=complex)
            for (s, *_), psi in zip(sectors, psis):
                out[s::2] = psi
            results.append(EvolveResult(state=FockVector(out), energies=energies[:k + 1].copy(),
                                        first_unsafe_kick=first_unsafe))
        if reached:
            break
    return results


def evolve(state: FockVector, params: SystemParams, n_kicks: int) -> EvolveResult:
    """Apply F n_kicks times, recording the mean energy at every kick.

    A truncation leak beyond DEFAULT_LEAK_TOL flags the run unsafe; evolution
    continues and the flagged result is returned.
    """
    return _propagate(params, state.amps, (n_kicks,))[0]


def evolve_at(state: FockVector, params: SystemParams, kick_counts) -> list[EvolveResult]:
    """`evolve` for each of kick_counts, from one propagation to the largest:
    each result is bitwise the one `evolve` returns for its count."""
    counts = sorted(set(kick_counts))
    results = dict(zip(counts, _propagate(params, state.amps, counts)))
    return [results[n] for n in kick_counts]


def kicks_to_energy(params: SystemParams, e_target: float, n_max: int,
                    dim: int) -> EvolveResult:
    """Evolve the ground state until its mean energy reaches e_target (units
    hbar*omega), or for n_max kicks if it never does: the last of the
    energies is the first to reach e_target, if any does."""
    return _propagate(params, ground_state(dim).amps, (n_max,), e_target)[0]


def energy_crossings(energies: np.ndarray, targets: list[float]) -> list[int | None]:
    """First kick index at which each target energy is reached."""
    out = []
    for t in targets:
        idx = np.nonzero(energies >= t)[0]
        out.append(int(idx[0]) if idx.size else None)
    return out


def q_functions(states, window: tuple[float, float, float, float],
                resolution: tuple[int, int]) -> list[QGrid]:
    """Husimi distributions Q(alpha) = |<psi|alpha>|^2 / pi of several states
    on one grid, one QGrid per state.

    One walk over the orders that specfun.coherent_fock yields for the whole
    grid at once serves every state: each order adds conj(psi_n) c_n(alpha)
    to the overlap of each state whose amplitude there is nonzero, so each
    grid is bitwise the one a walk for its state alone gives.
    """
    re_min, re_max, im_min, im_max = window
    n_re, n_im = resolution
    alpha = np.linspace(re_min, re_max, n_re) + 1j * np.linspace(im_min, im_max, n_im)[:, None]
    dim = max(state.dim for state in states)
    amps = np.zeros((len(states), dim), dtype=complex)  # zero past a smaller basis: skipped
    for row, state in zip(amps, states):
        row[:state.dim] = state.amps.conj()
    overlaps = np.zeros((len(states),) + alpha.shape, dtype=complex)
    for amps_n, c_n in zip(amps.T.tolist(), specfun.coherent_fock(alpha, dim)):
        for amp, overlap in zip(amps_n, overlaps):
            if amp:
                overlap += amp * c_n
    return [QGrid(re_min, re_max, im_min, im_max, np.abs(overlap) ** 2 / np.pi)
            for overlap in overlaps]


def quasienergy_spectrum(params: SystemParams, dim: int) -> SpectrumResult:
    """Eigenphases of F with ground-state overlap weights, by the Cayley
    route of the module docstring on each parity block of S.  The first
    shift puts -1 midway between two free-band centres.  While a block's
    residual max ||S o_k - mu_k o_k|| exceeds EIGEN_RESIDUAL_TOL, or Cholesky
    fails, the next shift puts -1 midway across the widest gap of the phases
    found; LinAlgError once _CAYLEY_SHIFTS shifts have failed.  Odd-block
    states have ground overlap exactly 0."""
    first_shift = params.tau / 2.0 + math.pi + math.pi / params.q
    half = np.exp(0.5j * (first_shift - (np.arange(dim) + 0.5) * params.tau))
    phis, overlaps = [], []
    max_residual = max_defect = 0.0
    for s, gmat in enumerate(kick_blocks(params, dim)):
        if gmat.size == 0:
            continue
        gmat *= np.outer(half[s::2], half[s::2])  # G = e^{i shift} S on this block
        shift = first_shift
        for _ in range(_CAYLEY_SHIFTS):
            try:
                h = _lapack.solve_spd(np.eye(len(gmat)) + gmat.real, gmat.imag)
            except np.linalg.LinAlgError:  # an eigenvalue of G on -1: the gap rule turns G to -G
                mu, residual = np.array([-1.0 + 0j]), math.inf
            else:
                h += h.T  # 2H, exactly symmetric, same eigenvectors
                vecs = _lapack.eigh(h)[1]
                del h  # frees its buffer before the Rayleigh step's peak
                # row k is (G o_k)^T as G is symmetric; one real GEMM on (Re, Im) columns
                g_vecs = (vecs.T @ gmat.view(np.float64)).view(complex)
                mu = np.einsum("kj,jk->k", g_vecs, vecs)
                g_vecs -= mu[:, None] * vecs.T
                residual = float(np.linalg.norm(g_vecs, axis=1).max())
                if residual <= EIGEN_RESIDUAL_TOL:
                    break
            theta = np.sort(np.angle(mu))
            gaps = np.diff(theta, append=theta[0] + 2.0 * math.pi)
            turn = math.pi - float(theta[np.argmax(gaps)] + gaps.max() / 2.0)
            gmat *= np.exp(1j * turn)
            shift += turn
        else:
            raise np.linalg.LinAlgError(
                f"Cayley eigensolve residual {residual:.3e} at dim={dim}, {params}")
        max_residual = max(max_residual, residual)
        max_defect = max(max_defect, float(np.abs(np.abs(mu) - 1.0).max()))
        phis.append(np.angle(mu * np.exp(-1j * shift)))
        overlaps.append(vecs[0] ** 2 if s == 0 else np.zeros(mu.size))
    phis, overlaps = np.concatenate(phis), np.concatenate(overlaps)
    phis[phis == -math.pi] = math.pi  # keep phases in (-pi, pi]
    order = np.argsort(phis, kind="stable")
    return SpectrumResult(phis[order], overlaps[order], params=params,
                          max_unit_defect=max_defect, max_residual=max_residual)


@dataclass
class DoublingResult:
    value: float
    dim: int
    converged: bool


def doubling_rule(observable) -> DoublingResult:
    """Accept the observable at dimension D once recomputing at 2D moves it
    by at most 1e-6 (relative); observable is a callable of D."""
    d = _DOUBLING_START
    val = observable(d)
    while 2 * d <= _DOUBLING_MAX_DIM:
        val2 = observable(2 * d)
        if abs(val2 - val) <= 1e-6 * max(1.0, abs(val)):
            return DoublingResult(value=val, dim=d, converged=True)
        d, val = 2 * d, val2
    return DoublingResult(value=val, dim=d, converged=False)
