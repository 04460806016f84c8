"""kho._lapack against scipy.linalg: the same bits, the same errors, and
the routines bound where they should be.

`fock` calls LAPACK through kho._lapack, which binds dstevd, dposv and dsyevr
in numpy's bundled OpenBLAS through ctypes, or takes scipy.linalg's routines
where numpy bundles none.  Each of its three functions must return bitwise
what the scipy.linalg calls `fock` used to make return with the keywords it
passed, which SCIPY spells out.
"""

import ctypes
import math

import numpy as np
import pytest
import scipy.linalg

from kho import _lapack, cli, fock
from kho.model import SystemParams

#: each kho._lapack function as the scipy.linalg call it stands for
SCIPY = {
    "eigh_tridiagonal": lambda d, e: scipy.linalg.eigh_tridiagonal(d, e),
    "solve_spd": lambda a, b: scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(a, overwrite_a=True, check_finite=False), b, check_finite=False),
    "eigh": lambda a: scipy.linalg.eigh(a, overwrite_a=True, check_finite=False),
}


#: small runs of the four subcommands that reach LAPACK
CLI_RUNS = {"spectrum": ["spectrum", "--dim", "96", "--scan-points", "3"],
            "energy-scan": ["energy-scan", "--dim", "96", "--scan-points", "3", "--kicks", "40"],
            "evolve": ["evolve", "--dim", "96", "--alpha=0.3-0.2j", "--kicks", "20"],
            "qfunc": ["qfunc", "--eta2", "pi", "--dim", "96", "--kicks", "6", "--res", "21"]}


def cli_outputs(directory):
    """(exit code, output bytes) of each of CLI_RUNS, written into directory."""
    directory.mkdir()
    out = {}
    for name, argv in CLI_RUNS.items():
        path = directory / name
        out[name] = cli.main(argv + ["--out", str(path)]), path.read_bytes()
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: the eta^2 verify and the benchmark workloads run: pi, phi pi and 2 pi / sqrt 3
ETA_SQ = (math.pi, (1 + math.sqrt(5)) / 2 * math.pi, 2 * math.pi / math.sqrt(3))


def quadrature(dim, eta_sq=math.pi):
    return np.zeros(dim), math.sqrt(eta_sq) * np.sqrt(np.arange(1, dim))


def cayley_operands(dim, eta_sq=math.pi, parity=0):
    """(I + C, D) of a parity block of G = e^{i shift} S under
    quasienergy_spectrum's first shift: the operands of its Cayley solve."""
    p = SystemParams(r=1, q=4, kappa=-0.8, eta_sq=eta_sq)
    shift = p.tau / 2.0 + math.pi + math.pi / p.q
    half = np.exp(0.5j * (shift - (np.arange(parity, dim, 2) + 0.5) * p.tau))
    gmat = fock.kick_blocks(p, dim, parities=(parity,))[0] * np.outer(half, half)
    return np.eye(len(gmat)) + gmat.real, gmat.imag


@pytest.fixture(scope="module")
def cayley():
    """The Cayley operands of the even block at D = 500 and eta^2 = pi."""
    return cayley_operands(500)


def test_the_routines_resolve_in_numpys_openblas(numpy_openblas):
    """Each routine kho calls is the ILP64 symbol of numpy's own OpenBLAS,
    the library that already runs numpy's matrix products."""
    lib = ctypes.CDLL(str(numpy_openblas[0]))

    def address(f):
        return ctypes.cast(f, ctypes.c_void_p).value

    for kernel, name in [(_lapack._stevd, "stevd"), (_lapack._posv, "posv"),
                         (_lapack._syevr_lwork, "syevr"), (_lapack._syevr, "syevr")]:
        symbol = next(getattr(lib, s) for s in (f"scipy_d{name}_64_", f"d{name}_64_")
                      if hasattr(lib, s))
        assert address(kernel.args[0]) == address(symbol)


@pytest.mark.parametrize("dim", [1, 2, 128, 256, 257, 500, 512, 1000])
def test_eigh_tridiagonal_is_scipys_bitwise(dim):
    """At the sizes and eta^2 (pi, phi pi, 2 pi / sqrt 3) verify and the
    benchmark workloads run."""
    for eta_sq in ETA_SQ:
        d, e = quadrature(dim, eta_sq)
        ours, theirs = _lapack.eigh_tridiagonal(d, e), SCIPY["eigh_tridiagonal"](d, e)
        assert all(same_bits(a, b) for a, b in zip(ours, theirs)), eta_sq


def test_cholesky_is_scipys_bitwise():
    """solve_spd keeps b, at the Cayley operands of both parity blocks for
    the eta^2 of ETA_SQ and D = 64, 500 and 1000."""
    for dim in (64, 500, 1000):
        for eta_sq in ETA_SQ:
            for parity in (0, 1):
                a, b = cayley_operands(dim, eta_sq, parity)
                b = np.asfortranarray(b)  # storage that dposv could solve in
                b_before = b.copy()
                ours = _lapack.solve_spd(a.copy(), b)
                assert same_bits(b, b_before)
                assert same_bits(ours, SCIPY["solve_spd"](a.copy(), b)), (dim, eta_sq, parity)


def test_eigh_is_scipys_bitwise(cayley):
    a, b = cayley
    h = _lapack.solve_spd(a.copy(), b)
    h += h.T
    ours, theirs = _lapack.eigh(h.copy()), SCIPY["eigh"](h.copy())
    assert all(same_bits(x, y) for x, y in zip(ours, theirs))


def test_nan_in_diagonal_is_value_error():
    d, e = quadrature(8)
    d[3] = np.nan
    with pytest.raises(ValueError):
        _lapack.eigh_tridiagonal(d, e)


def test_indefinite_matrix_is_lin_alg_error():
    """quasienergy_spectrum turns its Cayley shift on this error, and the CLI
    reports it as a ValueError."""
    assert issubclass(np.linalg.LinAlgError, ValueError)
    a = np.diag([2.0, 1.0, -1.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.solve_spd(a, np.eye(4))


def test_syevr_workspace_is_queried_once_per_size(tmp_path, monkeypatch):
    """The default 161-point spectrum at D = 10 diagonalizes two 5 x 5
    blocks per point and asks syevr for its workspace once."""
    queries, solves = [], []
    query, syevr = _lapack._syevr_lwork, _lapack._syevr
    monkeypatch.setattr(_lapack, "_syevr_lwork", lambda n: queries.append(n) or query(n))
    monkeypatch.setattr(_lapack, "_syevr", lambda a, **kw: solves.append(a.shape) or syevr(a, **kw))
    _lapack._workspace.cache_clear()
    argv = ["spectrum", "--dim", "10", "--out", str(tmp_path / "spectrum.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(solves) >= 2 * 161 and set(solves) == {(5, 5)}
    assert queries == [5]


def test_without_numpys_openblas_falls_back_to_scipy_linalg(tmp_path, monkeypatch):
    """Pointed at a directory without the library, the loader takes
    scipy.linalg's own routines, and the four subcommands write the bytes
    of the primary path through them, each side with its own syevr
    workspace queries."""
    routines = _lapack._routines([tmp_path])
    theirs = scipy.linalg.get_lapack_funcs(("stevd", "posv", "syevr_lwork", "syevr"),
                                           dtype=np.float64)
    assert all(r.func is f for r, f in zip(routines, theirs))
    _lapack._workspace.cache_clear()
    shipped = cli_outputs(tmp_path / "shipped")
    for name, routine in zip(("_stevd", "_posv", "_syevr_lwork", "_syevr"), routines):
        monkeypatch.setattr(_lapack, name, routine)
    _lapack._workspace.cache_clear()
    try:
        assert cli_outputs(tmp_path / "fallback") == shipped
    finally:
        _lapack._workspace.cache_clear()  # no later test runs on scipy's answers


def test_cli_bytes_equal_those_through_scipy_linalg(tmp_path, monkeypatch):
    """Every output byte of small spectrum, energy-scan, evolve and qfunc runs
    is the same through kho._lapack and through scipy.linalg: a change in
    scipy's calling conventions fails here, not in the CSV bytes."""
    shipped = cli_outputs(tmp_path / "lapack")
    for name, adapter in SCIPY.items():
        monkeypatch.setattr(_lapack, name, adapter)
    assert cli_outputs(tmp_path / "scipy") == shipped
