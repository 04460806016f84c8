"""kho._lapack against scipy.linalg: the same bits, the same errors, and
the routines bound where they should be.

`fock` calls LAPACK through kho._lapack, which binds dstevd, dpotrf, dpotrs
and dsyevr in numpy's bundled OpenBLAS through ctypes, or takes scipy.linalg's
routines where numpy bundles none.  Each of its four functions must return
bitwise what the scipy.linalg function `fock` used to call returns with the
keywords it passed, which SCIPY spells out.
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
    "cho_factor": lambda a: scipy.linalg.cho_factor(a, overwrite_a=True,
                                                    check_finite=False)[0],
    "cho_solve": lambda c, b: scipy.linalg.cho_solve((c, False), b, check_finite=False),
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


def quadrature(dim, eta_sq=math.pi):
    return np.zeros(dim), math.sqrt(eta_sq) * np.sqrt(np.arange(1, dim))


@pytest.fixture(scope="module")
def cayley():
    """(I + C, D) of the even block of G = e^{i shift} S at D = 500, under
    quasienergy_spectrum's first shift: its Cholesky and solve operands."""
    p = SystemParams(r=1, q=4, kappa=-0.8, eta_sq=math.pi)
    shift = p.tau / 2.0 + math.pi + math.pi / p.q
    half = np.exp(0.5j * (shift - (np.arange(0, 500, 2) + 0.5) * p.tau))
    gmat = fock.kick_blocks(p, 500, parities=(0,))[0] * np.outer(half, half)
    return np.eye(250) + gmat.real, gmat.imag


def test_the_routines_resolve_in_numpys_openblas(numpy_openblas):
    """Each routine kho calls is the ILP64 symbol of numpy's own OpenBLAS,
    the library that already runs numpy's matrix products."""
    lib = ctypes.CDLL(str(numpy_openblas[0]))

    def address(f):
        return ctypes.cast(f, ctypes.c_void_p).value

    for kernel, name in [(_lapack._stevd, "stevd"), (_lapack._potrf, "potrf"),
                         (_lapack._potrs, "potrs"), (_lapack._syevr_lwork, "syevr"),
                         (_lapack._syevr, "syevr")]:
        symbol = next(getattr(lib, s) for s in (f"scipy_d{name}_64_", f"d{name}_64_")
                      if hasattr(lib, s))
        assert address(kernel.args[0]) == address(symbol)


@pytest.mark.parametrize("dim", [1, 2, 128, 256, 257, 500, 512, 1000])
def test_eigh_tridiagonal_is_scipys_bitwise(dim):
    """At the sizes and eta^2 (pi, phi pi, 2 pi / sqrt 3) verify and the
    benchmark workloads run."""
    for eta_sq in (math.pi, (1 + math.sqrt(5)) / 2 * math.pi, 2 * math.pi / math.sqrt(3)):
        d, e = quadrature(dim, eta_sq)
        ours, theirs = _lapack.eigh_tridiagonal(d, e), SCIPY["eigh_tridiagonal"](d, e)
        assert all(same_bits(a, b) for a, b in zip(ours, theirs)), eta_sq


def test_cholesky_is_scipys_bitwise(cayley):
    a, b = cayley
    c = _lapack.cho_factor(a.copy())
    assert same_bits(c, SCIPY["cho_factor"](a.copy()))
    b_before = b.copy()
    assert same_bits(_lapack.cho_solve(c, b), SCIPY["cho_solve"](c, b))
    assert same_bits(b, b_before)


def test_eigh_is_scipys_bitwise(cayley):
    a, b = cayley
    h = _lapack.cho_solve(_lapack.cho_factor(a.copy()), b)
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
        _lapack.cho_factor(a)


def test_without_numpys_openblas_falls_back_to_scipy_linalg(tmp_path, monkeypatch):
    """Pointed at a directory without the library, the loader takes
    scipy.linalg's own routines, and the four subcommands write the bytes
    of the primary path through them."""
    routines = _lapack._routines([tmp_path])
    theirs = scipy.linalg.get_lapack_funcs(("stevd", "potrf", "potrs", "syevr_lwork", "syevr"),
                                           dtype=np.float64)
    assert all(r.func is f for r, f in zip(routines, theirs))
    shipped = cli_outputs(tmp_path / "shipped")
    for name, routine in zip(("_stevd", "_potrf", "_potrs", "_syevr_lwork", "_syevr"), routines):
        monkeypatch.setattr(_lapack, name, routine)
    assert cli_outputs(tmp_path / "fallback") == shipped


def test_cli_bytes_equal_those_through_scipy_linalg(tmp_path, monkeypatch):
    """Every output byte of small spectrum, energy-scan, evolve and qfunc runs
    is the same through kho._lapack and through scipy.linalg: a change in
    scipy's calling conventions fails here, not in the CSV bytes."""
    shipped = cli_outputs(tmp_path / "lapack")
    for name, adapter in SCIPY.items():
        monkeypatch.setattr(_lapack, name, adapter)
    assert cli_outputs(tmp_path / "scipy") == shipped
