"""kho._lapack against scipy.linalg: the same routine objects, the same
bits, the same errors.

`fock` calls LAPACK through kho._lapack, which loads scipy's _flapack
extension without importing the scipy.linalg package.  Each of its four
functions must return bitwise what the scipy.linalg function `fock` used
to call returns with the keywords it passed, which SCIPY spells out.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import kho
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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def quadrature(dim, eta=math.sqrt(math.pi)):
    return np.zeros(dim), eta * np.sqrt(np.arange(1, dim))


@pytest.fixture(scope="module")
def cayley():
    """(I + C, D) of the even block of G = e^{i shift} S at D = 500, under
    quasienergy_spectrum's first shift: its Cholesky and solve operands."""
    p = SystemParams(r=1, q=4, kappa=-0.8, eta_sq=math.pi)
    shift = p.tau / 2.0 + math.pi + math.pi / p.q
    half = np.exp(0.5j * (shift - (np.arange(0, 500, 2) + 0.5) * p.tau))
    gmat = fock.kick_blocks(p, 500, parities=(0,))[0] * np.outer(half, half)
    return np.eye(250) + gmat.real, gmat.imag


def test_kho_and_scipy_linalg_share_the_routines(tmp_path):
    """A later `import scipy.linalg` reuses the extension module kho loaded,
    so both call the very same routine objects."""
    src = os.path.dirname(os.path.dirname(kho.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from kho import _lapack\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import scipy.linalg\n"
        "funcs = scipy.linalg.get_lapack_funcs(_lapack._ROUTINES, dtype=np.float64)\n"
        "print(all(f is getattr(_lapack, '_' + n) for n, f in zip(_lapack._ROUTINES, funcs)),\n"
        "      scipy.linalg.lapack._flapack is flapack)\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["True", "True"]


@pytest.mark.parametrize("dim", [1, 2, 257, 500])
def test_eigh_tridiagonal_is_scipys_bitwise(dim):
    d, e = quadrature(dim)
    ours, theirs = _lapack.eigh_tridiagonal(d, e), SCIPY["eigh_tridiagonal"](d, e)
    assert all(same_bits(a, b) for a, b in zip(ours, theirs))


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


def test_without_the_extension_falls_back_to_scipy_linalg(tmp_path, monkeypatch):
    """The scipy.linalg imported above holds the extension kho loaded, so
    the fallback returns the very routines kho calls."""
    monkeypatch.delitem(sys.modules, _lapack._FLAPACK)
    routines = _lapack._routines(tmp_path)
    assert _lapack._FLAPACK not in sys.modules  # nothing was loaded from tmp_path
    assert all(f is getattr(_lapack, "_" + n) for n, f in zip(_lapack._ROUTINES, routines))


def test_cli_bytes_equal_those_through_scipy_linalg(tmp_path, monkeypatch):
    """Every output byte of small spectrum, energy-scan, evolve and qfunc runs
    is the same through kho._lapack and through scipy.linalg: a change in
    scipy's calling conventions fails here, not in the CSV bytes."""
    runs = {"spectrum": ["spectrum", "--dim", "96", "--scan-points", "3"],
            "energy-scan": ["energy-scan", "--dim", "96", "--scan-points", "3",
                            "--kicks", "40"],
            "evolve": ["evolve", "--dim", "96", "--alpha=0.3-0.2j", "--kicks", "20"],
            "qfunc": ["qfunc", "--eta2", "pi", "--dim", "96", "--kicks", "6", "--res", "21"]}

    def outputs(tag):
        out = {}
        for name, argv in runs.items():
            path = tmp_path / f"{tag}-{name}"
            code = cli.main(argv + ["--out", str(path)])
            out[name] = code, path.read_bytes()
        return out

    shipped = outputs("lapack")
    for name, adapter in SCIPY.items():
        monkeypatch.setattr(_lapack, name, adapter)
    assert outputs("scipy") == shipped
