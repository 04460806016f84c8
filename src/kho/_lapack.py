"""The four LAPACK calls of `fock`, without importing scipy.linalg.

The routines live in scipy's f2py extension scipy/linalg/_flapack, which
needs only numpy; the scipy.linalg package around it also imports scipy's
array-API layer, and with it numpy.f2py, numpy.testing and numpy.ma, about
0.24 s and 24 MiB of every cold start.  So the extension file is loaded by
path and registered in sys.modules under its own name, where a later
`import scipy.linalg` finds and reuses it.  Without the file, the routines
come from scipy.linalg.get_lapack_funcs.

Each function runs the routine its scipy.linalg namesake runs, with the
arguments scipy 1.17 passes, so its results are bitwise those of
eigh_tridiagonal(d, e) and, with check_finite=False, of
cho_factor(a, overwrite_a=True)[0], cho_solve((c, False), b) and
eigh(a, overwrite_a=True).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

_FLAPACK = "scipy.linalg._flapack"
_ROUTINES = ("stevd", "potrf", "potrs", "syevr", "syevr_lwork")


def _routines(linalg_dir: Path) -> tuple:
    """The double-precision _ROUTINES of the loaded scipy.linalg._flapack,
    else of the extension file in linalg_dir, loaded and registered as
    scipy.linalg._flapack; scipy.linalg.get_lapack_funcs's if neither is
    there."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        paths = [linalg_dir / f"_flapack{suffix}"
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            from scipy.linalg import get_lapack_funcs
            return tuple(get_lapack_funcs(_ROUTINES, dtype=np.float64))
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return tuple(getattr(module, "d" + name) for name in _ROUTINES)


_stevd, _potrf, _potrs, _syevr, _syevr_lwork = _routines(
    Path(importlib.util.find_spec("scipy").origin).parent / "linalg")


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def eigh_tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (columns) of the
    real symmetric tridiagonal matrix with diagonal d and off-diagonal e.
    ValueError if either holds a NaN or an infinity."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.size == 1:  # stevd rejects an empty e
        return d.copy(), np.ones((1, 1), dtype=d.dtype)
    w, v, info = _stevd(d, e, compute_v=1)
    _check(info, "stevd")
    return w, v


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U of the symmetric positive definite a, for
    cho_solve, computed in a's storage where it can be (Fortran order);
    the strict lower triangle is left as it was.  LinAlgError if a is not
    positive definite."""
    c, info = _potrf(a, lower=0, clean=0, overwrite_a=1)
    _check(info, "potrf")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with U^T U x = b, for U = cho_factor(a); b is kept."""
    x, info = _potrs(c, b, lower=0, overwrite_b=0)
    _check(info, "potrs")
    return x


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (columns) of the
    real symmetric a, read from its lower triangle; a's storage may be
    overwritten."""
    lwork, liwork, info = _syevr_lwork(a.shape[0], lower=1)
    _check(info, "syevr_lwork")
    w, v, _, _, info = _syevr(a, compute_v=1, lower=1, lwork=int(lwork),
                              liwork=int(liwork), overwrite_a=1)
    _check(info, "syevr")
    return w, v
