"""The three LAPACK routines of `fock`, in numpy's own OpenBLAS.

numpy's wheels bundle an OpenBLAS with 64-bit integers in `numpy.libs` (or
`numpy/.dylibs` on macOS), which numpy loads.  Its dstevd, dposv and dsyevr
are called here through ctypes, so `fock` loads no scipy module and maps no
second OpenBLAS; without that library (conda, Accelerate) they come from
scipy.linalg.get_lapack_funcs.  Either way each runs as scipy.linalg's f2py
wrappers run it, with the same job, sizes and input copies (C-ordered
matrices go to Fortran order) and Fortran-ordered eigenvectors, so results
are bitwise those of eigh_tridiagonal(d, e) and, with check_finite=False,
cho_solve(cho_factor(a, overwrite_a=True), b) and eigh(a): dposv is
dpotrf then dpotrs in one call.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

#: each routine's pointer arguments, info included, and character arguments
_ROUTINES = {"stevd": (11, 1), "posv": (8, 1), "syevr": (21, 3)}
_SCALAR = {int: ctypes.c_int64, float: ctypes.c_double}


def _fortran(routine, *args) -> int:
    """info from routine(*args, info): an array as its data, an int or a float
    by reference as int64 or double, bytes as a character with its length last."""
    info = ctypes.c_int64()
    refs = [a if isinstance(a, bytes) else a.ctypes.data if isinstance(a, np.ndarray)
            else ctypes.byref(_SCALAR[type(a)](a)) for a in args]
    routine(*refs, ctypes.byref(info), *[len(a) for a in args if isinstance(a, bytes)])
    return info.value


def _dstevd(routine, d, e):
    n = d.size
    w, e, z = np.array(d, np.float64), np.array(e, np.float64), np.empty((n, n), order="F")
    work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, np.int64)
    return w, z, _fortran(routine, b"V", n, w, e, z, n, work, work.size, iwork, iwork.size)


def _dposv(routine, a, b):  # in a's storage where a is Fortran-ordered, as overwrite_a=1
    c, x = np.asfortranarray(a, np.float64), np.array(b, np.float64, order="F")
    return c, x, _fortran(routine, b"U", c.shape[0], x.shape[1], c, c.shape[0], x, x.shape[0])


def _dsyevr_lwork(routine, n):  # the query reads no matrix: 1-element stand-ins
    work, iwork, one = np.empty(1), np.empty(1, np.int64), np.empty(1)
    info = _fortran(routine, b"V", b"A", b"L", n, one, n, 0.0, 1.0, 1, n, 0.0,
                    iwork, one, one, n, iwork, work, -1, iwork, -1)
    return work[0], iwork[0], info


def _dsyevr(routine, a, lwork, liwork):
    n, a = a.shape[0], np.asfortranarray(a, np.float64)
    w, z = np.empty(n), np.empty((n, n), order="F")
    return w, z, _fortran(routine, b"V", b"A", b"L", n, a, n, 0.0, 1.0, 1, n, 0.0,
                          np.empty(1, np.int64), w, z, n, np.empty(2 * n, np.int64),
                          np.empty(lwork), lwork, np.empty(liwork, np.int64), liwork)


def _routines(dirs) -> tuple:
    """(stevd(d, e), posv(a, b), syevr_lwork(n), syevr(a, lwork=, liwork=)),
    each returning info last: the kernels above on the first OpenBLAS file
    in dirs that exports the _ROUTINES with 64-bit integers, else
    scipy.linalg's routines with scipy.linalg's keywords."""
    for path in sorted(p for d in dirs for p in Path(d).glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_d{}_64_", "d{}_64_"):
            if all(hasattr(lib, symbol.format(n)) for n in _ROUTINES):
                stevd, posv, syevr = (getattr(lib, symbol.format(n)) for n in _ROUTINES)
                for f, (refs, chars) in zip((stevd, posv, syevr), _ROUTINES.values()):
                    f.argtypes = [ctypes.c_void_p] * refs + [ctypes.c_size_t] * chars
                    f.restype = None
                return (partial(_dstevd, stevd), partial(_dposv, posv),
                        partial(_dsyevr_lwork, syevr), partial(_dsyevr, syevr))
    from scipy.linalg import get_lapack_funcs
    stevd, posv, syevr, syevr_lwork = get_lapack_funcs(
        (*_ROUTINES, "syevr_lwork"), dtype=np.float64)
    return (partial(stevd, compute_v=1), partial(posv, lower=0, overwrite_a=1, overwrite_b=0),
            partial(syevr_lwork, lower=1), partial(syevr, compute_v=1, lower=1, overwrite_a=1))


_stevd, _posv, _syevr_lwork, _syevr = _routines(
    [Path(np.__file__).parents[1] / "numpy.libs", Path(np.__file__).parent / ".dylibs"])


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
    w, v, info = _stevd(d, e)
    _check(info, "stevd")
    return w, v


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for the symmetric positive definite a, read from its
    upper triangle; a's storage may be overwritten, b is kept.  LinAlgError
    if a is not positive definite."""
    _, x, info = _posv(a, b)
    _check(info, "posv")
    return x


@lru_cache
def _workspace(n: int) -> tuple[int, int]:
    """syevr's (lwork, liwork) for an n x n matrix, queried once per n."""
    lwork, liwork, info = _syevr_lwork(n)
    _check(info, "syevr_lwork")
    return int(lwork), int(liwork)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (columns) of the
    real symmetric a, read from its lower triangle; a's storage may be
    overwritten."""
    lwork, liwork = _workspace(a.shape[0])
    w, v, *_, info = _syevr(a, lwork=lwork, liwork=liwork)
    _check(info, "syevr")
    return w, v
