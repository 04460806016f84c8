"""Imports kho before any test module imports numpy, so the suite runs under
the BLAS thread setting of the CLI (one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set; see kho/__init__.py), and holds the shared
fixtures."""

import os
import tracemalloc
from pathlib import Path

import kho  # noqa: F401
import numpy as np
import pytest

from kho import _lapack


@pytest.fixture
def numpy_openblas():
    """The OpenBLAS files numpy's wheel bundles, where kho runs LAPACK; the
    test is skipped where numpy bundles none."""
    files = sorted(p for d in (Path(np.__file__).parents[1] / "numpy.libs",
                               Path(np.__file__).parent / ".dylibs")
                   for p in d.glob("*openblas*"))
    if not files:
        pytest.skip("numpy bundles no OpenBLAS")
    return files


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of each diagonalization of a quadrature from here on."""
    calls = []
    eigh = _lapack.eigh_tridiagonal
    monkeypatch.setattr(_lapack, "eigh_tridiagonal", lambda *a: calls.append(a) or eigh(*a))
    return calls


@pytest.fixture
def traced_peak():
    """peak(fn): the most bytes tracemalloc saw allocated while fn() ran."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def no_child_left():
    """After the test, this process has no child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
