"""Imports kho before any test module imports numpy, so the suite runs under
the BLAS thread setting of the CLI (one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set; see kho/__init__.py), and holds the shared
fixtures."""

import tracemalloc

import kho  # noqa: F401
import pytest

from kho import _lapack


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
