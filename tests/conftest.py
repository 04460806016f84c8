"""Imports kho before any test module imports numpy, so the suite runs under
the BLAS thread setting of the CLI (one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set; see kho/__init__.py)."""

import kho  # noqa: F401
