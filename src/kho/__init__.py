"""Quantum delta-kicked harmonic oscillator: Fock-basis and phase-space
lattice propagation, quantum-resonance classification, and spectral
observables.

Importing kho pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is
already set.  The kernels are D/2 x D/2 parity blocks, too small to gain from
a second BLAS thread.  A scan's worker processes (`energy-scan` and
`spectrum` each run one per usable CPU by default, `--threads N` sets the
count) fork from the CLI process and keep its setting, and each point runs
the same single-threaded code, so output bytes do not depend on the core
count.

The package imports none of its submodules: `from kho import fock` loads
fock and what it uses, and `kho.cli` loads only `model` and `output` until a
subcommand handler imports the numerics it runs.  numpy's first import on
the CLI path is therefore in that handler, after the pin, and numpy's
OpenBLAS, which also runs `fock`'s LAPACK calls (see `_lapack`), starts
under the setting.  `kho resonances` loads no numpy.  A program that imports
numpy before kho keeps numpy's thread setting, for LAPACK too.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["fock", "lattice", "model", "output", "specfun", "verify"]
__version__ = "0.1.0"
