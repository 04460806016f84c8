"""kho.specfun's jv and gammaln: scipy.special's compiled ufuncs, loaded
without the scipy.special package.

specfun imports the extension scipy.special._ufuncs under a stand-in for
its package, so `verify` never runs scipy/special/__init__.py and the
array-API layer it imports.  A later `import scipy.special` must reuse the
loaded extension, so kho and scipy.special call the very same ufuncs.
"""

import os
import subprocess
import sys
import types

import kho
from kho import specfun

#: what the scipy.special package import loads and the extension alone does not
PACKAGE_ONLY = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
                "numpy.ma")


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """script run in a fresh interpreter that imports this kho."""
    src = os.path.dirname(os.path.dirname(kho.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def test_verify_loads_the_extension_and_scipy_special_reuses_it():
    script = (
        "import contextlib, io, sys\n"
        "from kho import cli, specfun\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--verify-level', 'quick']) == 0\n"
        f"print(sorted(m for m in {PACKAGE_ONLY!r} if m in sys.modules))\n"
        "loaded = specfun.ufuncs()\n"
        "import scipy.special\n"
        "print(scipy.special._ufuncs is loaded, scipy.special.jv is loaded.jv,\n"
        "      scipy.special.gammaln is loaded.gammaln, hasattr(scipy.special, 'errstate'))\n")
    done = run_fresh(script)
    lines = done.stdout.splitlines()
    assert lines[:1] == ["[]"], done.stderr
    assert done.returncode == 0, done.stderr
    assert lines[1].split() == ["True"] * 4


def test_a_loaded_package_lends_its_extension(tmp_path, monkeypatch):
    import scipy.special

    def import_module(name):
        raise AssertionError(f"imported {name}")

    monkeypatch.setattr(specfun, "importlib", types.SimpleNamespace(import_module=import_module))
    assert specfun._load_ufuncs(tmp_path) is scipy.special._ufuncs
    assert sys.modules["scipy.special"] is scipy.special


def test_a_failed_extension_import_leaves_no_stand_in(tmp_path, monkeypatch):
    import scipy.special
    package = scipy.special
    monkeypatch.delitem(sys.modules, "scipy.special")
    seen = []

    def import_module(name):
        seen.append((name, sys.modules.get("scipy.special")))
        if name == "scipy.special._ufuncs":
            raise ImportError("no extension")
        return package

    monkeypatch.setattr(specfun, "importlib", types.SimpleNamespace(import_module=import_module))
    assert specfun._load_ufuncs(tmp_path) is package
    assert "scipy.special" not in sys.modules
    (name, stand_in), (fallback, during_fallback) = seen
    assert name == "scipy.special._ufuncs" and stand_in is not package
    assert stand_in.__path__ == [str(tmp_path)]
    assert (fallback, during_fallback) == ("scipy.special", None)


def test_without_the_extension_falls_back_to_scipy_special(tmp_path):
    """A directory holding no _ufuncs file: the stand-in import fails, and
    the functions come from the scipy.special package, which then loads
    the extension itself.  In a fresh interpreter, so that the package is
    imported for the first time."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from kho import specfun\n"
        "module = specfun._load_ufuncs(Path(sys.argv[1]))\n"
        "import scipy.special\n"
        "print(module is scipy.special, module.jv is scipy.special._ufuncs.jv,\n"
        "      module.gammaln is scipy.special._ufuncs.gammaln)\n")
    done = run_fresh(script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 3
