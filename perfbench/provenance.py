"""Where a benchmark result came from: code, interpreter, BLAS build,
thread settings and machine."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
from pathlib import Path

# thread and BLAS variables recorded whether set or not; the benchmark never sets them
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMEXPR_MAX_THREADS",
    "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE", "OMP_PROC_BIND", "OMP_PLACES",
    "OMP_DYNAMIC", "OMP_WAIT_POLICY", "KMP_AFFINITY", "MKL_DYNAMIC", "PYTHON_CPU_COUNT",
)
_THREADISH = re.compile(r"THREAD|BLAS|^OMP_|^KMP_|^MKL_|^GOMP_")


def _git(root: Path, *args: str) -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def thread_env() -> dict[str, str | None]:
    names = set(THREAD_VARS) | {k for k in os.environ if _THREADISH.search(k)}
    return {k: os.environ.get(k) for k in sorted(names)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Cache sizes of cpu0 by level and type, e.g. {'L2': '4096K'}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[tag] = size
    return out


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        # the build's install directories say nothing about the build itself
        return {k: {f: v for f, v in deps[k].items() if "directory" not in f}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        return {"blas": "unknown", "lapack": "unknown"}


def collect(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "seed": seed,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": _blas(),
        "thread_env": thread_env(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }
