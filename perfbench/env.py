"""Process set-up shared by the benchmark and the baseline profile.

BLAS threads are pinned before numpy is first imported, plapopt is loaded
from the checkout's own ``src`` tree (never from an installed copy), and
the environment every result is recorded with is collected here.
"""

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")

# One BLAS thread: the solver is sequential (SuperLU), and a single
# thread keeps run-to-run timing steady on a shared 2-core machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout does not hold the plapopt sources."""


def limit_blas_threads():
    """Pin every BLAS thread variable; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def import_plapopt():
    """Import plapopt from ``<checkout>/src`` and return the package."""
    if not os.path.isfile(os.path.join(SRC, "plapopt", "__init__.py")):
        raise MissingProgram(f"no plapopt sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import plapopt

    where = os.path.dirname(os.path.abspath(plapopt.__file__))
    if os.path.dirname(where) != SRC:
        raise MissingProgram(f"plapopt was imported from {where}, not {SRC}")
    return plapopt


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over the plapopt sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "plapopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
