"""Put the checkout's own package on the path, with FFT and BLAS pinned to
one thread, before anything imports numpy.  Shared by the benchmark's
entry point and its worker processes, which inherit the environment."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_package():
    """Import nlsenergy from this checkout's src/, or exit with status 1."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    try:
        import nlsenergy
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nlsenergy from {SRC}: {exc}")
    if Path(nlsenergy.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: nlsenergy was imported from {nlsenergy.__file__}, "
                 f"not from {SRC}")
