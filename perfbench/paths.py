"""Locations inside the checkout, and the thread settings every process uses."""

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# ammgame's only parallelism is the BLAS pool; one thread (of the two cores)
# keeps its matrix-vector products off the second core and out of the noise
BLAS_THREADS = "1"


def use_single_thread_blas():
    """Pin the BLAS pools; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
