"""Process set-up shared by the benchmark's entry scripts.

Must run before numpy is imported: BLAS reads its thread count once, at
load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    """Pin BLAS to one thread and import quadrobin from this checkout only.

    Exits with status 2 when the checkout has no ``src/quadrobin``, so the
    benchmark never measures some other installed copy of the package.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "quadrobin" / "__init__.py").is_file():
        print(f"error: {SRC / 'quadrobin'} not found; run from a quadrobin checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
