"""Benchmark of specbisect's eig_backward; see bench/README.md.

    python3 bench/run.py --workload clustered-n24 --seed 1 --seconds 50 --trace 0

Run from the repository root. The package is imported from ./src, so the
benchmark exits with an error where the sources are missing.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports, then warm-up

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS threads, fixed before numpy loads; at most nproc on any machine
BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import specbisect
    if not Path(specbisect.__file__).resolve().is_relative_to(src):
        sys.exit(f"specbisect must come from {src}, not {specbisect.__file__}")
    import harness
    sys.exit(harness.main(sys.argv[1:], _T0, __file__))
