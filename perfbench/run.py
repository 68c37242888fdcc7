"""Entry point of the susim benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dense_similar --seed 1 --seconds 30 --trace 0

Workloads: ``dense_similar``, ``cascade``, ``reject`` (see BENCHMARK.json).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits 2 and prints no result.

BLAS threads are pinned to one before numpy is imported, and the value is
recorded with the result.  One client solves small matrices (n <= 128)
here: a second BLAS thread did not make a command faster on a 2-CPU
machine, but it spun on the other CPU and made the timings noisier.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


BLAS_THREADS = 1


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "susim" / "__init__.py").is_file():
        print(f"benchmark: no susim sources under {src}", file=sys.stderr)
        sys.exit(2)
    threads = pin_blas_threads()
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main(sys.argv[1:], threads))
