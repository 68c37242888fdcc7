"""Test-session settings that must precede the first numpy import.

One BLAS thread, as in CI and the benchmark, wherever the suite is started:
a second BLAS thread spins on another core, and under CPU contention that
pushes timing gates such as criterion 9's scaling exponent past their
bounds.  BLAS reads these variables once, when numpy loads it, and pytest
imports this file before any test module, so ``setdefault`` here takes
effect unless the caller has already chosen a value.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
