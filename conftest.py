"""Tier-1 runs with one BLAS thread, as the benchmark's workers do, so that
the SVD-heavy tests take the same time whatever else shares the host.  A
root conftest is imported before any test module imports numpy, which is
when OpenBLAS reads these."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
