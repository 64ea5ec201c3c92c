"""Test-session setup shared by every test directory.

OpenBLAS and OpenMP read their thread counts once, when numpy loads them,
so these are set before any test module imports numpy.  One BLAS thread
keeps the many small dense eigenvalue problems of the suite from paying
for thread hand-offs; a count set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
