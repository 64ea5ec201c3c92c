"""Test-session setup shared by every test directory.

OpenBLAS and OpenMP read their thread counts once, when numpy loads them,
so these are set before any test module imports numpy.  One BLAS thread
keeps the many small dense eigenvalue problems of the suite from paying
for thread hand-offs; a count set in the environment is kept.

The package is imported from `src` of this checkout, by the tests and by
the interpreters they start, so the suite runs without an install and
without PYTHONPATH set by hand.
"""

import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
