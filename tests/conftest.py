"""Run the suite at one BLAS thread unless the environment says otherwise.

OpenBLAS reads its thread count when numpy loads, so this runs before any
test module imports numpy.  On a 2-core OpenBLAS machine the suite took
25-27 s at one thread and 47-54 s at OpenBLAS's default two, with the same
results; an explicit ``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``,
``MKL_NUM_THREADS``) still wins.  The library itself sets nothing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
