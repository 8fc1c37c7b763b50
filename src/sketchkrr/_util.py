"""Small shared helpers."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


# ceil after snapping to 9 decimals, so float fuzz on exact integers
# (e.g. 27**(1/3) = 3.0000000000000004) does not bump the result
def ceil_int(value: float) -> int:
    return math.ceil(round(value, 9))


def cho_factor_shifted(matrix: np.ndarray, shift: float):
    """Lower Cholesky factor of the symmetric ``matrix + shift * I``, in the
    ``cho_factor`` form; raises ``numpy.linalg.LinAlgError`` if it is not
    positive definite.

    The shifted matrix is one Fortran-ordered copy (``matrix.T`` of a
    symmetric C-ordered matrix copies as one block), factored in place.
    """
    A = matrix.T.copy(order="F")
    A.ravel(order="F")[:: A.shape[0] + 1] += shift
    return sla.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
