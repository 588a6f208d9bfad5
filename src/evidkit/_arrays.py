"""Array helpers shared by the layers."""

import math

import numpy as np

# Arrays up to this size are tested directly: their bool temporary is small,
# and the error-state switch of the sum would cost more than it saves.
_SUM_FIRST_SIZE = 4096


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite. A large x is summed first: a finite
    sum proves it with no temporary the size of x."""
    if x.size > _SUM_FIRST_SIZE:
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(x.sum()):
                return True
    return bool(np.count_nonzero(np.isfinite(x)) == x.size)
