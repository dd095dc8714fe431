"""Reference computations that the tests compare the library against.

They share no code with the paths under test: each one works on dense
matrices with a general-purpose numpy routine.
"""

import numpy as np


def exp_symmetric(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * m) of a real symmetric matrix via its eigensystem."""
    w, q = np.linalg.eigh(m)
    with np.errstate(over="ignore", under="ignore"):
        return (q * np.exp(scale * w)) @ q.T
