import numpy as np
import pytest


def _log_det_char(spectrum, lam):
    """log det(lam + 1 - 2 A_L) from the spectrum's eigenvalues, principal
    branch factor by factor: the eigenvalue-side reference for the
    determinant checks."""
    factors = complex(lam) + 1.0 - 2.0 * spectrum.eigenvalues
    return complex(np.sum(np.log(factors)))


@pytest.fixture
def log_det_char():
    return _log_det_char
