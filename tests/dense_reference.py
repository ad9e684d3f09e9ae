"""Dense reference computations that the tests compare the library against."""

import numpy as np


def expm_antihermitian(m: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian matrix, or of a stack of them."""
    w, v = np.linalg.eigh(1j * np.asarray(m, dtype=complex))
    return (v * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
