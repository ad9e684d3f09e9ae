"""Dense reference computations that the tests compare the library against."""

import numpy as np

from spinfock import so_algebra as so


def expm_antihermitian(m: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian matrix, or of a stack of them."""
    w, v = np.linalg.eigh(1j * np.asarray(m, dtype=complex))
    return (v * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def car_residual(plus, minus) -> float:
    """Worst deviation of the operator families plus[k], minus[k] from the CAR, by dense products.

    The relations are {minus_j, plus_k} = delta_jk, {plus_j, plus_k} = 0 and
    {minus_j, minus_k} = 0.
    """
    eye = np.eye(plus[0].shape[0])
    worst = 0.0
    for j in range(len(plus)):
        for k in range(len(plus)):
            dm, dp = minus[j], plus[k]
            delta = eye if j == k else 0.0
            worst = max(worst, np.max(np.abs(dm @ dp + dp @ dm - delta)))
            a, b = plus[j], plus[k]
            worst = max(worst, np.max(np.abs(a @ b + b @ a)))
            a, b = minus[j], minus[k]
            worst = max(worst, np.max(np.abs(a @ b + b @ a)))
    return float(worst)


def dense(image) -> np.ndarray:
    """The 2^n x 2^n matrix of a (flip, phase) image: column x holds phase[x] at row x XOR flip."""
    flip, phase = image
    return np.diag(phase)[np.arange(len(phase)) ^ flip]


def basis_images(n: int, tag: str) -> np.ndarray:
    """The (S, d, d) stack of the basis images, in symbol order, under spin_rep or defining_rep."""
    rep = {"spin": so.spin_rep, "defining": so.defining_rep}[tag]
    return np.stack([rep(so.basis_element(n, *s)) for s in so.symbols(n)])
