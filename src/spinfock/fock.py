"""Fermionic Fock space over n modes, with ladder operators and Clifford generators.

Basis states are indexed by occupation bitmasks ``S``: bit ``j-1`` set means
mode ``j`` is occupied. The vacuum is bitmask 0. Creation of mode ``j`` on a
basis state picks up the Jordan-Wigner sign ``(-1)**(# occupied modes < j)``,
which is the sign produced by sorting ``e_j`` into an ascending wedge word.

The 2n Clifford generators satisfy {gamma_j, gamma_k} = -2 delta_jk and are
built from the ladder operators:

    gamma_{2k-1} = c_k^dagger - c_k
    gamma_{2k}   = -i (c_k^dagger + c_k)

so that c_k^dagger = (gamma_{2k-1} + i gamma_{2k}) / 2 and
c_k = (-gamma_{2k-1} + i gamma_{2k}) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import IndexRangeError, SizeError

# Dense 2^n x 2^n matrices must stay desk-sized.
MAX_MODES = 12


def fock_dim(n: int) -> int:
    """Dimension 2**n of the n-mode Fock space."""
    return 1 << n


def check_mode_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_MODES:
        raise SizeError(f"mode count must be an integer in [1, {MAX_MODES}], got {n!r}")


def _check_mode(j: int, n: int) -> None:
    if not 1 <= j <= n:
        raise IndexRangeError(f"mode index must satisfy 1 <= j <= {n}, got {j}")


@dataclass(frozen=True, eq=False)
class FockVector:
    """A state in the 2^n-dimensional occupation-number basis."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_mode_count(self.n)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (fock_dim(self.n),):
            raise SizeError(
                f"amplitude vector must have length {fock_dim(self.n)}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vacuum(n: int) -> FockVector:
    check_mode_count(n)
    amps = np.zeros(fock_dim(n), dtype=complex)
    amps[0] = 1.0
    return FockVector(n, amps)


def basis_vector(n: int, modes: Iterable[int] = ()) -> FockVector:
    """Basis state e_{j1} ^ ... ^ e_{jk} for the given set of occupied modes."""
    check_mode_count(n)
    mask = 0
    for j in modes:
        _check_mode(j, n)
        if mask & (1 << (j - 1)):
            raise IndexRangeError(f"mode {j} listed twice")
        mask |= 1 << (j - 1)
    amps = np.zeros(fock_dim(n), dtype=complex)
    amps[mask] = 1.0
    return FockVector(n, amps)


def creation(j: int, n: int) -> np.ndarray:
    """Creation operator c_j^dagger as a dense 2^n x 2^n matrix."""
    check_mode_count(n)
    _check_mode(j, n)
    dim = fock_dim(n)
    bit = 1 << (j - 1)
    below = bit - 1
    m = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        if mask & bit:
            continue
        sign = -1.0 if (mask & below).bit_count() % 2 else 1.0
        m[mask | bit, mask] = sign
    return m


def annihilation(j: int, n: int) -> np.ndarray:
    """Annihilation operator c_j, the adjoint of creation(j, n)."""
    return creation(j, n).conj().T


def gamma(j: int, n: int) -> np.ndarray:
    """The j-th Clifford generator, 1 <= j <= 2n, as a 2^n x 2^n matrix."""
    check_mode_count(n)
    if not 1 <= j <= 2 * n:
        raise IndexRangeError(f"Clifford index must satisfy 1 <= j <= {2 * n}, got {j}")
    k = (j + 1) // 2
    cdag = creation(k, n)
    c = cdag.conj().T
    if j % 2 == 1:
        return cdag - c
    return -1j * (cdag + c)
