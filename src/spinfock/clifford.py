"""Clifford generators gamma_j on the Fock space.

The 2n generators satisfy {gamma_j, gamma_k} = -2 delta_jk and are built from
the ladder operators of the fock module:

    gamma_{2k-1} = c_k^dagger - c_k
    gamma_{2k}   = -i (c_k^dagger + c_k)

so that c_k^dagger = (gamma_{2k-1} + i gamma_{2k}) / 2 and
c_k = (-gamma_{2k-1} + i gamma_{2k}) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import IndexRangeError


def gamma(j: int, n: int) -> np.ndarray:
    """The j-th Clifford generator, 1 <= j <= 2n, as a 2^n x 2^n matrix."""
    fock.check_mode_count(n)
    if not 1 <= j <= 2 * n:
        raise IndexRangeError(f"Clifford index must satisfy 1 <= j <= {2 * n}, got {j}")
    k = (j + 1) // 2
    cdag = fock.creation(k, n)
    c = cdag.conj().T
    if j % 2 == 1:
        return cdag - c
    return -1j * (cdag + c)


@dataclass(frozen=True)
class CliffordGenerators:
    """All 2n generators for a fixed mode count."""

    n: int
    gammas: tuple


def make_clifford_generators(n: int) -> CliffordGenerators:
    return CliffordGenerators(n, tuple(gamma(j, n) for j in range(1, 2 * n + 1)))
