"""Fermionic Fock space over n modes, with Clifford generators and ladder operators.

Basis states are indexed by occupation bitmasks ``b``: bit ``k-1`` set means
mode ``k`` is occupied. The vacuum is bitmask 0. The 2n Clifford generators,
{gamma_j, gamma_k} = -2 delta_jk, flip the bit of their mode k with a sign,
the parity of the occupied modes up to k (odd j) or below k (even j):

    gamma_{2k-1} e_b =    (-1)**|b & (2^k - 1)|     e_(b XOR 2^(k-1))
    gamma_{2k}   e_b = -i (-1)**|b & (2^(k-1) - 1)| e_(b XOR 2^(k-1))

So gamma_{i1} ... gamma_{im} takes e_b to phase[b] e_(b XOR flip), phase[b] a
power of i; ``monomial`` computes the pair, the one Jordan-Wigner rule, from a
table built on first use for each n: row j-1 is gamma_j's exponent of i at
every state, its parities one ``np.bitwise_xor.accumulate`` over the bits. A
word folds right to left, each factor reading its row at the states that the
factors to its right reached. ``ladder`` gives the pair of c_k^dagger =
(gamma_{2k-1} + i gamma_{2k}) / 2, which creates mode k with the sign
(-1)**(# occupied modes < k), that of sorting ``e_k`` into an ascending wedge
word, or of c_k = (-gamma_{2k-1} + i gamma_{2k}) / 2. No matrix is built here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import IndexRangeError, SizeError

# Dense 2^n x 2^n matrices must stay desk-sized.
MAX_MODES = 12

# Largest run the library takes, in amplitude updates counted from its inputs before
# any matrix is built or sample drawn: 400x the largest documented run (2.4e7, fk --n 2
# --paths 20000 --t-grid 0.1,0.3), or minutes to a quarter hour on one core.
MAX_AMPLITUDE_STEPS = 10**10

# Bytes of each array of a Monte Carlo chunk: a chunk holds as many paths or samples
# as fit, and at least one (sde takes whole path blocks, and whole steps per
# step-block). A smaller budget adds interpreter overhead per chunk and step-block.
MAX_ARRAY_BYTES = 1 << 20


def fock_dim(n: int) -> int:
    """Dimension 2**n of the n-mode Fock space."""
    return 1 << n


def check_mode_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_MODES:
        raise SizeError(f"mode count must be an integer in [1, {MAX_MODES}], got {n!r}")


def check_work(formula: str, work: float) -> None:
    """SizeError if work, a run's amplitude updates by the named formula, exceeds the budget."""
    if work > MAX_AMPLITUDE_STEPS:
        raise SizeError(f"{formula} = {work:.0f} exceeds the budget of {MAX_AMPLITUDE_STEPS:.0f}")


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


# i**e by e mod 4; complex(0, -1), not -1j, whose real part is -0.0
_POWERS_OF_I = np.array([1, 1j, -1, complex(0, -1)])


@functools.cache
def _exponents(n: int) -> np.ndarray:
    """Row j-1 holds gamma_j's exponent of i at every state b, from the module docstring."""
    bits = np.arange(fock_dim(n))[None, :] >> np.arange(n)[:, None] & 1
    upto = 2 * np.bitwise_xor.accumulate(bits)  # row k-1: 2 x the parity of bits 0..k-1
    below = np.concatenate([np.zeros_like(upto[:1]), upto[:-1]]) + 3
    table = np.stack([upto, below], axis=1).reshape(2 * n, -1)
    table.flags.writeable = False  # the cache hands this one array to every call
    return table


def monomial(indices, n: int) -> tuple:
    """gamma_{i1} ... gamma_{im} as (flip, phase): it takes e_b to phase[b] e_(b XOR flip)."""
    check_mode_count(n)
    table, flip, states = _exponents(n), 0, np.arange(fock_dim(n))
    exponent = np.zeros(len(states), dtype=int)
    for j in reversed(indices):
        if not 1 <= j <= 2 * n:
            raise IndexRangeError(f"Clifford index must satisfy 1 <= j <= {2 * n}, got {j}")
        exponent += table[j - 1][states ^ flip]
        flip ^= 1 << ((j - 1) // 2)
    return flip, _POWERS_OF_I[exponent % 4]


def ladder(k: int, n: int) -> tuple:
    """c_k^dagger (k > 0) or c_|k| (k < 0) as (flip, phase), from gamma_{2|k|-1} and gamma_{2|k|}."""
    _check_mode(abs(k), n)
    flip, odd = monomial((2 * abs(k) - 1,), n)
    phase = 0.5 * (odd + 1j * monomial((2 * abs(k),), n)[1])
    # c_k, the adjoint, takes e_x to conj(phase[x XOR flip]) e_(x XOR flip)
    return (flip, phase) if k > 0 else (flip, phase[np.arange(len(phase)) ^ flip].conj())
