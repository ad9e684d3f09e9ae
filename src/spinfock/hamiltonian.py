"""Quasi-Hamiltonian assembly, and the diagonals that give its spectrum.

For mode energies 0 < E_1 <= ... <= E_n the quasi-Hamiltonian is
H = sum_k E_k D_k^+ D_k^- with D_k^+/- the representation images of the
raising/lowering elements. It decomposes as H = P0 + i B0 where

    P0 = -sum_k E_k L_k,   L_k = rep(X_{2k-1,2n+1}^2 + X_{2k,2n+1}^2),
    B0 = -sum_k E_k T_k,   T_k = rep(X_{2k-1,2k}),

an identity that holds in any representation because it already holds in the
enveloping algebra. In the spin representation P0 is the scalar
(sum_k E_k)/2 and i B0 = sum_k E_k (N_k - 1/2), both diagonal, as is H.

``rep`` is an image function, ``so_algebra.spin_diagonal`` (every part is
diagonal in the spin representation; H's sorted diagonal is the spectrum) or
``defining_rep`` (the tests also pass the dense ``spin_rep``), the one place
where an algebra element becomes an array. H is the sum of E_k times the
image of each mode's ladder product D_k^+ D_k^-, exact in the enveloping
algebra (``ladder_products``); T_k, L_k and B0 are images of ``uea``'s
``cartan_symbol``, ``mode_laplacian`` and ``quasi_hamiltonian_symbols``, so
each part is defined once. ``build_parts`` takes H from ``quasi_hamiltonian``,
so the two agree bit for bit; the reference for H is the
``factorized-identity`` check, which multiplies vector-type basis images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so_algebra, uea
from .errors import DomainError, SizeError
from .fock import check_mode_count, fock_dim


@dataclass(frozen=True)
class HamiltonianSpec:
    """Mode count and finite, strictly positive, non-decreasing mode energies."""

    n: int
    energies: tuple

    def __post_init__(self):
        check_mode_count(self.n)
        energies = tuple(float(e) for e in self.energies)
        if len(energies) != self.n:
            raise SizeError(f"need {self.n} energies, got {len(energies)}")
        if not (np.isfinite(energies).all() and energies[0] > 0) or list(energies) != sorted(energies):
            raise DomainError(f"energies must be finite with 0 < E_1 <= ... <= E_n, got {energies}")
        object.__setattr__(self, "energies", energies)


@dataclass(frozen=True)
class HamiltonianParts:
    """The quasi-Hamiltonian's parts in one representation: matrices, or the spin diagonals."""

    h_tilde: np.ndarray
    p0: np.ndarray
    b0: np.ndarray
    t: tuple  # per-mode Cartan-direction images T_k
    l: tuple  # per-mode second-order images L_k


def ladder_products(n: int) -> tuple:
    """D_k^+ D_k^-, k = 1..n, each exact in the enveloping algebra."""
    ladder = so_algebra.ladder_element
    return tuple(uea.uea_multiply(ladder(k, n), ladder(-k, n)) for k in range(1, n + 1))


def quasi_hamiltonian(spec: HamiltonianSpec, rep, products=None) -> np.ndarray:
    """H = sum_k E_k rep(D_k^+ D_k^-), from the run's ``ladder_products`` or new ones."""
    h = rep(uea.zero(spec.n))
    for e, product in zip(spec.energies, products or ladder_products(spec.n)):
        h += e * rep(product)
    return h


def build_parts(spec: HamiltonianSpec, rep, products=None) -> HamiltonianParts:
    """Assemble H, P0, B0 and the per-mode pieces under the image function ``rep``."""
    n, modes = spec.n, range(1, spec.n + 1)
    t_mats = tuple(rep(uea.symbol_poly(n, uea.cartan_symbol(k, n))) for k in modes)
    l_mats = tuple(rep(uea.mode_laplacian(k, n)) for k in modes)
    p0, b0 = rep(uea.zero(n)), rep(uea.zero(n))
    for e, tk, lk in zip(spec.energies, t_mats, l_mats):
        p0 -= e * lk
        b0 -= e * tk
    return HamiltonianParts(quasi_hamiltonian(spec, rep, products), p0, b0, t_mats, l_mats)


def number_hamiltonian_diagonal(spec: HamiltonianSpec) -> np.ndarray:
    """Diagonal of sum_k E_k N_k in the occupation basis (independent route)."""
    masks = np.arange(fock_dim(spec.n))
    return sum(e * (masks >> k & 1) for k, e in enumerate(spec.energies))


def subset_sums(spec: HamiltonianSpec) -> np.ndarray:
    """Sorted multiset { sum_{k in S} E_k : S subset of modes }, the sorted diagonal."""
    return np.sort(number_hamiltonian_diagonal(spec))

