"""The complex Lie algebra so(2n+1): basis, brackets, and representations.

Basis elements are indexed by ordered pairs ``(j, k)`` with
``1 <= j < k <= 2n+1``; the defining matrix of ``(j, k)`` has ``+1`` at row
``j``, column ``k`` and ``-1`` at row ``k``, column ``j``. Reversed pairs
normalize to the negated ordered pair at construction time, so coefficient
maps stay canonical.

A representation is its image function, ``defining_rep`` or ``spin_rep``
below; both read n from the element.

The spin representation acts on the 2^n-dimensional Fock space:

    spin(X_{j,2n+1}) = gamma_j / 2             (j <= 2n)
    spin(X_{jk})     = gamma_k gamma_j / 2     (j < k <= 2n)

The second rule is the unique choice (given the first) that turns the matrix
commutators of the defining basis into commutators of the images; with the
opposite product order the bracket of two vector-type generators comes out
with the wrong sign. Both images are Clifford monomials, which ``spin_rep``
writes from ``fock.monomial`` (a bit flip and a phase per state), not as products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import fock
from .errors import IndexRangeError, NonWeightVectorError, SizeError

Symbol = Tuple[int, int]


def matrix_size(n: int) -> int:
    return 2 * n + 1


def symbols(n: int) -> list:
    """All ordered basis pairs (j, k), j < k, in lexicographic order."""
    N = matrix_size(n)
    return [(j, k) for j in range(1, N + 1) for k in range(j + 1, N + 1)]


def check_symbol(sym: Symbol, n: int) -> None:
    j, k = sym
    if not (1 <= j < k <= matrix_size(n)):
        raise IndexRangeError(
            f"basis pair must satisfy 1 <= j < k <= {matrix_size(n)}, got {sym}"
        )


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Sparse complex combination of the basis elements X_{jk}."""

    n: int
    coefficients: Dict[Symbol, complex]

    def __post_init__(self):
        fock.check_mode_count(self.n)
        canon: Dict[Symbol, complex] = {}
        for (j, k), value in self.coefficients.items():
            value = complex(value)
            if j == k:
                raise IndexRangeError(f"diagonal pair ({j}, {k}) is not a basis element")
            if j > k:
                j, k, value = k, j, -value
            check_symbol((j, k), self.n)
            canon[(j, k)] = canon.get((j, k), 0.0) + value
        object.__setattr__(
            self, "coefficients", {s: v for s, v in sorted(canon.items()) if v != 0}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.coefficients == other.coefficients

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise SizeError(f"mode counts differ: {self.n} != {other.n}")
        merged = dict(self.coefficients)
        for sym, v in other.coefficients.items():
            merged[sym] = merged.get(sym, 0.0) + v
        return AlgebraElement(self.n, merged)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, {s: -v for s, v in self.coefficients.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, scalar) -> "AlgebraElement":
        scalar = complex(scalar)
        return AlgebraElement(self.n, {s: scalar * v for s, v in self.coefficients.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coefficients


def zero_element(n: int) -> AlgebraElement:
    return AlgebraElement(n, {})


def basis_element(n: int, j: int, k: int, coeff=1.0) -> AlgebraElement:
    return AlgebraElement(n, {(j, k): coeff})


def bracket_symbols(a: Symbol, b: Symbol):
    """Structure constants: [X_a, X_b] as ((j, k), integer sign) terms.

    Derived from the matrix commutator of e_j (x) e_k - e_k (x) e_j wedges:
    [X_{ri}, X_{sj}] = d_{is} X_{rj} + d_{rj} X_{is} - d_{ij} X_{rs} - d_{rs} X_{ij}.
    """
    r, i = a
    s, j = b
    raw = (
        (i == s, r, j, 1),
        (r == j, i, s, 1),
        (i == j, r, s, -1),
        (r == s, i, j, -1),
    )
    acc: Dict[Symbol, int] = {}
    for hit, p, q, sign in raw:
        if not hit or p == q:
            continue
        if p > q:
            p, q, sign = q, p, -sign
        acc[(p, q)] = acc.get((p, q), 0) + sign
    return tuple((sym, sign) for sym, sign in acc.items() if sign != 0)


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Lie bracket, extended bilinearly from the basis structure constants."""
    if a.n != b.n:
        raise SizeError(f"mode counts differ: {a.n} != {b.n}")
    terms: Dict[Symbol, complex] = {}
    for sa, va in a.coefficients.items():
        for sb, vb in b.coefficients.items():
            for sym, sign in bracket_symbols(sa, sb):
                terms[sym] = terms.get(sym, 0.0) + va * vb * sign
    return AlgebraElement(a.n, terms)


def defining_basis_matrix(j: int, k: int, n: int) -> np.ndarray:
    """Real antisymmetric (2n+1) x (2n+1) matrix of the basis pair (j, k)."""
    check_symbol((j, k), n)
    N = matrix_size(n)
    m = np.zeros((N, N))
    m[j - 1, k - 1] = 1.0
    m[k - 1, j - 1] = -1.0
    return m


def defining_rep(elem: AlgebraElement) -> np.ndarray:
    N = matrix_size(elem.n)
    out = np.zeros((N, N), dtype=complex)
    for (j, k), v in elem.coefficients.items():
        out[j - 1, k - 1] += v
        out[k - 1, j - 1] -= v
    return out


def spin_rep(elem: AlgebraElement) -> np.ndarray:
    """Spin image: each basis pair adds v (phase / 2) at (b XOR flip, b), from fock.monomial."""
    N = matrix_size(elem.n)
    cols = np.arange(fock.fock_dim(elem.n))
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for (j, k), v in elem.coefficients.items():
        flip, phase = fock.monomial((j,) if k == N else (k, j), elem.n)
        out[cols ^ flip, cols] += v * 0.5 * phase
    return out


def ladder_element(j: int, n: int) -> AlgebraElement:
    """Raising element for j > 0, lowering for j < 0.

    The spin image of the raising element is c_|j|^dagger, of the lowering
    element c_|j|.
    """
    k = abs(j)
    if j == 0 or k > n:
        raise IndexRangeError(f"signed mode must satisfy 1 <= |j| <= {n}, got {j}")
    sign = 1.0 if j > 0 else -1.0
    N = matrix_size(n)
    return AlgebraElement(n, {(2 * k - 1, N): sign, (2 * k, N): 1j})


def cartan_element(j: int, n: int) -> AlgebraElement:
    """H_j = (1/2) [E_j, E_{-j}] = -i X_{2j-1,2j}; spin image N_j - 1/2."""
    if not 1 <= j <= n:
        raise IndexRangeError(f"mode index must satisfy 1 <= j <= {n}, got {j}")
    return AlgebraElement(n, {(2 * j - 1, 2 * j): -1j})


def weight_of(v: fock.FockVector, tol: float = 1e-10) -> np.ndarray:
    """Weight of a simultaneous eigenvector of the Cartan generators.

    Basis state e_S has weight entry +1/2 at occupied modes and -1/2 at
    empty ones. Raises NonWeightVectorError if v fails to be an eigenvector
    of some spin Cartan matrix within ``tol``.
    """
    norm = v.norm()
    if norm == 0:
        raise NonWeightVectorError("zero vector has no weight")
    weights = np.empty(v.n)
    for j in range(1, v.n + 1):
        h = spin_rep(cartan_element(j, v.n))
        hv = h @ v.amplitudes
        w = np.vdot(v.amplitudes, hv) / norm**2
        if np.linalg.norm(hv - w * v.amplitudes) > tol * norm:
            raise NonWeightVectorError(
                f"not an eigenvector of the Cartan generator for mode {j}"
            )
        weights[j - 1] = w.real
    return weights


def spanned_algebra_dimension(n: int, max_word_len: int | None = None) -> int:
    """Dimension of the matrix algebra generated by the spin basis images.

    Grows the linear span of words in the generators (up to the given length)
    and reports its dimension; 4^n means the images generate the full matrix
    algebra. Used as irreducibility evidence.
    """
    dim = fock.fock_dim(n)
    if max_word_len is None:
        max_word_len = matrix_size(n)
    gens = [spin_rep(basis_element(n, *sym)) for sym in symbols(n)]

    ortho: list = []

    def absorb(mat: np.ndarray) -> bool:
        vec = mat.ravel().astype(complex)
        for q in ortho:
            vec = vec - np.vdot(q, vec) * q
        norm = np.linalg.norm(vec)
        if norm < 1e-10:
            return False
        ortho.append(vec / norm)
        return True

    frontier = [np.eye(dim, dtype=complex)]
    absorb(frontier[0])
    for _ in range(max_word_len):
        new_frontier = []
        for mat in frontier:
            for g in gens:
                prod = mat @ g
                if absorb(prod):
                    new_frontier.append(prod)
        if not new_frontier or len(ortho) == dim * dim:
            break
        frontier = new_frontier
    return len(ortho)
