"""The complex Lie algebra so(2n+1): basis, structure constants, elements, and representations.

Basis elements are indexed by ordered pairs ``(j, k)`` with
``1 <= j < k <= 2n+1``; the defining matrix of ``(j, k)`` has ``+1`` at row
``j``, column ``k`` and ``-1`` at row ``k``, column ``j``.

One element type serves so(2n+1) and its enveloping algebra:
``UEAPolynomial``, a sum of words in the basis symbols with exact
``GaussianRational`` coefficients (integral parts held as ints), so zero
tests are exact. An element of so(2n+1) is a sum of one-symbol words. The
constructor reads a reversed pair ``(k, j)`` as -X_jk in every symbol of a
word, and converts a float or complex coefficient exactly, as the Fraction
of each part. ``uea`` adds normal ordering, and with it the Lie bracket (the
normal-ordered commutator), and the named polynomials of the quasi-Hamiltonian.

A representation is its image function, ``defining_rep`` or ``spin_rep``
below; each reads n from the element and extends multiplicatively to words.
The spin representation acts on the 2^n-dimensional Fock space:

    spin(X_{j,2n+1}) = gamma_j / 2             (j <= 2n)
    spin(X_{jk})     = gamma_k gamma_j / 2     (j < k <= 2n)

The second rule is the unique choice (given the first) that turns the matrix
commutators of the defining basis into commutators of the images; with the
opposite product order the bracket of two vector-type generators comes out
with the wrong sign. A product of Clifford monomials is a monomial, so a
word of m symbols maps to 2^-m times the one monomial of its concatenated
gamma indices, which ``spin_rep`` writes from one ``fock.monomial`` call (a
bit flip and a phase per state), with no dense product. An element whose
words all flip the same bits maps to one signed bit flip (Bravyi & Kitaev,
Ann. Phys. 298, 210, 2002): ``spin_flip`` gives its (flip, phase), and
``spin_diagonal`` the phase where the flip is 0, summed as ``spin_rep`` sums
it but with no 2^n x 2^n matrix; ``verify``, ``spectrum`` and ``fk`` read these.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from . import fock
from .errors import DomainError, IndexRangeError, SizeError

Symbol = Tuple[int, int]
Word = Tuple[Symbol, ...]


def matrix_size(n: int) -> int:
    return 2 * n + 1


def symbols(n: int) -> list:
    """All ordered basis pairs (j, k), j < k, in lexicographic order."""
    N = matrix_size(n)
    return [(j, k) for j in range(1, N + 1) for k in range(j + 1, N + 1)]


def accumulate(terms: dict, word, coeff) -> None:
    """terms[word] += coeff, without adding a zero to a new word."""
    prev = terms.get(word)
    terms[word] = coeff if prev is None else prev + coeff


class GaussianRational:
    """Exact complex number with rational parts. An integral part is held as an int, so
    Gaussian-integer arithmetic skips Fraction; ``re`` and ``im`` read as Fraction."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        self._re, self._im = _rational(re), _rational(im)

    re = property(lambda self: Fraction(self._re))
    im = property(lambda self: Fraction(self._im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._re, self._im))  # an int hashes as its Fraction

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to an exact Gaussian rational")

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not (other._re or other._im):
            return self
        if not (self._re or self._im):
            return other
        return GaussianRational(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self._re, -self._im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __mul__(self, other):
        # the structure constants are +-1, so these two skip most products
        if type(other) is int and other in (1, -1):
            return self if other == 1 else -self
        other = GaussianRational.coerce(other)
        if not (self._im or other._im):  # energies and structure constants are real
            return GaussianRational(self._re * other._re)
        return GaussianRational(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._re) or bool(self._im)

    def to_complex(self) -> complex:
        return complex(float(self._re), float(self._im))


def _rational(x):
    """A part as held: an int if it is integral, else its Fraction."""
    x = x if type(x) in (int, Fraction) else Fraction(x)
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


I = GaussianRational(Fraction(0), Fraction(1))


def _exact(value) -> GaussianRational:
    """A polynomial coefficient, exact: a float or complex becomes the Fraction of each part."""
    if isinstance(value, (GaussianRational, int, Fraction)):
        return GaussianRational.coerce(value)
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"coefficients must be finite, got {value}")
    return GaussianRational(Fraction(value.real), Fraction(value.imag))


@dataclass(frozen=True, eq=False)
class UEAPolynomial:
    """Sum of words with exact coefficients; the empty word is the unit."""

    n: int
    terms: Dict[Word, GaussianRational]

    def __post_init__(self):
        fock.check_mode_count(self.n)
        N = matrix_size(self.n)
        canon: Dict[Word, GaussianRational] = {}
        for word, coeff in self.terms.items():
            if type(coeff) is not GaussianRational:
                coeff = _exact(coeff)
            ordered = []
            for j, k in word:
                if j > k:
                    j, k, coeff = k, j, -coeff
                if not 1 <= j < k <= N:
                    raise IndexRangeError(f"basis pair must satisfy 1 <= j < k <= {N}, got {(j, k)}")
                ordered.append((j, k))
            accumulate(canon, tuple(ordered), coeff)
        object.__setattr__(self, "terms", {w: c for w, c in canon.items() if c})

    def __eq__(self, other) -> bool:
        if not isinstance(other, UEAPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UEAPolynomial") -> "UEAPolynomial":
        if self.n != other.n:
            raise SizeError(f"mode counts differ: {self.n} != {other.n}")
        merged = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(merged, w, c)
        return UEAPolynomial(self.n, merged)

    def __neg__(self) -> "UEAPolynomial":
        return UEAPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "UEAPolynomial") -> "UEAPolynomial":
        return self + (-other)

    def scale(self, coeff) -> "UEAPolynomial":
        coeff = _exact(coeff)
        return UEAPolynomial(self.n, {w: coeff * c for w, c in self.terms.items()})


def basis_element(n: int, j: int, k: int, coeff=1) -> UEAPolynomial:
    return UEAPolynomial(n, {((j, k),): coeff})


def bracket_symbols(a: Symbol, b: Symbol):
    """Structure constants: [X_a, X_b] as ((j, k), integer sign) terms, of canonical pairs.

    From the matrix commutator of e_j (x) e_k - e_k (x) e_j wedges,
    [X_{ri}, X_{sj}] = d_{is} X_{rj} + d_{rj} X_{is} - d_{ij} X_{rs} - d_{rs} X_{ij};
    distinct pairs share at most one index, so at most one delta holds, read off by cases.
    """
    r, i = a
    s, j = b
    if i == s:
        return (((r, j), 1),)
    if r == j:
        return (((s, i), -1),)
    if a == b:
        return ()
    if i == j:
        return (((r, s), -1),) if r < s else (((s, r), 1),)
    if r == s:
        return (((i, j), -1),) if i < j else (((j, i), 1),)
    return ()


def defining_rep(elem: UEAPolynomial) -> np.ndarray:
    """Defining image: a word maps to the product of its symbols' unit matrices.

    X_jk takes e_k to e_j, e_j to -e_k and the rest to 0, so the product is a signed
    partial permutation, followed from the two columns the last symbol keeps.
    """
    N = matrix_size(elem.n)
    out = np.zeros((N, N), dtype=complex)
    for word, coeff in elem.terms.items():
        value = coeff.to_complex()
        for col in word[-1] if word else range(1, N + 1):
            row, image = col, value
            for j, k in reversed(word):
                if row not in (j, k):
                    break
                row, image = (j, image) if row == k else (k, -image)
            else:
                out[row - 1, col - 1] += image
    return out


def _spin_monomials(elem: UEAPolynomial):
    """Each word of m symbols as (flip, coeff 2^-m phase), from one monomial."""
    N = matrix_size(elem.n)
    for word, coeff in elem.terms.items():
        indices = [i for j, k in word for i in ((j,) if k == N else (k, j))]
        flip, phase = fock.monomial(indices, elem.n)
        yield flip, coeff.to_complex() * 0.5 ** len(word) * phase


def spin_rep(elem: UEAPolynomial) -> np.ndarray:
    """Spin image: each word adds its coeff 2^-m phase at (b XOR flip, b)."""
    cols = np.arange(fock.fock_dim(elem.n))
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for flip, values in _spin_monomials(elem):
        out[cols ^ flip, cols] += values
    return out


def spin_flip(elem: UEAPolynomial) -> tuple:
    """Spin image as (flip, phase), summed as spin_rep sums it; DomainError if words flip different bits."""
    words = list(_spin_monomials(elem))
    if len({flip for flip, _ in words}) > 1:
        raise DomainError(f"the spin image is no signed bit flip: its words flip {[f for f, _ in words]}")
    return (words[0][0] if words else 0), sum((v for _, v in words), np.zeros(fock.fock_dim(elem.n), complex))


def spin_diagonal(elem: UEAPolynomial) -> np.ndarray:
    """Diagonal of the spin image, spin_flip's phase; DomainError if a word flips a bit."""
    flip, phase = spin_flip(elem)
    if flip:
        raise DomainError(f"the spin image is not diagonal: a word flips the bits {flip:#b}")
    return phase


def ladder_element(j: int, n: int) -> UEAPolynomial:
    """Raising element for j > 0, lowering for j < 0.

    The spin image of the raising element is c_|j|^dagger, of the lowering
    element c_|j|.
    """
    k = abs(j)
    if j == 0 or k > n:
        raise IndexRangeError(f"signed mode must satisfy 1 <= |j| <= {n}, got {j}")
    N = matrix_size(n)
    return UEAPolynomial(n, {((2 * k - 1, N),): 1 if j > 0 else -1, ((2 * k, N),): I})


def cartan_element(j: int, n: int) -> UEAPolynomial:
    """H_j = (1/2) [E_j, E_{-j}] = -i X_{2j-1,2j}; spin image N_j - 1/2."""
    if not 1 <= j <= n:
        raise IndexRangeError(f"mode index must satisfy 1 <= j <= {n}, got {j}")
    return UEAPolynomial(n, {((2 * j - 1, 2 * j),): -I})


def spanned_algebra_dimension(n: int) -> int:
    """Dimension of the matrix algebra the spin basis images generate; 4^n shows irreducibility.

    A product of the images is a monomial matrix, so there are at most 4^n up to
    a scalar: one of each, scaled to 1 at its nonzero entry in column 0, is ranked.
    """
    gens = [spin_rep(basis_element(n, *sym)) for sym in symbols(n)]
    found, frontier = {}, [np.eye(fock.fock_dim(n), dtype=complex)]
    while frontier:
        mat = frontier.pop()
        rows = np.flatnonzero(mat[:, 0])
        if rows.size:  # a zero product spans nothing
            mat = mat / mat[rows[0], 0] + 0.0  # + 0.0: -0.0 and 0.0 give one key
            key = mat.tobytes()
            if key not in found:
                found[key] = mat
                frontier += [mat @ g for g in gens]
    return int(np.linalg.matrix_rank(np.array([m.ravel() for m in found.values()])))
