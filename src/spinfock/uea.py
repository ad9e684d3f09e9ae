"""Exact normal ordering in the enveloping algebra of so(2n+1).

Elements are finite sums of words in the basis symbols ``(j, k)`` with
Gaussian-rational coefficients, so zero tests are exact. Normal form sorts
every word non-decreasingly under the lexicographic symbol order, rewriting
adjacent descents via ``X Y = Y X + [X, Y]``; each correction term is a
strictly shorter word, so rewriting terminates, and the Jacobi identity makes
the result independent of the rewrite order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from . import so_algebra
from .errors import SizeError

Word = Tuple[so_algebra.Symbol, ...]


def _accumulate(terms: dict, word, coeff) -> None:
    """terms[word] += coeff, without adding a zero to a new word."""
    prev = terms.get(word)
    terms[word] = coeff if prev is None else prev + coeff


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to an exact Gaussian rational")

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not other:
            return self
        if not self:
            return other
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __mul__(self, other):
        # the structure constants are +-1, so these two skip most products
        if type(other) is int and other in (1, -1):
            return self if other == 1 else -self
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


@dataclass(frozen=True, eq=False)
class UEAPolynomial:
    """Sum of words with exact coefficients; the empty word is the unit."""

    n: int
    terms: Dict[Word, GaussianRational]

    def __post_init__(self):
        canon: Dict[Word, GaussianRational] = {}
        for word, coeff in self.terms.items():
            coeff = GaussianRational.coerce(coeff)
            if not coeff:
                continue
            for sym in word:
                so_algebra.check_symbol(sym, self.n)
            _accumulate(canon, tuple(word), coeff)
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
            _accumulate(merged, w, c)
        return UEAPolynomial(self.n, merged)

    def __neg__(self) -> "UEAPolynomial":
        return UEAPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "UEAPolynomial") -> "UEAPolynomial":
        return self + (-other)

    def scale(self, coeff) -> "UEAPolynomial":
        coeff = GaussianRational.coerce(coeff)
        return UEAPolynomial(self.n, {w: coeff * c for w, c in self.terms.items()})


def unit(n: int) -> UEAPolynomial:
    return UEAPolynomial(n, {(): ONE})


def zero(n: int) -> UEAPolynomial:
    return UEAPolynomial(n, {})


def symbol_poly(n: int, sym: so_algebra.Symbol, coeff=1) -> UEAPolynomial:
    return UEAPolynomial(n, {(sym,): GaussianRational.coerce(coeff)})


def word_poly(n: int, word: Word, coeff=1) -> UEAPolynomial:
    return UEAPolynomial(n, {tuple(word): GaussianRational.coerce(coeff)})


def uea_multiply(p: UEAPolynomial, q: UEAPolynomial) -> UEAPolynomial:
    """Free-algebra product: concatenate words, bilinear over terms."""
    if p.n != q.n:
        raise SizeError(f"mode counts differ: {p.n} != {q.n}")
    out: Dict[Word, GaussianRational] = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            _accumulate(out, wp + wq, cp * cq)
    return UEAPolynomial(p.n, out)


def commutator(p: UEAPolynomial, q: UEAPolynomial) -> UEAPolynomial:
    return uea_multiply(p, q) - uea_multiply(q, p)


def _descents(word: Word):
    return [i for i in range(len(word) - 1) if word[i] > word[i + 1]]


def pbw_normalize(
    p: UEAPolynomial, descent_rng: random.Random | None = None
) -> UEAPolynomial:
    """Rewrite every word into non-decreasing order, modulo the commutation ideal.

    ``descent_rng`` picks which adjacent descent to rewrite next; any choice
    yields the same normal form (used by the confluence tests).
    """
    result: Dict[Word, GaussianRational] = {}
    work: Dict[Word, GaussianRational] = dict(p.terms)
    while work:
        word, coeff = work.popitem()
        if not coeff:
            continue
        descents = _descents(word)
        if not descents:
            _accumulate(result, word, coeff)
            continue
        i = descents[0] if descent_rng is None else descent_rng.choice(descents)
        a, b = word[i], word[i + 1]
        swapped = word[:i] + (b, a) + word[i + 2 :]
        _accumulate(work, swapped, coeff)
        for sym, sign in so_algebra.bracket_symbols(a, b):
            shorter = word[:i] + (sym,) + word[i + 2 :]
            _accumulate(work, shorter, coeff * sign)
    return UEAPolynomial(p.n, result)


def mode_laplacian(ell: int, n: int) -> UEAPolynomial:
    """Second-order element X_{2l-1,2n+1}^2 + X_{2l,2n+1}^2 for mode l."""
    N = so_algebra.matrix_size(n)
    a = (2 * ell - 1, N)
    b = (2 * ell, N)
    return word_poly(n, (a, a)) + word_poly(n, (b, b))


def cartan_symbol(k: int, n: int) -> so_algebra.Symbol:
    return (2 * k - 1, 2 * k)


def commutator_LU(ell: int, k: int, n: int) -> UEAPolynomial:
    """Normal form of [X_{2l-1,2n+1}^2 + X_{2l,2n+1}^2, X_{2k-1,2k}].

    Expected to be the exact zero polynomial for every mode pair.
    """
    lhs = mode_laplacian(ell, n)
    rhs = symbol_poly(n, cartan_symbol(k, n))
    return pbw_normalize(commutator(lhs, rhs))


def uea_commuting_pair_check(p: UEAPolynomial, q: UEAPolynomial) -> bool:
    """True iff p and q commute exactly in the enveloping algebra."""
    return pbw_normalize(commutator(p, q)).is_zero()


def quasi_hamiltonian_symbols(n: int, energies) -> tuple:
    """Exact second-order and first-order parts of the quasi-Hamiltonian.

    Returns (second_order, first_order) with rational mode energies, so the
    identity H = second_order + i * first_order and the commutation of the two
    parts can be checked exactly. Energies must be rational.
    """
    if len(energies) != n:
        raise SizeError(f"need {n} energies, got {len(energies)}")
    second = zero(n)
    first = zero(n)
    for k, e in enumerate(energies, start=1):
        e = Fraction(e)
        second += mode_laplacian(k, n).scale(-e)
        first += symbol_poly(n, cartan_symbol(k, n), coeff=-e)
    return second, first


def spin_matrix_of(p: UEAPolynomial) -> np.ndarray:
    """Multiplicative extension of the spin representation to words."""
    dim = 1 << p.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in p.terms.items():
        mat = np.eye(dim, dtype=complex)
        for sym in word:
            mat = mat @ so_algebra.spin_rep(so_algebra.basis_element(p.n, *sym))
        out += coeff.to_complex() * mat
    return out
