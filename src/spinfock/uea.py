"""Exact normal ordering in the enveloping algebra of so(2n+1), and its named polynomials.

The element type, ``UEAPolynomial`` with ``GaussianRational`` coefficients,
lives in ``so_algebra`` beside the symbols and structure constants it is built
on. Normal form sorts every word non-decreasingly under the lexicographic
symbol order, rewriting adjacent descents via ``X Y = Y X + [X, Y]``; each
correction term is a strictly shorter word, so rewriting terminates, and the
Jacobi identity makes the result independent of the rewrite order. The Lie
bracket of a and b is ``pbw_normalize(commutator(a, b))``; they commute iff it is zero.

The named polynomials are the quasi-Hamiltonian's parts: T_k
(``cartan_symbol``), L_k (``mode_laplacian``) and their sums P0 and B0
(``quasi_hamiltonian_symbols``), from which ``hamiltonian`` takes its parts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict

from . import so_algebra
from .errors import SizeError
from .so_algebra import I, GaussianRational, UEAPolynomial, Word, accumulate


def zero(n: int) -> UEAPolynomial:
    return UEAPolynomial(n, {})


def symbol_poly(n: int, sym: so_algebra.Symbol, coeff=1) -> UEAPolynomial:
    return so_algebra.basis_element(n, *sym, coeff)


def uea_multiply(p: UEAPolynomial, q: UEAPolynomial) -> UEAPolynomial:
    """Free-algebra product: concatenate words, bilinear over terms."""
    if p.n != q.n:
        raise SizeError(f"mode counts differ: {p.n} != {q.n}")
    out: Dict[Word, GaussianRational] = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            accumulate(out, wp + wq, cp * cq)
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
            accumulate(result, word, coeff)
            continue
        i = descents[0] if descent_rng is None else descent_rng.choice(descents)
        a, b = word[i], word[i + 1]
        swapped = word[:i] + (b, a) + word[i + 2 :]
        accumulate(work, swapped, coeff)
        for sym, sign in so_algebra.bracket_symbols(a, b):
            shorter = word[:i] + (sym,) + word[i + 2 :]
            accumulate(work, shorter, coeff * sign)
    return UEAPolynomial(p.n, result)


def mode_laplacian(ell: int, n: int) -> UEAPolynomial:
    """Second-order element X_{2l-1,2n+1}^2 + X_{2l,2n+1}^2 for mode l."""
    N = so_algebra.matrix_size(n)
    a = (2 * ell - 1, N)
    b = (2 * ell, N)
    return UEAPolynomial(n, {(a, a): 1, (b, b): 1})


def cartan_symbol(k: int, n: int) -> so_algebra.Symbol:
    return (2 * k - 1, 2 * k)


def commutator_LU(ell: int, k: int, n: int) -> UEAPolynomial:
    """Normal form of [X_{2l-1,2n+1}^2 + X_{2l,2n+1}^2, X_{2k-1,2k}].

    Expected to be the exact zero polynomial for every mode pair.
    """
    lhs = mode_laplacian(ell, n)
    rhs = symbol_poly(n, cartan_symbol(k, n))
    return pbw_normalize(commutator(lhs, rhs))


def quasi_hamiltonian_symbols(n: int, energies) -> tuple:
    """Exact parts P0 = -sum_k E_k L_k and B0 = -sum_k E_k T_k of the quasi-Hamiltonian.

    Returns (second_order, first_order), each energy taken as its Fraction (a
    float as the rational it stores), so the identity H = P0 + i B0 and the
    commutation of the two parts can be checked exactly.
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

