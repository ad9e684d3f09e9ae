import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfock import so_algebra as so, uea
from spinfock.errors import SizeError


def random_poly(n, rng, max_terms=5, max_len=3, max_coeff=3):
    syms = so.symbols(n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, max_len)))
        coeff = uea.GaussianRational(
            Fraction(rng.randint(-max_coeff, max_coeff)),
            Fraction(rng.randint(-max_coeff, max_coeff)),
        )
        terms[word] = terms.get(word, uea.GaussianRational()) + coeff
    return uea.UEAPolynomial(n, terms)


def gaussian_rationals():
    parts = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    zero_or = st.one_of(st.just(Fraction(0)), parts)
    return st.builds(uea.GaussianRational, zero_or, zero_or)


class TestGaussianRational:
    def test_arithmetic(self):
        a = uea.GaussianRational(Fraction(1, 2), Fraction(1))
        b = uea.GaussianRational(Fraction(2), Fraction(-1, 3))
        assert (a * b).to_complex() == pytest.approx(a.to_complex() * b.to_complex())
        assert (a - a).to_complex() == 0
        assert not (a - a)
        assert uea.I * uea.I == uea.GaussianRational(Fraction(-1))

    def test_integral_parts_read_as_fractions(self):
        # an integral part is held as an int, but compares, hashes and reads as its Fraction
        mixed = uea.GaussianRational(3, Fraction(1, 2))
        same = uea.GaussianRational(Fraction(6, 2), Fraction(0.5))
        assert mixed == same
        assert hash(mixed) == hash(same) == hash((Fraction(3), Fraction(1, 2)))
        assert type(mixed.re) is Fraction and type(mixed.im) is Fraction
        assert (mixed.re, mixed.im) == (Fraction(3), Fraction(1, 2))
        assert repr(mixed) == "GaussianRational(re=Fraction(3, 1), im=Fraction(1, 2))"
        product = mixed * uea.GaussianRational(Fraction(2), Fraction(-4, 2))
        assert product == uea.GaussianRational(Fraction(7), Fraction(-5))
        assert type(product.re) is Fraction and product.to_complex() == complex(7, -5)
        assert uea.GaussianRational(Fraction(0.1)).to_complex() == complex(0.1, 0)
        assert mixed != 3 and mixed != (3, Fraction(1, 2))
        with pytest.raises(AttributeError):
            mixed.re = Fraction(1)

    def test_coerce_rejects_floats(self):
        with pytest.raises(TypeError):
            uea.GaussianRational.coerce(0.5)

    @settings(max_examples=100, deadline=None)
    @given(gaussian_rationals(), gaussian_rationals())
    def test_shortcuts_match_fraction_arithmetic(self, x, y):
        # adding zero and multiplying by +-1 skip the arithmetic; the results
        # must be those of plain Fraction arithmetic, on either side
        zero = uea.GaussianRational()
        for z in (zero, 0):
            assert x + z == z + x == uea.GaussianRational(x.re + 0, x.im + 0)
        assert x * 1 == 1 * x == uea.GaussianRational(x.re * 1, x.im * 1)
        assert x * -1 == -1 * x == uea.GaussianRational(x.re * -1, x.im * -1)
        assert x + y == uea.GaussianRational(x.re + y.re, x.im + y.im)
        assert x * y == uea.GaussianRational(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)

    @settings(max_examples=50, deadline=None)
    @given(gaussian_rationals())
    def test_cancellation_drops_term(self, x):
        assert not x + (-x)
        word = ((1, 2), (1, 3))
        p = so.UEAPolynomial(1, {word: x}) + so.UEAPolynomial(1, {word: -x})
        assert p.is_zero()
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            x + 0.5


class TestMultiply:
    def test_unit(self):
        p = uea.symbol_poly(1, (1, 2))
        assert uea.uea_multiply(p, so.UEAPolynomial(1, {(): 1})) == p
        assert uea.uea_multiply(so.UEAPolynomial(1, {(): 1}), p) == p

    def test_distributivity(self):
        x12 = uea.symbol_poly(1, (1, 2))
        x13 = uea.symbol_poly(1, (1, 3))
        lhs = uea.uea_multiply(x12 + x13, x12)
        rhs = so.UEAPolynomial(1, {((1, 2), (1, 2)): 1}) + so.UEAPolynomial(1, {((1, 3), (1, 2)): 1})
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = random.Random(seed)
        p, q, r = (random_poly(2, rng, max_terms=3, max_len=2) for _ in range(3))
        lhs = uea.uea_multiply(uea.uea_multiply(p, q), r)
        rhs = uea.uea_multiply(p, uea.uea_multiply(q, r))
        assert lhs == rhs

    def test_mismatched_n(self):
        with pytest.raises(SizeError):
            uea.uea_multiply(so.UEAPolynomial(1, {(): 1}), so.UEAPolynomial(2, {(): 1}))


class TestNormalize:
    def test_single_descent_example(self):
        # X_23 X_12 = X_12 X_23 + [X_23, X_12] = X_12 X_23 - X_13
        p = so.UEAPolynomial(1, {((2, 3), (1, 2)): 1})
        expected = so.UEAPolynomial(1, {((1, 2), (2, 3)): 1}) - uea.symbol_poly(1, (1, 3))
        assert uea.pbw_normalize(p) == expected

    def test_sorted_unchanged(self):
        p = so.UEAPolynomial(2, {((1, 2), (1, 3), (2, 4)): 1})
        assert uea.pbw_normalize(p) == p

    def test_repeated_letters_sorted(self):
        p = so.UEAPolynomial(1, {((1, 2), (1, 2)): 1})
        assert uea.pbw_normalize(p) == p

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_poly(2, rng)
            once = uea.pbw_normalize(p)
            assert uea.pbw_normalize(once) == once

    def test_confluence_under_random_orders(self):
        rng = random.Random(2024)
        for trial in range(100):
            n = rng.choice([1, 2, 3])
            p = random_poly(n, rng)
            reference = uea.pbw_normalize(p)
            shuffled = uea.pbw_normalize(p, descent_rng=random.Random(trial))
            assert shuffled == reference

    def test_representation_compatibility(self):
        # Gaussian-integer coefficients on dyadic images: both sides are exact
        rng = random.Random(5)
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            p = random_poly(n, rng)
            lhs = so.spin_rep(uea.pbw_normalize(p))
            rhs = so.spin_rep(p)
            assert np.array_equal(lhs, rhs)

    def test_exact_coefficients_preserved(self):
        rng = random.Random(9)
        p = random_poly(3, rng)
        for coeff in uea.pbw_normalize(p).terms.values():
            assert isinstance(coeff, uea.GaussianRational)
            assert isinstance(coeff.re, Fraction) and isinstance(coeff.im, Fraction)


class TestCommutators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_second_order_commutes_with_cartan_directions(self, n):
        for ell in range(1, n + 1):
            for k in range(1, n + 1):
                assert uea.commutator_LU(ell, k, n).is_zero()

    def test_quasi_hamiltonian_parts_commute(self):
        second, first = uea.quasi_hamiltonian_symbols(2, [Fraction(1), Fraction(2)])
        assert uea.pbw_normalize(uea.commutator(second, first)).is_zero()

    def test_cartan_directions_commute(self):
        a = uea.symbol_poly(2, uea.cartan_symbol(1, 2))
        b = uea.symbol_poly(2, uea.cartan_symbol(2, 2))
        assert uea.pbw_normalize(uea.commutator(a, b)).is_zero()

    def test_non_commuting_pair(self):
        a, b = uea.symbol_poly(1, (1, 2)), uea.symbol_poly(1, (1, 3))
        assert not uea.pbw_normalize(uea.commutator(a, b)).is_zero()

    def test_quasi_hamiltonian_identity_in_uea(self):
        # sum_k E_k D_k^+ D_k^- equals second_order + i * first_order exactly
        for n, energies in ((1, [Fraction(1)]), (2, [Fraction(1), Fraction(2)])):
            N = 2 * n + 1
            h = uea.zero(n)
            for k, e in enumerate(energies, start=1):
                plus = uea.symbol_poly(n, (2 * k - 1, N)) + uea.symbol_poly(n, (2 * k, N), coeff=uea.I)
                minus = uea.symbol_poly(n, (2 * k - 1, N), coeff=-1) + uea.symbol_poly(
                    n, (2 * k, N), coeff=uea.I
                )
                h += uea.uea_multiply(plus, minus).scale(e)
            second, first = uea.quasi_hamiltonian_symbols(n, energies)
            assert uea.pbw_normalize(h - (second + first.scale(uea.I))).is_zero()
