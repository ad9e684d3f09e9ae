from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfock import fock, hamiltonian as ham, so_algebra as so, uea
from spinfock.errors import DomainError, IndexRangeError, SizeError
from dense_reference import dense
from test_fock import oracle_gammas


def random_element(n, rng, real=False):
    """A sum of one-symbol words with float coefficients, which the constructor takes exactly."""
    coeffs = {}
    for sym in so.symbols(n):
        if rng.random() < 0.4:
            re = rng.uniform(-1, 1)
            im = 0.0 if real else rng.uniform(-1, 1)
            coeffs[(sym,)] = complex(re, im)
    return so.UEAPolynomial(n, coeffs)


def defining_matrix(n, j, k):
    return so.defining_rep(so.basis_element(n, j, k))


class TestDefiningBasis:
    def test_x12_matrix(self):
        m = defining_matrix(1, 1, 2)
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        assert np.array_equal(m, expected)

    def test_antisymmetry_all_pairs(self):
        for n in (1, 2):
            for j, k in so.symbols(n):
                m = defining_matrix(n, j, k)
                assert np.array_equal(m.T, -m)
                assert np.count_nonzero(m) == 2

    def test_trace_normalization(self):
        # tr(X_{a,2n+1} X_{b,2n+1}) = -2 delta_ab
        for n in (1, 2, 3):
            N = 2 * n + 1
            for a in range(1, 2 * n + 1):
                xa = defining_matrix(n, a, N)
                for b in range(1, 2 * n + 1):
                    xb = defining_matrix(n, b, N)
                    expected = -2.0 if a == b else 0.0
                    assert np.trace(xa @ xb) == expected

    def test_index_violations(self):
        with pytest.raises(IndexRangeError):
            so.basis_element(1, 2, 2)
        with pytest.raises(IndexRangeError):
            so.basis_element(1, 1, 4)
        with pytest.raises(IndexRangeError):
            so.basis_element(1, 3, 3)


class TestBracket:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure_constants_match_matrix_commutators(self, n):
        # independent oracle: expand the defining-rep commutator in the basis
        for a in so.symbols(n):
            for b in so.symbols(n):
                ma = defining_matrix(n, *a)
                mb = defining_matrix(n, *b)
                comm = ma @ mb - mb @ ma
                expected = np.zeros_like(comm)
                for (j, k), sign in so.bracket_symbols(a, b):
                    expected += sign * defining_matrix(n, j, k)
                assert np.array_equal(comm, expected)

    def test_examples(self):
        # the Lie bracket is the normal-ordered commutator
        x12, x23, x34 = (so.basis_element(2, j, j + 1) for j in (1, 2, 3))
        assert uea.pbw_normalize(uea.commutator(x12, x23)) == so.basis_element(2, 1, 3)
        assert uea.pbw_normalize(uea.commutator(x12, x34)).is_zero()

    def test_reversed_index_normalization(self):
        elem = so.UEAPolynomial(2, {((3, 1),): 2.0})
        assert elem == so.basis_element(2, 1, 3, -2.0)

    def test_mismatched_n(self):
        with pytest.raises(SizeError):
            uea.commutator(so.basis_element(1, 1, 2), so.basis_element(2, 1, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_self_bracket_vanishes(self, seed):
        # float coefficients are taken exactly, so the terms cancel exactly
        rng = np.random.default_rng(seed)
        elem = random_element(2, rng)
        assert uea.pbw_normalize(uea.commutator(elem, elem)).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_antisymmetry_and_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_element(2, rng), random_element(2, rng)
        lhs = uea.pbw_normalize(uea.commutator(a, b))
        rhs = uea.pbw_normalize(uea.commutator(b, a))
        assert (lhs + rhs).is_zero()
        assert uea.pbw_normalize(uea.commutator(a.scale(2.5), b)) == lhs.scale(2.5)


class TestElements:
    def test_reversed_pair_in_every_symbol(self):
        assert so.UEAPolynomial(2, {((3, 1), (1, 2)): 1}) == so.UEAPolynomial(2, {((1, 3), (1, 2)): -1})
        assert so.UEAPolynomial(2, {((3, 1), (2, 1)): 1}) == so.UEAPolynomial(2, {((1, 3), (1, 2)): 1})

    def test_float_coefficients_taken_exactly(self):
        elem = so.basis_element(1, 1, 2, complex(0.1, -2.5))
        assert elem.terms == {((1, 2),): uea.GaussianRational(Fraction(0.1), Fraction(-2.5))}
        assert so.ladder_element(1, 1) == uea.symbol_poly(1, (1, 3)) + uea.symbol_poly(1, (2, 3), uea.I)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_coefficient_refused(self, bad):
        with pytest.raises(DomainError):
            so.basis_element(1, 1, 2, bad)
        with pytest.raises(DomainError):
            so.basis_element(1, 1, 2).scale(bad)


def spin_symbol_oracle(n, sym):
    """gamma_j / 2 or gamma_k gamma_j / 2 from the wedge-oracle gammas."""
    gammas = oracle_gammas(n)
    j, k = sym
    return 0.5 * (gammas[j - 1] if k == so.matrix_size(n) else gammas[k - 1] @ gammas[j - 1])


def defining_symbol_oracle(n, sym):
    m = np.zeros((so.matrix_size(n),) * 2)
    m[sym[0] - 1, sym[1] - 1], m[sym[1] - 1, sym[0] - 1] = 1.0, -1.0
    return m


def words_to_check(n):
    """Every word of up to 3 symbols at n <= 2; 120 random words of up to 4 at larger n."""
    syms = so.symbols(n)
    if n <= 2:
        return [w for m in range(4) for w in product(syms, repeat=m)]
    rng = np.random.default_rng(40 + n)
    return [tuple(syms[i] for i in rng.integers(len(syms), size=rng.integers(5))) for _ in range(120)]


class TestWordImages:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_word_image_is_product_of_symbol_images(self, n, tag):
        # one monomial per word (spin), one product of unit matrices (defining)
        rep, oracle = {
            "spin": (so.spin_rep, spin_symbol_oracle),
            "defining": (so.defining_rep, defining_symbol_oracle),
        }[tag]
        images = {sym: oracle(n, sym) for sym in so.symbols(n)}
        dim = len(images[(1, 2)])
        for word in words_to_check(n):
            expected = np.eye(dim)
            for sym in word:
                expected = expected @ images[sym]
            assert np.array_equal(rep(so.UEAPolynomial(n, {word: 1})), expected), word


class TestRepresentations:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_homomorphism_all_basis_pairs(self, n, tag):
        rep = {"spin": so.spin_rep, "defining": so.defining_rep}[tag]
        for a in so.symbols(n):
            for b in so.symbols(n):
                ea, eb = so.basis_element(n, *a), so.basis_element(n, *b)
                lhs = rep(uea.pbw_normalize(uea.commutator(ea, eb)))
                ma, mb = rep(ea), rep(eb)
                assert np.max(np.abs(lhs - (ma @ mb - mb @ ma))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a, b = random_element(2, rng), random_element(2, rng)
        for rep in (so.spin_rep, so.defining_rep):
            lhs = rep(a.scale(2.0) + b.scale(1 - 3j))
            rhs = 2.0 * rep(a) + (1 - 3j) * rep(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_spin_images_n1(self):
        assert np.array_equal(so.spin_rep(so.basis_element(1, 1, 3)), 0.5 * dense(fock.monomial((1,), 1)))
        # spin image of X_{12} is gamma_2 gamma_1 / 2 = diag(-i/2, i/2); the
        # reversed product order is what makes the bracket of two vector-type
        # generators come out right.
        x12 = so.spin_rep(so.basis_element(1, 1, 2))
        assert np.allclose(x12, np.diag([-0.5j, 0.5j]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_basis_images_match_gamma_products(self, n):
        # X_{j,2n+1} -> gamma_j / 2 and X_{jk} -> gamma_k gamma_j / 2, with
        # gammas built from the wedge oracle rather than fock.monomial
        gammas = oracle_gammas(n)
        N = so.matrix_size(n)
        for j, k in so.symbols(n):
            expected = gammas[j - 1] if k == N else gammas[k - 1] @ gammas[j - 1]
            assert np.array_equal(so.spin_rep(so.basis_element(n, j, k)), 0.5 * expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_elements_map_to_anti_hermitian(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(10):
            elem = random_element(n, rng, real=True)
            m = so.spin_rep(elem)
            assert np.array_equal(m, -m.conj().T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_irreducibility_evidence(self, n):
        assert so.spanned_algebra_dimension(n) == (1 << n) ** 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_images_span_half(self, monkeypatch, n):
        # with the images of X_{j,2n+1} zeroed, the rest generate the even
        # Clifford subalgebra, of dimension 4^n / 2
        spin_rep, N = so.spin_rep, so.matrix_size(n)

        def even_only(elem):
            kept = {w: c for w, c in elem.terms.items() if all(k != N for _, k in w)}
            return spin_rep(so.UEAPolynomial(elem.n, kept))

        monkeypatch.setattr(so, "spin_rep", even_only)
        assert so.spanned_algebra_dimension(n) == (1 << n) ** 2 // 2


class TestLadderAndCartan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ladder_images(self, n):
        for j in range(1, n + 1):
            up = so.spin_rep(so.ladder_element(j, n))
            down = so.spin_rep(so.ladder_element(-j, n))
            assert np.array_equal(up, dense(fock.ladder(j, n)))
            assert np.array_equal(down, dense(fock.ladder(-j, n)))

    def test_ladder_sum_identity(self):
        # E_j + E_{-j} = 2i X_{2j,2n+1}
        for n in (1, 2):
            for j in range(1, n + 1):
                total = so.ladder_element(j, n) + so.ladder_element(-j, n)
                assert total == so.basis_element(n, 2 * j, 2 * n + 1, 2j)

    def test_ladder_index_errors(self):
        with pytest.raises(IndexRangeError):
            so.ladder_element(0, 2)
        with pytest.raises(IndexRangeError):
            so.ladder_element(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cartan_is_half_bracket(self, n):
        for j in range(1, n + 1):
            bracket = uea.pbw_normalize(uea.commutator(so.ladder_element(j, n), so.ladder_element(-j, n)))
            assert bracket.scale(Fraction(1, 2)) == so.cartan_element(j, n)

    def test_cartan_spin_matrix_n1(self):
        assert np.allclose(so.spin_rep(so.cartan_element(1, 1)), np.diag([-0.5, 0.5]))


class TestSpinDiagonal:
    @pytest.mark.parametrize("dyadic", [True, False])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bitwise_diagonal_of_spin_rep(self, n, dyadic):
        # B0, each D_k^+ D_k^- and H; non-dyadic energies round their products
        energies = tuple(range(1, n + 1)) if dyadic else (0.48, 0.85, 1.22, 1.59, 1.96, 2.33)[:n]
        elems = [uea.quasi_hamiltonian_symbols(n, energies)[1]] + [
            uea.uea_multiply(so.ladder_element(k, n), so.ladder_element(-k, n))
            for k in range(1, n + 1)
        ]
        for elem in elems:
            assert so.spin_diagonal(elem).tobytes() == np.diagonal(so.spin_rep(elem)).tobytes()
        spec = ham.HamiltonianSpec(n, energies)
        dense = np.diagonal(ham.quasi_hamiltonian(spec, so.spin_rep))
        assert ham.quasi_hamiltonian(spec, so.spin_diagonal).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("j", [1, -1, 2, -2])
    def test_ladder_element_refused(self, j):
        with pytest.raises(DomainError):
            so.spin_diagonal(so.ladder_element(j, 2))


class TestSpinFlip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dense_form_is_spin_rep(self, n):
        # every basis element, D_k^+-, T_k and L_k, bit for bit
        elems = [so.basis_element(n, *sym) for sym in so.symbols(n)]
        for k in range(1, n + 1):
            elems += [so.ladder_element(k, n), so.ladder_element(-k, n)]
            elems += [uea.symbol_poly(n, uea.cartan_symbol(k, n)), uea.mode_laplacian(k, n)]
        for elem in elems:
            assert dense(so.spin_flip(elem)).tobytes() == so.spin_rep(elem).tobytes()

    def test_two_flips_refused(self):
        # X_{1,5} flips bit 0, X_{3,5} bit 1: their sum is no signed bit flip
        with pytest.raises(DomainError, match="no signed bit flip"):
            so.spin_flip(so.basis_element(2, 1, 5) + so.basis_element(2, 3, 5))


def cartan_images(n):
    return [so.spin_rep(so.cartan_element(j, n)) for j in range(1, n + 1)]


class TestWeights:
    # the weight of a basis state is read off the spin images of H_1..H_n,
    # which must act on it as exact scalars

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extremal_weights(self, n):
        vac = fock.vacuum(n).amplitudes
        top = fock.basis_vector(n, range(1, n + 1)).amplitudes
        for h in cartan_images(n):
            assert np.array_equal(h @ vac, -0.5 * vac)
            assert np.array_equal(h @ top, 0.5 * top)

    def test_basis_weights(self):
        n = 3
        images = cartan_images(n)
        for mask in range(1 << n):
            v = np.eye(1 << n)[:, mask]
            for j, h in enumerate(images, start=1):
                weight = 0.5 if mask >> (j - 1) & 1 else -0.5
                assert np.array_equal(h @ v, weight * v)
