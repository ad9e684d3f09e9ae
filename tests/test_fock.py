from itertools import product

import numpy as np
import pytest

from dense_reference import dense
from spinfock import fock
from spinfock.errors import IndexRangeError, SizeError


# ---------------------------------------------------------------------------
# Independent oracle: wedge words with explicit reordering signs. A basis
# state is a tuple of distinct modes in written order; sorting it counts the
# transpositions, which fixes every creation sign independently of the
# bitmask formula used by the implementation.
# ---------------------------------------------------------------------------


def wedge_normalize(word):
    word = list(word)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    if len(set(word)) != len(word):
        return None, 0
    return tuple(word), sign


def modes_of(mask):
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def mask_of(modes):
    out = 0
    for j in modes:
        out |= 1 << (j - 1)
    return out


def oracle_creation_matrix(j, n):
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        word, sign = wedge_normalize((j,) + modes_of(mask))
        if word is None:
            continue
        m[mask_of(word), mask] = sign
    return m


def oracle_gammas(n):
    """gamma_1 .. gamma_2n from the oracle ladder operators, gamma_{2k-1} = c^dagger - c and
    gamma_{2k} = -i (c^dagger + c), so they do not rest on fock.monomial."""
    out = []
    for k in range(1, n + 1):
        c_dag = oracle_creation_matrix(k, n)
        c = c_dag.conj().T
        out += [c_dag - c, -1j * (c_dag + c)]
    return out


class TestFockSpace:
    def test_dimensions(self):
        assert fock.vacuum(1).amplitudes.shape == (2,)
        assert fock.vacuum(3).amplitudes.shape == (8,)

    def test_vacuum_amplitudes(self):
        vac = fock.vacuum(2)
        assert vac.amplitudes[0] == 1.0
        assert np.all(vac.amplitudes[1:] == 0.0)

    def test_basis_orthonormal(self):
        # the basis state of each set of modes is the unit vector at its bitmask
        basis = [fock.basis_vector(3, modes_of(mask)).amplitudes for mask in range(8)]
        assert np.array_equal(np.array(basis), np.eye(8))

    @pytest.mark.parametrize("bad", [0, -1, 13])
    def test_mode_count_range(self, bad):
        with pytest.raises(SizeError):
            fock.vacuum(bad)
        with pytest.raises(SizeError):
            fock.basis_vector(bad)

    def test_amplitude_length_checked(self):
        with pytest.raises(SizeError):
            fock.FockVector(2, np.zeros(3))


class TestLadder:
    def test_matrices_n1(self):
        assert np.array_equal(dense(fock.ladder(1, 1)), np.array([[0, 0], [1, 0]]))
        assert np.array_equal(dense(fock.ladder(-1, 1)), np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_creation_matches_wedge_oracle(self, n):
        for j in range(1, n + 1):
            assert np.array_equal(dense(fock.ladder(j, n)), oracle_creation_matrix(j, n))

    def test_second_mode_sign_n2(self):
        # e_2 ^ e_1 = -(e_1 ^ e_2): creating mode 2 on e_1 carries sign -1
        m = dense(fock.ladder(2, 2))
        assert m[0b11, 0b01] == -1.0
        assert m[0b10, 0b00] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adjoint_pair(self, n):
        for j in range(1, n + 1):
            assert np.array_equal(dense(fock.ladder(-j, n)), dense(fock.ladder(j, n)).conj().T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nonzero_structure(self, n):
        for j in range(1, n + 1):
            m = dense(fock.ladder(j, n))
            values = m[np.abs(m) > 0]
            assert values.size == (1 << n) // 2
            assert np.all(np.abs(values) == 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nilpotent(self, n):
        for j in range(1, n + 1):
            c = dense(fock.ladder(j, n))
            assert np.all(c @ c == 0.0)
            assert np.all(c.conj().T @ c.conj().T == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_car(self, n):
        eye = np.eye(1 << n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                cj, ck = dense(fock.ladder(-j, n)), dense(fock.ladder(-k, n))
                cjd, ckd = dense(fock.ladder(j, n)), dense(fock.ladder(k, n))
                delta = eye if j == k else 0.0
                assert np.max(np.abs(cj @ ckd + ckd @ cj - delta)) == 0.0
                assert np.max(np.abs(cj @ ck + ck @ cj)) == 0.0
                assert np.max(np.abs(cjd @ ckd + ckd @ cjd)) == 0.0

    @pytest.mark.parametrize("k", [0, 3, -3])
    def test_pair_index_errors(self, k):
        with pytest.raises(IndexRangeError):
            fock.ladder(k, 2)


class TestMonomial:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_words_match_oracle_products(self, n):
        # every word of up to 4 indices, repeats included: gamma_j^2 = -1 and
        # the reordering signs all show up in the phase
        gammas = oracle_gammas(n)
        cols = np.arange(1 << n)
        for length in range(5):
            for word in product(range(1, 2 * n + 1), repeat=length):
                expected = np.eye(1 << n, dtype=complex)
                for j in word:
                    expected = expected @ gammas[j - 1]
                flip, phase = fock.monomial(word, n)
                dense = np.zeros_like(expected)
                dense[cols ^ flip, cols] = phase
                assert np.array_equal(dense, expected), word

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_negative_zero(self, n):
        # a -0.0 in either part would print as -0.0 in the reports
        for length in range(5):
            for word in product(range(1, 2 * n + 1), repeat=length):
                phase = fock.monomial(word, n)[1]
                parts = np.stack([phase.real, phase.imag])
                assert not np.any((parts == 0) & np.signbit(parts)), word

    @pytest.mark.parametrize("n", range(6, fock.MAX_MODES + 1))
    def test_large_words_match_docstring_rule(self, n):
        # gamma_{2k-1} e_b = (-1)^|b & (2^k - 1)| e_(b ^ 2^(k-1)) and gamma_{2k} e_b =
        # -i (-1)^|b & (2^(k-1) - 1)| e_(b ^ 2^(k-1)), one factor at a time on single states
        rng = np.random.default_rng(n)
        for _ in range(20):
            word = [int(j) for j in rng.integers(1, 2 * n + 1, size=rng.integers(1, 7))]
            flip, phase = fock.monomial(word, n)
            for start in rng.integers(0, 1 << n, size=64):
                b, expected = int(start), 1
                for j in reversed(word):
                    k = (j + 1) // 2
                    parity = (b & ((1 << (k if j % 2 else k - 1)) - 1)).bit_count() % 2
                    expected *= (-1) ** parity * (1 if j % 2 else -1j)
                    b ^= 1 << (k - 1)
                assert flip == start ^ b and phase[start] == expected, (word, start)

    def test_index_range(self):
        with pytest.raises(IndexRangeError):
            fock.monomial((1, 0), 2)
        with pytest.raises(IndexRangeError):
            fock.monomial((5,), 2)
