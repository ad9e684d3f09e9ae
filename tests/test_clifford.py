import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense
from spinfock import fock
from spinfock.errors import IndexRangeError


def complex_vectors(length):
    return st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        min_size=length,
        max_size=length,
    ).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))


def gamma(j, n):
    return dense(fock.monomial((j,), n))


def test_gamma_matrices_n1():
    assert np.array_equal(gamma(1, 1), np.array([[0, -1], [1, 0]]))
    assert np.array_equal(gamma(2, 1), np.array([[0, -1j], [-1j, 0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anti_hermitian(n):
    for j in range(1, 2 * n + 1):
        g = gamma(j, n)
        assert np.max(np.abs(g + g.conj().T)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anticommutation(n):
    eye = np.eye(1 << n)
    gammas = [gamma(j, n) for j in range(1, 2 * n + 1)]
    for j, gj in enumerate(gammas):
        for k, gk in enumerate(gammas):
            delta = 2.0 * eye if j == k else 0.0
            assert np.max(np.abs(gj @ gk + gk @ gj + delta)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_is_minus_identity(n):
    eye = np.eye(1 << n)
    for j in range(1, 2 * n + 1):
        g = gamma(j, n)
        assert np.array_equal(g @ g, -eye)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ladder_reconstruction_exact(n):
    for j in range(1, n + 1):
        g_odd = gamma(2 * j - 1, n)
        g_even = gamma(2 * j, n)
        assert np.array_equal(0.5 * (g_odd + 1j * g_even), dense(fock.ladder(j, n)))
        assert np.array_equal(0.5 * (-g_odd + 1j * g_even), dense(fock.ladder(-j, n)))


def test_index_range():
    with pytest.raises(IndexRangeError):
        fock.monomial((0,), 2)
    with pytest.raises(IndexRangeError):
        fock.monomial((5,), 2)


def gamma_of(v):
    """gamma(v) = sum_j v_j gamma_j for v in C^4, at n = 2."""
    return sum(v[j] * gamma(j + 1, 2) for j in range(4))


class TestGammaOfVector:
    @settings(max_examples=40, deadline=None)
    @given(complex_vectors(4), complex_vectors(4))
    def test_clifford_relation_bilinear(self, v, w):
        # {gamma(v), gamma(w)} = -2 <v, w> with the bilinear (unconjugated) form
        gv = gamma_of(v)
        gw = gamma_of(w)
        anti = gv @ gw + gw @ gv
        expected = -2.0 * np.sum(v * w) * np.eye(4)
        assert np.max(np.abs(anti - expected)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(complex_vectors(4))
    def test_square_is_bilinear_norm(self, v):
        gv = gamma_of(v)
        expected = -np.sum(v * v) * np.eye(4)
        assert np.max(np.abs(gv @ gv - expected)) < 1e-12
