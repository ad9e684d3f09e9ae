import numpy as np
import pytest

from dense_reference import car_residual
from spinfock import hamiltonian as ham, so_algebra as so
from spinfock.errors import DomainError, SizeError


def image_function(tag):
    return {"spin": so.spin_rep, "defining": so.defining_rep}[tag]


def spin_parts(n, energies):
    spec = ham.HamiltonianSpec(n, energies)
    return spec, ham.build_parts(spec, so.spin_rep)


class TestSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ham.HamiltonianSpec(1, (0.0,))
        with pytest.raises(DomainError):
            ham.HamiltonianSpec(2, (-1.0, 2.0))

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            ham.HamiltonianSpec(2, (2.0, 1.0))

    def test_rejects_wrong_count(self):
        with pytest.raises(SizeError):
            ham.HamiltonianSpec(2, (1.0,))


class TestBuildParts:
    def test_number_operator_n1(self):
        _, parts = spin_parts(1, (1.0,))
        assert np.allclose(parts.h_tilde, np.diag([0.0, 1.0]), atol=1e-12)

    def test_scalar_p0_and_diagonal_phase_n1(self):
        _, parts = spin_parts(1, (1.0,))
        assert np.allclose(parts.p0, 0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(1j * parts.b0, np.diag([-0.5, 0.5]), atol=1e-12)

    @pytest.mark.parametrize(
        "n,energies,expected",
        [
            (2, (1.0, 2.0), [0.0, 1.0, 2.0, 3.0]),
            (3, (1.0, 1.5, 2.5), [0.0, 1.0, 1.5, 2.5, 2.5, 3.5, 4.0, 5.0]),
        ],
    )
    def test_spectrum_subset_sums(self, n, energies, expected):
        spec, parts = spin_parts(n, energies)
        eigs = np.sort(np.linalg.eigvalsh(parts.h_tilde))
        assert np.max(np.abs(eigs - np.array(expected))) < 1e-10
        assert np.max(np.abs(ham.subset_sums(spec) - np.array(expected))) < 1e-12

    @pytest.mark.parametrize("tag", ["spin", "defining"])
    @pytest.mark.parametrize("n,energies", [(1, (1.0,)), (2, (1.0, 2.0)), (3, (1.0, 1.5, 2.5))])
    def test_decomposition_identity(self, tag, n, energies):
        spec = ham.HamiltonianSpec(n, energies)
        parts = ham.build_parts(spec, image_function(tag))
        assert np.max(np.abs(parts.h_tilde - (parts.p0 + 1j * parts.b0))) < 1e-12

    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_p0_hermitian_psd_and_ib0_hermitian(self, tag):
        spec = ham.HamiltonianSpec(2, (1.0, 2.0))
        parts = ham.build_parts(spec, image_function(tag))
        assert np.max(np.abs(parts.p0 - parts.p0.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(parts.p0)) > -1e-12
        ib0 = 1j * parts.b0
        assert np.max(np.abs(ib0 - ib0.conj().T)) < 1e-12

    def test_spin_identities(self):
        spec, parts = spin_parts(2, (1.0, 2.0))
        total = sum(spec.energies)
        assert np.max(np.abs(parts.p0 - 0.5 * total * np.eye(4))) < 1e-12
        expected = np.diag(ham.number_hamiltonian_diagonal(spec) - 0.5 * total)
        assert np.max(np.abs(1j * parts.b0 - expected)) < 1e-12

    @pytest.mark.parametrize("tag", ["spin", "defining"])
    @pytest.mark.parametrize("n,energies", [(1, (1.0,)), (2, (1.0, 2.0)), (3, (1.0, 1.5, 2.5))])
    def test_factorized_identity(self, tag, n, energies):
        spec = ham.HamiltonianSpec(n, energies)
        rep = image_function(tag)
        parts = ham.build_parts(spec, rep)
        N = 2 * n + 1
        total = np.zeros_like(parts.h_tilde)
        for k, e in enumerate(energies, start=1):
            a = rep(so.basis_element(n, 2 * k - 1, N))
            b = rep(so.basis_element(n, 2 * k, N))
            total -= e * ((a + 1j * b) @ (a - 1j * b))
        assert np.max(np.abs(total - parts.h_tilde)) < 1e-12

    @pytest.mark.parametrize("tag", ["spin", "defining"])
    @pytest.mark.parametrize("n,energies", [(1, (1.0,)), (2, (1.0, 2.0)), (3, (1.0, 1.5, 2.5))])
    def test_commutation_shadow(self, tag, n, energies):
        spec = ham.HamiltonianSpec(n, energies)
        parts = ham.build_parts(spec, image_function(tag))
        assert np.max(np.abs(parts.p0 @ parts.b0 - parts.b0 @ parts.p0)) < 1e-12
        for tk in parts.t:
            for lk in parts.l:
                assert np.max(np.abs(tk @ lk - lk @ tk)) < 1e-12
            for tl in parts.t:
                assert np.max(np.abs(tk @ tl - tl @ tk)) < 1e-12


class TestQuasiHamiltonian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bitwise_equal_to_build_parts(self, n):
        # one summation: spectrum's H and verify's H are the same bits
        spec = ham.HamiltonianSpec(n, (1.0, 1.5, 2.5, 4.0)[:n])
        alone = ham.quasi_hamiltonian(spec, so.spin_rep)
        parts = ham.build_parts(spec, so.spin_rep)
        assert np.array_equal(alone, parts.h_tilde)
        assert alone.tobytes() == parts.h_tilde.tobytes()

    @pytest.mark.parametrize(
        "tag, n", [("spin", n) for n in range(1, 11)] + [("defining", n) for n in range(1, 5)]
    )
    def test_bitwise_equal_to_dense_ladder_products(self, tag, n):
        # the exact products' images sum to the bits of the dense route, so
        # reports keep their bytes; non-dyadic energies round every product
        energies = (0.48, 0.85, 1.22, 1.59, 1.96, 2.33, 2.7, 3.07, 3.44, 3.81)[:n]
        rep = image_function(tag)
        dense = rep(so.UEAPolynomial(n, {}))
        for k, e in enumerate(energies, start=1):
            dense += e * (rep(so.ladder_element(k, n)) @ rep(so.ladder_element(-k, n)))
        exact = ham.quasi_hamiltonian(ham.HamiltonianSpec(n, energies), rep)
        assert exact.tobytes() == dense.tobytes()


def ladder_images(n, rep):
    """(D_1^+, ..., D_n^+), (D_1^-, ..., D_n^-) under an image function."""
    return [[rep(so.ladder_element(sign * k, n)) for k in range(1, n + 1)] for sign in (1, -1)]


class TestCAROnSubspace:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spin_rep_satisfies_car(self, n):
        assert car_residual(*ladder_images(n, so.spin_rep)) <= 1e-12

    def test_defining_rep_fails_car(self):
        # without projecting onto the embedded subspace the relations fail
        assert car_residual(*ladder_images(2, so.defining_rep)) > 0.1

