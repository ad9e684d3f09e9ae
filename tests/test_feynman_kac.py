import warnings

import numpy as np
import pytest

from spinfock import feynman_kac as fk, fock, hamiltonian as ham, sde, so_algebra as so, uea
from spinfock.errors import DomainError, SizeError

SPEC1 = ham.HamiltonianSpec(1, (1.0,))
SPEC2 = ham.HamiltonianSpec(2, (1.0, 2.0))


class TestExactSide:
    def test_vacuum_is_schur_constant(self):
        vac = fock.vacuum(1)
        for t in (0.0, 0.5, 2.0):
            assert fk.fk_lhs_exact(vac, vac, SPEC1, t) == pytest.approx(0.5)

    def test_single_mode_decay(self):
        e1 = fock.basis_vector(1, [1])
        assert fk.fk_lhs_exact(e1, e1, SPEC1, 0.5) == pytest.approx(0.5 * np.exp(-0.5))

    def test_orthogonal_eigenvectors(self):
        assert fk.fk_lhs_exact(fock.vacuum(2), fock.basis_vector(2, [1]), SPEC2, 0.3) == 0.0

    def test_monotone_decay(self):
        e12 = fock.basis_vector(2, [1, 2])
        values = [fk.fk_lhs_exact(e12, e12, SPEC2, t).real for t in (0.0, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fk.fk_lhs_exact(fock.vacuum(1), fock.vacuum(1), SPEC1, -0.1)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            fk.fk_lhs_exact(fock.vacuum(1), fock.vacuum(1), SPEC1, t)


class TestFactorization:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2])
    def test_semigroup_splits_scalar_times_phase(self, spec):
        # on the spin side H = sum E / 2 + S, both diagonal, so
        # e^{-tH} = e^{-t/2 sum E} e^{-tS} entry by entry
        h = np.diagonal(ham.build_parts(spec, so.spin_rep).h_tilde)
        s = (1j * so.spin_diagonal(uea.quasi_hamiltonian_symbols(spec.n, spec.energies)[1])).real
        assert np.max(np.abs(h - (0.5 * sum(spec.energies) + s))) < 1e-12
        ones = fock.FockVector(spec.n, np.ones(1 << spec.n))
        for t in (0.0, 0.3, 1.0):
            split = np.exp(-t * 0.5 * sum(spec.energies)) * np.exp(-t * s) * ones.amplitudes
            assert np.max(np.abs(np.exp(-t * h) - split)) < 1e-12


class TestMonteCarlo:
    def test_time_zero_reduces_to_schur_product(self):
        vac = fock.vacuum(1)
        (row,) = fk.fk_report(vac, vac, SPEC1, [0.0], 2000, 1e-3, 7)
        assert row.lhs == pytest.approx(0.5)
        assert abs(row.rhs_mean - 0.5) <= 3 * row.std_error

    def test_single_mode_matches_exact(self):
        e1 = fock.basis_vector(1, [1])
        (row,) = fk.fk_report(e1, e1, SPEC1, [0.25], 4000, 1e-3, 11)
        assert row.z_score <= 3.0
        assert row.std_error > 0
        assert row.z_score == abs(row.rhs_mean - row.lhs) / row.std_error

    def test_two_mode_top_state(self):
        e12 = fock.basis_vector(2, [1, 2])
        (row,) = fk.fk_report(e12, e12, SPEC2, [0.1], 3000, 1e-3, 13)
        assert row.lhs == pytest.approx(0.25 * np.exp(-0.3))
        assert row.z_score <= 3.0

    def test_estimator_deck_invariant(self):
        # flipping the sign of the initial lift flips both coefficients,
        # leaving every per-path product unchanged
        psi = fock.basis_vector(1, [1]).amplitudes
        s = (1j * so.spin_diagonal(uea.quasi_hamiltonian_symbols(1, SPEC1.energies)[1])).real
        chi = np.exp(-0.1 * s) * psi
        cfg = sde.SDEConfig(SPEC1, 1e-3, "corrected", 3)
        _, r0, snaps = next(sde.evolve_ensemble(cfg, 64, [0.1], lambda t, r0, rows: rows.copy()))
        rt = snaps[0.1]
        plain = np.conj(r0 @ psi) * (rt @ chi)
        # the deck flip of X(0) propagates to X(t) = X(0) M(t)
        flipped = np.conj((-r0) @ psi) * ((-rt) @ chi)
        assert np.array_equal(plain, flipped)

    def test_report_rows_and_determinism(self):
        e1 = fock.basis_vector(1, [1])
        grid = [0.0, 0.1, 0.2]
        rows_a = fk.fk_report(e1, e1, SPEC1, grid, 1000, 1e-3, 17)
        rows_b = fk.fk_report(e1, e1, SPEC1, grid, 1000, 1e-3, 17)
        assert [r.t for r in rows_a] == grid
        for a, b in zip(rows_a, rows_b):
            assert a == b

    def test_shares_the_decay_estimator(self):
        # e^{-tS} vac = e^{t sum E / 2} vac, so on the vacuum the report's rhs
        # is the decay curve scaled by that factor, path by path
        vac = fock.vacuum(2)
        grid = [0.0, 0.1, 0.25]
        rows = fk.fk_report(vac, vac, SPEC2, grid, 500, 5e-3, 21)
        curve = sde.decay_curve(SPEC2, grid, 500, 5e-3, 21)
        for row, (t, mean, stderr) in zip(rows, curve):
            scale = np.exp(t * 0.5 * sum(SPEC2.energies))
            assert row.t == t
            assert abs(row.rhs_mean - scale * mean) <= 1e-12 * abs(row.rhs_mean)
            assert abs(row.std_error - scale * stderr) <= 1e-12 * row.std_error

    def test_phase_diagonal_built_once(self, monkeypatch):
        # S does not depend on t, so a report builds it once, not per grid time
        calls = []
        spin_diagonal = so.spin_diagonal
        monkeypatch.setattr(so, "spin_diagonal", lambda elem: calls.append(elem) or spin_diagonal(elem))
        e1 = fock.basis_vector(1, [1])
        fk.fk_report(e1, e1, SPEC1, [0.0, 0.1, 0.2], 200, 1e-2, 17)
        assert len(calls) == 1

    def test_number_diagonal_built_once(self, monkeypatch):
        # the exact side's diagonal does not depend on t either: one per report
        calls = []
        diagonal = ham.number_hamiltonian_diagonal
        monkeypatch.setattr(ham, "number_hamiltonian_diagonal", lambda spec: calls.append(spec) or diagonal(spec))
        e1 = fock.basis_vector(1, [1])
        rows = fk.fk_report(e1, e1, SPEC1, [0.0, 0.1, 0.2], 200, 1e-2, 17)
        assert calls == [SPEC1]
        assert [row.lhs for row in rows] == [fk.fk_lhs_exact(e1, e1, SPEC1, t) for t in (0.0, 0.1, 0.2)]

    def test_empty_grid(self):
        assert fk.fk_report(fock.vacuum(1), fock.vacuum(1), SPEC1, [], 1000, 1e-3, 1) == []

    @pytest.mark.parametrize("t", [-1.0, float("inf"), float("nan")])
    def test_bad_grid_time_refused_before_drawing(self, monkeypatch, t):
        def refuse_to_draw(*args):
            raise AssertionError("drew paths for a refused grid time")

        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                fk.fk_report(fock.vacuum(2), fock.vacuum(2), SPEC2, [0.1, t], 1000, 1e-3, 1)

    def test_path_count_floor(self):
        with pytest.raises(SizeError):
            fk.fk_report(fock.vacuum(1), fock.vacuum(1), SPEC1, [0.1], 50, 1e-3, 1)

    def test_mode_count_mismatch(self):
        with pytest.raises(SizeError):
            fk.fk_lhs_exact(fock.vacuum(1), fock.vacuum(1), SPEC2, 0.1)
