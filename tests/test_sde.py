import tracemalloc

import numpy as np
import pytest

from spinfock import fock, hamiltonian as ham, sde, so_algebra as so, spin_group as sg
from spinfock.errors import DomainError, NumericError, SizeError

SPEC1 = ham.HamiltonianSpec(1, (1.0,))
SPEC2 = ham.HamiltonianSpec(2, (1.0, 2.0))


def config(spec=SPEC1, process="p0", dt=1e-3, horizon=1.0, sigma="corrected", seed=0):
    return sde.SDEConfig(spec, process, dt, horizon, sigma, seed)


class TestConfig:
    def test_diffusion_weights(self):
        cfg = config(SPEC2)
        assert np.array_equal(cfg.eprime, [1.0, 1.0, 2.0, 2.0])
        assert np.allclose(cfg.sigmas, np.sqrt([2.0, 2.0, 4.0, 4.0]))
        lit = config(SPEC2, sigma="paper_literal")
        assert np.allclose(lit.sigmas, np.sqrt([1.0, 1.0, 2.0, 2.0]))

    def test_validation(self):
        with pytest.raises(DomainError):
            config(process="heat")
        with pytest.raises(DomainError):
            config(sigma="guessed")
        with pytest.raises(DomainError):
            config(dt=0.0)
        with pytest.raises(DomainError):
            config(dt=2.0, horizon=1.0)
        with pytest.raises(DomainError):
            config(seed=-1)


class TestStep:
    def test_zero_increments_noise_only(self):
        state = sde.PathState(0.0, sg.identity_point(1))
        out = sde.sde_step(state, np.zeros(2), config())
        assert np.allclose(out.point.spin_matrix, np.eye(2), atol=1e-15)
        assert out.time == pytest.approx(1e-3)

    def test_zero_increments_drift_rotation(self):
        cfg = config(process="p")
        state = sde.PathState(0.0, sg.identity_point(1))
        out = sde.sde_step(state, np.zeros(2), cfg)
        expected = sg.expm_antihermitian(sde.drift_matrix(SPEC1) * cfg.dt)
        assert np.max(np.abs(out.point.spin_matrix - expected)) < 1e-14

    def test_single_direction_increment(self):
        cfg = config()
        state = sde.PathState(0.0, sg.identity_point(1))
        w = 0.37
        increments = np.array([w, 0.0])
        out = sde.sde_step(state, increments, cfg)
        gen = so.spin_rep(so.basis_element(1, 1, 3))
        expected = sg.expm_antihermitian(cfg.sigmas[0] * gen * w)
        assert np.max(np.abs(out.point.spin_matrix - expected)) < 1e-13

    def test_non_finite_increments(self):
        state = sde.PathState(0.0, sg.identity_point(1))
        with pytest.raises(NumericError):
            sde.sde_step(state, np.array([np.nan, 0.0]), config())

    def test_wrong_increment_count(self):
        state = sde.PathState(0.0, sg.identity_point(1))
        with pytest.raises(SizeError):
            sde.sde_step(state, np.zeros(3), config())

    def test_drift_is_minus_first_order_part(self):
        # pi(B0) = sum_k E_k gamma_{2k-1} gamma_{2k} / 2, anti-Hermitian
        b0 = so.spin_rep(ham.b0_element(SPEC2))
        assert np.max(np.abs(b0 + b0.conj().T)) < 1e-12
        assert np.max(np.abs(sde.drift_matrix(SPEC2) + b0)) == 0.0


class TestMonomialForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_images_are_monomial(self, n):
        gens = sde.noise_generator_matrices(n)
        dim = 1 << n
        for g in gens:
            assert np.array_equal(np.count_nonzero(g, axis=0), np.ones(dim, dtype=int))
            assert np.all(np.isin(g[g != 0], [0.5, -0.5, 0.5j, -0.5j]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rebuilds_dense_images_exactly(self, n):
        gens = sde.noise_generator_matrices(n)
        perm, phase = sde.monomial_form(gens)
        cols = np.arange(1 << n)
        for j, g in enumerate(gens):
            dense = np.zeros_like(g)
            dense[perm[j], cols] = phase[j]
            assert np.array_equal(dense, g)

    def test_rejects_non_monomial(self):
        gens = sde.noise_generator_matrices(2)
        two_per_column = gens.copy()
        two_per_column[0, 0, 0] = 0.5
        with pytest.raises(NumericError):
            sde.monomial_form(two_per_column)
        wrong_value = gens.copy()
        wrong_value[gens != 0] *= 1.5
        with pytest.raises(NumericError):
            sde.monomial_form(wrong_value)


class TestSimulatePath:
    def test_zero_horizon(self):
        cfg = config(horizon=0.0)
        out = sde.simulate_path(cfg, sg.identity_point(1), np.random.default_rng(0))
        assert out.time == 0.0
        assert np.array_equal(out.point.spin_matrix, np.eye(2))

    def test_deterministic(self):
        cfg = config(horizon=0.05)
        a = sde.simulate_path(cfg, sg.identity_point(1), np.random.default_rng(12))
        b = sde.simulate_path(cfg, sg.identity_point(1), np.random.default_rng(12))
        assert np.array_equal(a.point.spin_matrix, b.point.spin_matrix)

    @pytest.mark.parametrize("process", ["p0", "p"])
    def test_unitarity_defect_thousand_steps(self, process):
        cfg = sde.SDEConfig(SPEC2, process, 1e-3, 1.0, "corrected", 5)
        out = sde.simulate_path(cfg, sg.identity_point(2), np.random.default_rng(5))
        u = out.point.spin_matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-8
        assert out.time == pytest.approx(1.0)


class TestEnsemble:
    def test_chunk_size_invariance(self):
        cfg = config(spec=SPEC2, horizon=0.02, seed=42)
        def gather(chunk):
            r0s, rts = [], []
            for _, r0, snaps in sde.evolve_ensemble(cfg, 37, [0.02], chunk_size=chunk):
                r0s.append(r0)
                rts.append(snaps[0.02])
            return np.concatenate(r0s), np.concatenate(rts)
        a0, at = gather(5)
        b0, bt = gather(64)
        assert np.array_equal(a0, b0)
        assert np.array_equal(at, bt)

    def test_grid_alignment_required(self):
        cfg = config(horizon=0.01)
        with pytest.raises(DomainError):
            list(sde.evolve_ensemble(cfg, 4, [0.0005]))

    def test_pinned_initial_state(self):
        cfg = config(horizon=0.0)
        point = sg.identity_point(1)
        _, r0, snaps = next(sde.evolve_ensemble(cfg, 3, [0.0], initial=point))
        assert np.array_equal(r0, np.tile(np.eye(2)[0], (3, 1)))
        assert snaps[0.0] is r0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_dense_reference(self, n, monkeypatch):
        # blocks of 7 steps: the 30-step horizon crosses four block
        # boundaries and ends on a partial block
        paths, steps, dt, seed = 6, 30, 1e-3, 19
        monkeypatch.setattr(sde, "_BLOCK_BYTES", 7 * paths * 2 * n * 8)
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        cfg = sde.SDEConfig(spec, "p0", dt, steps * dt, "corrected", seed)
        grid = [0.0, 0.007, 0.016, 0.03]
        ((_, r0, snaps),) = sde.evolve_ensemble(cfg, paths, grid)

        rngs = [sde.path_rng(seed, i) for i in range(paths)]
        g = np.stack([rng.standard_normal((2 * n + 1, 2 * n + 1)) for rng in rngs])
        _, u = sg.haar_lift(g, np.eye(1 << n))
        dw = np.stack([rng.standard_normal((steps, 2 * n)) for rng in rngs]) * np.sqrt(dt)
        gens = sde.noise_generator_matrices(n)
        expected = [u[:, 0]]
        for m in range(steps):
            exps = np.einsum("pj,jab->pab", dw[:, m] * cfg.sigmas, gens)
            u = u @ np.stack([sg.expm_antihermitian(x) for x in exps])
            expected.append(u[:, 0])
        assert np.array_equal(r0, expected[0])
        for t in grid:
            assert np.max(np.abs(snaps[t] - expected[round(t / dt)])) <= 1e-12

    def test_memory_does_not_grow_with_horizon(self):
        # increments live in a fixed step-block, so 10x the horizon costs no
        # more memory
        def peak(t):
            cfg = config(horizon=t, seed=4)
            tracemalloc.start()
            try:
                for _ in sde.evolve_ensemble(cfg, 4096, [t]):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1.0) <= 1.25 * peak(0.1)


class TestGeneratorCheck:
    def test_corrected_rate_at_identity(self):
        cfg = config(seed=101)
        out = sde.generator_check(fock.vacuum(1), sg.identity_point(1), 1e-3, 100_000, cfg)
        assert out.target == pytest.approx(-0.5, abs=1e-12)
        assert abs(out.empirical - out.target) <= 4 * out.std_error + 1e-3

    def test_literal_rate_is_half(self):
        cfg = config(sigma="paper_literal", seed=102)
        out = sde.generator_check(fock.vacuum(1), sg.identity_point(1), 1e-3, 100_000, cfg)
        assert out.target == pytest.approx(-0.25, abs=1e-12)
        assert abs(out.empirical - out.target) <= 4 * out.std_error + 1e-3

    def test_haar_point_with_drift(self):
        rng = np.random.default_rng(17)
        x = sg.haar_sample(rng, 1)
        cfg = config(process="p", seed=103)
        out = sde.generator_check(fock.basis_vector(1, [1]), x, 1e-3, 200_000, cfg)
        assert abs(out.empirical - out.target) <= 4 * out.std_error + 1e-3


class TestDecay:
    def test_eigenfunction_decay(self):
        # E[conj(f(X(0))) f(X(t))] = exp(-t/2 sum E) 2^{-n} |psi|^2
        rows = sde.decay_curve(SPEC1, [0.5], 6000, 1e-3, 7, "corrected")
        t, mean, stderr = rows[0]
        target = np.exp(-0.5 * 0.5) * 0.5
        assert abs(mean - target) <= 3 * stderr + 2e-3

    def test_eigenfunction_decay_any_state_two_modes(self):
        # the decay constant does not depend on the state, only on its norm
        rng = np.random.default_rng(8)
        psi = fock.FockVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        rows = sde.decay_curve(SPEC2, [0.4], 6000, 1e-3, 9, "corrected", psi=psi)
        _, mean, stderr = rows[0]
        target = np.exp(-0.4 * 0.5 * 3.0) * 0.25 * psi.norm() ** 2
        assert abs(mean - target) <= 3 * stderr + 2e-3

    def test_weak_error_dt_halving_coupled(self):
        # same Brownian path at dt and dt/2: halving dt moves the estimate by
        # less than one standard error
        spec, t, n_paths = SPEC1, 0.5, 4000
        fine_cfg = config(dt=5e-4, horizon=t, seed=31)
        gens = sde.noise_generator_matrices(1)
        psi = fock.vacuum(1).amplitudes
        fine_vals, coarse_vals = [], []
        for start, r0, _ in sde.evolve_ensemble(fine_cfg, n_paths, [0.0], chunk_size=1024):
            count = r0.shape[0]
            dw = np.empty((count, 1000, 2))
            for i in range(count):
                rng = sde.path_rng(31, start + i)
                rng.standard_normal((3, 3))  # skip the Haar draw
                dw[i] = rng.standard_normal((1000, 2))
            dw *= np.sqrt(5e-4)
            rf = r0
            for m in range(1000):
                rf = sde._step_rows(rf, dw[:, m, :] * fine_cfg.sigmas, gens, None, 5e-4)
            coarse_dw = dw[:, 0::2, :] + dw[:, 1::2, :]
            rc = r0
            for m in range(500):
                rc = sde._step_rows(rc, coarse_dw[:, m, :] * fine_cfg.sigmas, gens, None, 1e-3)
            a0 = r0 @ psi
            fine_vals.append(np.conj(a0) * (rf @ psi))
            coarse_vals.append(np.conj(a0) * (rc @ psi))
        fine_mean, fine_se = sg.complex_mean_stderr(np.concatenate(fine_vals))
        coarse_mean, _ = sg.complex_mean_stderr(np.concatenate(coarse_vals))
        assert abs(fine_mean - coarse_mean) < fine_se

    def test_fit_recovers_rates(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = sde.decay_curve(SPEC1, grid, 4000, 1e-3, 55, "corrected")
        rate, _ = sde.fit_decay_rate(rows)
        assert rate == pytest.approx(0.5, abs=0.05)
        rows = sde.decay_curve(SPEC1, grid, 4000, 1e-3, 56, "paper_literal")
        rate, _ = sde.fit_decay_rate(rows)
        assert rate == pytest.approx(0.25, abs=0.05)

    def test_fit_needs_two_points(self):
        with pytest.raises(SizeError):
            sde.fit_decay_rate([(0.0, 0.5 + 0j, 0.01)])
