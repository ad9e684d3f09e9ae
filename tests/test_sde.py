import tracemalloc

import numpy as np
import pytest

from spinfock import fock, hamiltonian as ham, sde, so_algebra as so, spin_group as sg
from spinfock.errors import DomainError, SizeError

SPEC1 = ham.HamiltonianSpec(1, (1.0,))
SPEC2 = ham.HamiltonianSpec(2, (1.0, 2.0))


def config(spec=SPEC1, dt=1e-3, sigma="corrected", seed=0):
    return sde.SDEConfig(spec, dt, sigma, seed)


class TestConfig:
    def test_diffusion_weights(self):
        cfg = config(SPEC2)
        assert np.array_equal(cfg.eprime, [1.0, 1.0, 2.0, 2.0])
        assert np.allclose(cfg.sigmas, np.sqrt([2.0, 2.0, 4.0, 4.0]))
        lit = config(SPEC2, sigma="paper_literal")
        assert np.allclose(lit.sigmas, np.sqrt([1.0, 1.0, 2.0, 2.0]))

    def test_validation(self):
        with pytest.raises(DomainError):
            config(sigma="guessed")
        with pytest.raises(DomainError):
            config(dt=0.0)
        with pytest.raises(DomainError):
            config(seed=-1)


class TestStep:
    def test_zero_increments_noise_only(self):
        out = sde._step_rows(np.eye(2, dtype=complex), np.zeros((1, 2)))
        assert np.allclose(out, np.eye(2), atol=1e-15)

    def test_single_direction_increment(self):
        cfg = config()
        w = 0.37
        increments = np.array([[w, 0.0]])
        out = sde._step_rows(np.eye(2, dtype=complex), increments * cfg.sigmas)
        gen = so.spin_rep(so.basis_element(1, 1, 3))
        expected = sg.expm_antihermitian(cfg.sigmas[0] * gen * w)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_unitarity_defect_thousand_steps(self):
        # the rows of eye(4) are the whole spin matrix
        cfg = sde.SDEConfig(SPEC2, 1e-3, "corrected", 5)
        rng = np.random.default_rng(5)
        u = np.eye(4, dtype=complex)
        for _ in range(1000):
            dw = rng.standard_normal(4) * np.sqrt(cfg.dt)
            u = sde._step_rows(u, (dw * cfg.sigmas)[None, :])
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-8


class TestMonomialForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_images_are_monomial(self, n):
        gens = sg.vector_images(n)
        dim = 1 << n
        for g in gens:
            assert np.array_equal(np.count_nonzero(g, axis=0), np.ones(dim, dtype=int))
            assert np.all(np.isin(g[g != 0], [0.5, -0.5, 0.5j, -0.5j]))


class TestEnsemble:
    def test_chunk_size_invariance(self, monkeypatch):
        # 37 paths in blocks of 4: chunks of one block, of three, and one
        # chunk for all, the last block partial
        monkeypatch.setattr(sde, "PATH_BLOCK", 4)
        cfg = config(spec=SPEC2, seed=42)
        def gather(chunk):
            r0s, rts = [], []
            for _, r0, snaps in sde.evolve_ensemble(cfg, 37, [0.02], chunk_size=chunk):
                r0s.append(r0)
                rts.append(snaps[0.02])
            return np.concatenate(r0s), np.concatenate(rts)
        a0, at = gather(4)
        b0, bt = gather(12)
        c0, ct = gather(40)
        assert np.array_equal(a0, b0) and np.array_equal(a0, c0)
        assert np.array_equal(at, bt) and np.array_equal(at, ct)

    @pytest.mark.parametrize("chunk", [0, 1000, 1025])
    def test_chunk_size_must_be_block_multiple(self, chunk):
        with pytest.raises(DomainError, match="multiple"):
            next(sde.evolve_ensemble(config(), 10, [0.0], chunk_size=chunk))

    def test_grid_alignment_required(self):
        cfg = config()
        with pytest.raises(DomainError):
            list(sde.evolve_ensemble(cfg, 4, [0.0005]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_dense_reference(self, n, monkeypatch):
        # blocks of 7 steps: the 30-step horizon crosses four block
        # boundaries and ends on a partial block; paths come in two streams,
        # the second partial
        paths, steps, dt, seed = 6, 30, 1e-3, 19
        monkeypatch.setattr(sde, "_BLOCK_BYTES", 7 * paths * 2 * n * 8)
        monkeypatch.setattr(sde, "PATH_BLOCK", 4)
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        cfg = sde.SDEConfig(spec, dt, "corrected", seed)
        grid = [0.0, 0.007, 0.016, 0.03]
        ((_, r0, snaps),) = sde.evolve_ensemble(cfg, paths, grid, chunk_size=8)

        rngs = [sde.block_rng(seed, b) for b in range(2)]
        sizes = [4, 2]
        g = np.concatenate(
            [rng.standard_normal((p, 2 * n + 1, 2 * n + 1)) for rng, p in zip(rngs, sizes)]
        )
        _, u = sg.haar_lift(g, np.eye(1 << n))
        dw = np.concatenate(
            [rng.standard_normal((steps, p, 2 * n)) for rng, p in zip(rngs, sizes)], axis=1
        ) * np.sqrt(dt)
        gens = sg.vector_images(n)
        expected = [u[:, 0]]
        for m in range(steps):
            exps = np.einsum("pj,jab->pab", dw[m] * cfg.sigmas, gens)
            u = u @ np.stack([sg.expm_antihermitian(x) for x in exps])
            expected.append(u[:, 0])
        assert np.array_equal(r0, expected[0])
        for t in grid:
            assert np.max(np.abs(snaps[t] - expected[round(t / dt)])) <= 1e-12

    def test_memory_does_not_grow_with_horizon(self):
        # increments live in a fixed step-block, so 10x the horizon costs no
        # more memory
        def peak(t):
            cfg = config(seed=4)
            tracemalloc.start()
            try:
                for _ in sde.evolve_ensemble(cfg, 4096, [t]):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1.0) <= 1.25 * peak(0.1)

    def test_memory_within_step_block_budget(self):
        # increments take one step-block budget, and their coefficients are
        # cast to complex one step at a time: a whole-block cast peaks at 6.9x
        tracemalloc.start()
        try:
            for _ in sde.evolve_ensemble(config(seed=4), 4096, [0.1]):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * sde._BLOCK_BYTES

    def test_memory_within_rows_budget(self):
        # n = 6, 4096 paths, in units of the rows, 16 2^n P bytes: one
        # gather per generator peaks at 12.55 rows, and a rows-sized
        # temporary in the paired kernel adds about one more
        spec = ham.HamiltonianSpec(6, tuple(float(k) for k in range(1, 7)))
        tracemalloc.start()
        try:
            for _ in sde.evolve_ensemble(config(spec, seed=4), 4096, [0.0, 0.02]):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.8 * 16 * (1 << 6) * 4096


class TestGeneratorCheck:
    def test_corrected_rate_at_identity(self):
        cfg = config(seed=101)
        out = sde.generator_check(fock.vacuum(1), sg.identity_point(1), 100_000, cfg)
        assert out.target == pytest.approx(-0.5, abs=1e-12)
        assert abs(out.empirical - out.target) <= 4 * out.std_error + 1e-3

    def test_literal_rate_is_half(self):
        cfg = config(sigma="paper_literal", seed=102)
        out = sde.generator_check(fock.vacuum(1), sg.identity_point(1), 100_000, cfg)
        assert out.target == pytest.approx(-0.25, abs=1e-12)
        assert abs(out.empirical - out.target) <= 4 * out.std_error + 1e-3

    def test_haar_point_away_from_identity(self):
        rng = np.random.default_rng(17)
        x = sg.haar_sample(rng, 1)
        cfg = config(seed=103)
        out = sde.generator_check(fock.basis_vector(1, [1]), x, 200_000, cfg)
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
        fine_cfg = config(dt=5e-4, seed=31)
        psi = fock.vacuum(1).amplitudes
        fine_vals, coarse_vals = [], []
        chunk = sde.PATH_BLOCK
        for start, r0, _ in sde.evolve_ensemble(fine_cfg, n_paths, [0.0], chunk_size=chunk):
            count = r0.shape[0]
            rng = sde.block_rng(31, start // chunk)
            rng.standard_normal((count, 3, 3))  # skip the Haar draw
            dw = rng.standard_normal((1000, count, 2)) * np.sqrt(5e-4)
            rf = r0
            for m in range(1000):
                rf = sde._step_rows(rf, dw[m] * fine_cfg.sigmas)
            coarse_dw = dw[0::2] + dw[1::2]
            rc = r0
            for m in range(500):
                rc = sde._step_rows(rc, coarse_dw[m] * fine_cfg.sigmas)
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

    def test_fit_skips_non_positive_point(self):
        # ln Re mean is undefined at the last point; the fit uses the rest
        rows = [(t, 0.5 * np.exp(-0.5 * t) + 0j, 0.01) for t in (0.0, 0.5, 1.0)]
        curve = rows + [(1.5, -0.01 + 0.02j, 0.01)]
        assert [sde.usable_for_fit(row) for row in curve] == [True, True, True, False]
        rate, rate_se = sde.fit_decay_rate(curve)
        assert (rate, rate_se) == sde.fit_decay_rate(rows)
        assert rate == pytest.approx(0.5, abs=1e-12)
