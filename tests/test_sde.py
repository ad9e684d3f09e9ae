import math
import time
import tracemalloc

import numpy as np
import pytest

from spinfock import checks, fock, hamiltonian as ham, sde, spin_group as sg
from spinfock.errors import DomainError, SizeError

from dense_reference import basis_images, expm_antihermitian

SPEC1 = ham.HamiltonianSpec(1, (1.0,))
SPEC2 = ham.HamiltonianSpec(2, (1.0, 2.0))


def config(spec=SPEC1, dt=1e-3, sigma="corrected", seed=0):
    return sde.SDEConfig(spec, dt, sigma, seed)


def step_mean(cfg, terms=40):
    """m(dt) with E[step] = m(dt) I: the engine's exact mean at step size cfg.dt.

    The step is cos(w) I + sinc(w/pi) gamma(c)/2, and c is symmetric, so
    only E cos(w) survives. w^2 = sum_k a_k X_k over the modes, with
    X_k ~ Exp(1) and a_k = dt sigma_{2k}^2 / 2, so E w^(2m) = m! h_m(a), h_m
    the complete homogeneous symmetric polynomial, and
    m(dt) = sum_m (-1)^m m! h_m(a) / (2m)!.
    """
    h = np.zeros(terms)
    h[0] = 1.0
    for a in cfg.dt * cfg.sigmas[1::2] ** 2 / 2:
        # h_m(a_1..a_k) = h_m(a_1..a_(k-1)) + a_k h_(m-1)(a_1..a_k)
        for m in range(1, terms):
            h[m] += a * h[m - 1]
    total, ratio = 0.0, 1.0
    for m in range(terms):
        if m:
            ratio /= 2 * (2 * m - 1)  # m! / (2m)!
        total += (-1) ** m * ratio * h[m]
    return total


def keep_rows(t, r0, rows):
    """The identity read of evolve_ensemble: the full rows e_0^T U at each grid time."""
    return rows.copy()


def skip_rows(t, r0, rows):
    """A read of evolve_ensemble that keeps nothing."""
    return None


def fed_ensemble(values, chunk):
    """A stand-in for evolve_ensemble whose n = 1 vacuum reads are the given values.

    Each path starts and stays at the row e_0 scaled by its value, and the
    chunks hold chunk paths each.
    """
    def evolve(config, n_paths, t_grid, read):
        for start in range(0, n_paths, chunk):
            part = values[start:start + chunk]
            r0 = np.zeros((len(part), 2), dtype=complex)
            r0[:, 0] = 1.0
            yield start, r0, {t: read(t, r0, r0 * part[:, None]) for t in t_grid}

    return evolve


def series_probe(c1):
    """|c|^2, cos and sinc of _noise_coefficients at c = (2^-30, c1), and libm's.

    The power-of-two component carries sinc back exactly, and the engine forms
    |c|^2 = c_1^2 + c_2^2 with the same roundings as here, so libm is
    evaluated at the engine's own w.
    """
    scaled = np.stack([np.full_like(c1, 2.0**-30), c1], axis=-1)
    norm2 = scaled[:, 0] ** 2 + scaled[:, 1] ** 2
    om = np.sqrt(norm2) * 0.5
    cos_om, coef = sde._noise_coefficients(scaled[None])
    return norm2, cos_om[0], coef[0, :, 0] * 2.0**30, np.cos(om), np.sin(om) / om


def ulps(value, reference):
    return np.max(np.abs(value - reference) / np.spacing(np.abs(reference)))


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
        # a zero increment is the identity step, and an increment whose
        # square underflows takes the w == 0 branch with sinc = 1
        scaled = np.zeros((2, 3, 4))
        scaled[1, 2] = [1e-200, 0.0, -3e-200, 0.0]
        expected = scaled.copy()
        with np.errstate(all="raise"):
            cos_om, coef = sde._noise_coefficients(scaled)
        assert np.array_equal(cos_om, np.ones((2, 3)))
        assert np.array_equal(coef, expected)

    def test_series_within_two_ulp_of_libm(self):
        # w^2 dense in [0, 1/4], then on to 1 where libm takes over: a bound
        # raised to w^2 = 1 without more terms reads 430 ulp (cos) there, and
        # one cos term less 7 ulp below the bound
        c1 = 2 * np.sqrt(np.linspace(0.0, 1.0, 400_001))
        norm2, cos_om, sinc, cos_ref, sinc_ref = series_probe(c1)
        assert norm2[100_000] == 1.0  # the bound itself, still a series point
        assert ulps(cos_om, cos_ref) <= 2
        assert ulps(sinc, sinc_ref) <= 2

    def test_libm_beyond_bound(self):
        # from the first |c|^2 above 1 on, libm's values bit for bit
        c1 = np.concatenate([1.0 + 2.0**-52 * np.arange(1, 1001), np.linspace(1.001, 8.0, 5000)])
        norm2, cos_om, sinc, cos_ref, sinc_ref = series_probe(c1)
        assert np.all(norm2 > 1.0)
        assert np.array_equal(cos_om, cos_ref)
        assert np.array_equal(sinc, sinc_ref)

    def test_coefficients_memory(self):
        # |c|^2, cos and sinc as (size, P) float arrays, plus one (P, 2n) step
        # row of squares and bookkeeping (7 KiB here): squaring the whole
        # block would add two more arrays, and keeping |c|^2 while the last
        # product casts sinc to complex adds a 128 KiB buffer
        size, paths = 13, 10_000
        scaled = np.random.default_rng(6).standard_normal((size, paths, 2)) * math.sqrt(2e-3)
        tracemalloc.start()
        try:
            sde._noise_coefficients(scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * size * paths * 8 + paths * 2 * 8 + (1 << 16)

    def test_unitarity_defect_thousand_steps(self):
        # no mean can see the sinc factor, since E[step] does not depend on
        # it; the norm of every row after 1000 steps does
        cfg = sde.SDEConfig(SPEC2, 1e-3, "corrected", 5)
        ((_, _, snaps),) = sde.evolve_ensemble(cfg, sde.PATH_BLOCK, [1.0], keep_rows)
        assert np.max(np.abs(np.linalg.norm(snaps[1.0], axis=1) - 1.0)) <= 1e-8


class TestVectorImages:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_images_are_monomial(self, n):
        gens = checks.vector_images(n, basis_images(n, "spin"))
        dim = 1 << n
        for g in gens:
            assert np.array_equal(np.count_nonzero(g, axis=0), np.ones(dim, dtype=int))
            assert np.all(np.isin(g[g != 0], [0.5, -0.5, 0.5j, -0.5j]))


class TestEnsemble:
    def test_chunk_size_invariance(self, monkeypatch):
        # 37 paths in blocks of 4, 64 bytes of rows a path at n = 2: chunks
        # of one block, of five blocks, and one chunk for all, the last
        # block partial; each budget holds one step of the chunk's increments
        monkeypatch.setattr(sde, "PATH_BLOCK", 4)
        cfg = config(spec=SPEC2, seed=42)
        def gather(row_bytes):
            monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", row_bytes)
            items = list(sde.evolve_ensemble(cfg, 37, [0.02], keep_rows))
            r0 = np.concatenate([it[1] for it in items])
            return len(items), r0, np.concatenate([it[2][0.02] for it in items])
        a, a0, at = gather(0)
        b, b0, bt = gather(5 * 4 * 64)
        c, c0, ct = gather(10 * 4 * 64)
        assert (a, b, c) == (10, 2, 1)
        assert np.array_equal(a0, b0) and np.array_equal(a0, c0)
        assert np.array_equal(at, bt) and np.array_equal(at, ct)

    @pytest.mark.parametrize("n, paths", [(1, 33_000), (4, 5000), (6, 2100)])
    def test_default_chunks_match_single_blocks(self, n, paths, monkeypatch):
        # default chunks, the last block partial: n = 1, two of 32 blocks;
        # n = 4, two of 4 blocks; n = 6, where a block's rows fill the
        # budget, three of one block. Against chunks of one block, with one
        # step a step-block, and one chunk for all paths, with all 4 steps in
        # one. The reducer must not round by chunk either, so correlations
        # is compared at one block a chunk.
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        cfg = sde.SDEConfig(spec, 1e-3, "corrected", 5)
        grid = [0.0, 0.004]

        def gather(row_bytes):
            monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", row_bytes)
            items = list(sde.evolve_ensemble(cfg, paths, grid, keep_rows))
            rows = [np.concatenate([it[1] for it in items])]
            rows += [np.concatenate([it[2][t] for it in items]) for t in grid]
            return len(items), rows

        default_bytes = fock.MAX_ARRAY_BYTES
        count, default = gather(default_bytes)
        assert count == {1: 2, 4: 2, 6: 3}[n]
        for row_bytes, chunks in ((0, -(-paths // sde.PATH_BLOCK)), (1 << 30, 1)):
            count, other = gather(row_bytes)
            assert count == chunks
            assert all(np.array_equal(a, b) for a, b in zip(default, other))
        psi = fock.basis_vector(n, [1]).amplitudes
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", default_bytes)
        whole = sde.correlations(cfg, paths, grid, psi, lambda t: psi)
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 0)
        assert sde.correlations(cfg, paths, grid, psi, lambda t: psi) == whole

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_step_block_invariance(self, n, monkeypatch):
        # one step-block for all 20 steps against one step per block; at
        # dt = 0.05 steps take both the series and libm (n = 1: about 0.7 %
        # of w^2 exceed 1/4). Two path blocks, the second partial, in one
        # chunk for the 20-step budget, which holds their rows too, and in
        # one chunk each for the 1-byte one.
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        cfg = sde.SDEConfig(spec, 0.05, "corrected", 23)
        grid = [0.0, 0.35, 1.0]

        def gather(array_bytes):
            monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", array_bytes)
            items = list(sde.evolve_ensemble(cfg, 1500, grid, keep_rows))
            rows = [np.concatenate([it[1] for it in items])]
            return len(items), rows + [np.concatenate([it[2][t] for it in items]) for t in grid]

        count, whole = gather(20 * 1500 * (2 * n + 3) * 8)
        assert count == 1
        count, stepwise = gather(1)
        assert count == 2
        assert all(np.array_equal(a, b) for a, b in zip(whole, stepwise))

    def test_grid_alignment_required(self):
        cfg = config()
        with pytest.raises(DomainError):
            list(sde.evolve_ensemble(cfg, 4, [0.0005], keep_rows))

    def test_repeated_grid_time_refused(self):
        with pytest.raises(DomainError, match="distinct"):
            sde.grid_steps([0.1, 0.2, 0.1], 0.1)

    def test_times_on_one_step_read_in_grid_order(self):
        # 0.1 + 1e-11 is a distinct time within the rule's tolerance of step 1
        close = 0.1 + 1e-11
        grid = [0.3, close, 0.0, 0.1]
        assert sde.grid_steps(grid, 0.1) == {3: [0.3], 1: [close, 0.1], 0: [0.0]}
        order = []

        def read(t, r0, rows):
            order.append(t)
            return rows.copy()

        ((_, _, reads),) = sde.evolve_ensemble(config(dt=0.1), 4, grid, read)
        assert order == [0.0, close, 0.1, 0.3]
        assert np.array_equal(reads[close], reads[0.1])

    @pytest.mark.parametrize(
        "n, dt",
        [pytest.param(n, 1e-3, id=str(n)) for n in (1, 2, 3, 4)]
        + [pytest.param(n, 0.1, id=f"{n}-coarse") for n in (1, 2, 3, 4)],
    )
    def test_rows_match_dense_reference(self, n, dt, monkeypatch):
        # blocks of 7 steps: the 30-step horizon crosses four block
        # boundaries and ends on a partial block; paths come in two streams,
        # the second partial, whose rows the same budget holds in one chunk.
        # At dt = 0.1 the step angles w reach 2.
        paths, steps, seed = 6, 30, 19
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 7 * paths * (2 * n + 3) * 8)
        monkeypatch.setattr(sde, "PATH_BLOCK", 4)
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        cfg = sde.SDEConfig(spec, dt, "corrected", seed)
        grid = [s * dt for s in (0, 7, 16, 30)]
        ((_, r0, snaps),) = sde.evolve_ensemble(cfg, paths, grid, keep_rows)

        rngs = [sde.block_rng(seed, b) for b in range(2)]
        sizes = [4, 2]
        g = np.concatenate(
            [rng.standard_normal((p, 2 * n + 1, 2 * n + 1)) for rng, p in zip(rngs, sizes)]
        )
        u = sg.haar_lift(sg.haar_factors(g), np.eye(1 << n))
        dw = np.concatenate(
            [rng.standard_normal((steps, p, 2 * n)) for rng, p in zip(rngs, sizes)], axis=1
        ) * np.sqrt(dt)
        gens = checks.vector_images(n, basis_images(n, "spin"))
        expected = [u[:, 0]]
        for m in range(steps):
            exps = np.einsum("pj,jab->pab", dw[m] * cfg.sigmas, gens)
            u = u @ np.stack([expm_antihermitian(x) for x in exps])
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
                for _ in sde.evolve_ensemble(cfg, 4096, [t], skip_rows):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1.0) <= 1.25 * peak(0.1)

    def test_memory_within_step_block_budget(self):
        # the increments and their cos, sinc and |c|^2 share one step-block
        # of the array budget, and the coefficients are cast to complex one
        # step at a time; with the four arrays of rows (128 KiB each) the
        # peak is 2.4x
        tracemalloc.start()
        try:
            for _ in sde.evolve_ensemble(config(seed=4), 4096, [0.1], skip_rows):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * fock.MAX_ARRAY_BYTES

    @staticmethod
    def block_rows_peak(n):
        """Peak of 4096 paths to t = 0.02, in one block's rows, 16 2^n PATH_BLOCK bytes."""
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        tracemalloc.start()
        try:
            for _ in sde.evolve_ensemble(config(spec, seed=4), 4096, [0.0, 0.02], skip_rows):
                pass
            return tracemalloc.get_traced_memory()[1] / (16 * (1 << n) * sde.PATH_BLOCK)
        finally:
            tracemalloc.stop()

    def test_memory_within_rows_budget(self):
        # n = 6, where a chunk is one block: the peak is the lift of the
        # starts, with r0, the lift's rows, scratch and output, about four
        # (P, 13, 13) float arrays of 1.3 block rows each, and the previous
        # chunk's r0, which the loop holds. 9.1 under numpy 2.4; 18.4 when
        # every chunk held at least 4 blocks
        assert self.block_rows_peak(6) <= 11

    def test_memory_within_one_block_at_n8(self):
        # as at n = 6, with (P, 17, 17) float arrays of 0.56 block rows
        # each: 6.3 under numpy 2.4; 16.4 when every chunk held 4 blocks
        assert self.block_rows_peak(8) <= 8


class TestReducer:
    @pytest.mark.parametrize(
        "paths, offset",
        [(5000, 0.5), (sde.PATH_BLOCK, 0.5), (100, 0.5j), (5000, 1e6 + 2e6j), (3000, -1e6)],
    )
    def test_matches_complex_mean_stderr(self, paths, offset, monkeypatch):
        # blocks merged in order against two passes over all values: partial
        # last blocks (5000, 3000, 100 paths), one whole block, and offsets
        # of 1e6 under a spread of 0.5, where a sum of squares loses the spread
        rng = np.random.default_rng(paths)
        values = offset + 0.5 * (rng.standard_normal(paths) + 1j * rng.standard_normal(paths))
        ref_mean = values.mean()
        ref_se = np.sqrt((values.real.var(ddof=1) + values.imag.var(ddof=1)) / paths)
        naive = (np.sum(np.abs(values) ** 2) - paths * abs(values.mean()) ** 2) / (paths - 1) / paths
        assert (abs(naive - ref_se**2) > 1e-6 * ref_se**2) == (abs(offset) > 1)
        vac = fock.vacuum(1).amplitudes
        grid = [0.0, 0.1]
        results = []
        for chunk in (1, 3, 8):
            monkeypatch.setattr(sde, "evolve_ensemble", fed_ensemble(values, chunk * sde.PATH_BLOCK))
            results.append(sde.correlations(config(), paths, grid, vac, lambda t: vac))
        assert results[1] == results[0] and results[2] == results[0]
        for _, mean, stderr in results[0]:
            assert abs(mean - ref_mean) <= 1e-12 * abs(ref_mean)
            assert abs(stderr - ref_se) <= 1e-12 * ref_se

    def test_memory_does_not_grow_with_path_count(self):
        # each block is reduced at the grid step, so four default chunks at
        # n = 1 cost no more memory than one
        psi = fock.basis_vector(1, [1]).amplitudes
        grid = [0.01, 0.02]

        def peak(paths):
            tracemalloc.start()
            try:
                sde.correlations(config(seed=1), paths, grid, psi, lambda t: psi)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(sde.PATH_BLOCK)  # one-time allocations
        chunk = 32 * sde.PATH_BLOCK
        assert peak(4 * chunk) <= 1.1 * peak(chunk)

    def test_dense_grid_holds_no_partial_block(self):
        # 1000 paths are one partial block at each of 2000 grid times; the
        # read that completes a reducer's count merges it, where each time
        # held its 1000 values to the end (35 MB)
        grid = [round(1e-3 * s, 3) for s in range(1, 2001)]
        tracemalloc.start()
        try:
            rows = sde.decay_curve(SPEC1, grid, 1000, 1e-3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2000
        assert peak <= 8e6


class TestGeneratorCheck:
    # The step's mean is m(dt) I exactly, so the generator of the step is
    # (m(dt) - 1)/dt, which tends to (1/2) sum_j sigma_j^2 (gamma_j/2)^2 =
    # -(sum_j sigma_j^2 / 8) I: -sum E / 2 for corrected, half that for
    # paper_literal.

    @pytest.mark.parametrize("sigma, share", [("corrected", 0.5), ("paper_literal", 0.25)])
    def test_exact_mean_tends_to_generator(self, sigma, share):
        gens = checks.vector_images(2, basis_images(2, "spin"))
        lmat = 0.5 * np.einsum("j,jab,jbc->ac", config(SPEC2, sigma=sigma).sigmas ** 2, gens, gens)
        rate = share * sum(SPEC2.energies)
        assert np.max(np.abs(lmat + rate * np.eye(4))) <= 1e-12
        for dt in (1e-3, 1e-5):
            slope = (step_mean(config(SPEC2, dt, sigma)) - 1) / dt
            # the O(dt) term is dt h_2(a/dt) / 12 <= dt rate^2 / 3
            assert 0 < slope + rate <= dt * rate**2 / 3

    def one_step_mean(self, row, psi, n_samples, cfg):
        """Monte Carlo (E[f(x step)] - f(x)) / dt and its target (m(dt) - 1)/dt f(x).

        The samples of x step are row @ exp(gamma(c)/2), one step of the
        engine's kernel on the shared row.
        """
        rng = np.random.default_rng(cfg.seed)
        dw = rng.standard_normal((n_samples, 2 * cfg.spec.n)) * math.sqrt(cfg.dt)
        cos_om, coef = sde._noise_coefficients(dw * cfg.sigmas)
        ladder = np.ascontiguousarray(coef.view(complex).T)
        rows = np.asarray(row, dtype=complex)[:, None]
        work = np.empty((len(rows), n_samples), dtype=complex)
        stepped = sg.apply_modes(rows, cos_om, ladder, range(cfg.spec.n), work).T
        f0 = row @ psi
        reducer = sg.BlockReducer(n_samples)
        reducer.add((stepped @ psi - f0) / cfg.dt)
        est = reducer.estimate()
        return est.mean, est.std_error, (step_mean(cfg) - 1) / cfg.dt * f0

    def test_corrected_rate_at_identity(self):
        cfg = config(seed=101)
        vac = fock.vacuum(1).amplitudes
        mean, stderr, target = self.one_step_mean(np.eye(2)[0], vac, 100_000, cfg)
        assert abs(mean - target) <= 4 * stderr + 1e-3

    def test_literal_rate_is_half(self):
        cfg = config(sigma="paper_literal", seed=102)
        vac = fock.vacuum(1).amplitudes
        mean, stderr, target = self.one_step_mean(np.eye(2)[0], vac, 100_000, cfg)
        assert abs(mean - target) <= 4 * stderr + 1e-3

    def test_haar_point_away_from_identity(self):
        g = np.random.default_rng(17).standard_normal((1, 3, 3))
        u = sg.haar_lift(sg.haar_factors(g), np.eye(2))
        cfg = config(seed=103)
        top = fock.basis_vector(1, [1]).amplitudes
        mean, stderr, target = self.one_step_mean(u[0, 0], top, 200_000, cfg)
        assert abs(target) > 0.1
        assert abs(mean - target) <= 4 * stderr + 1e-3


class TestDecay:
    def test_long_grid_costs_its_steps(self):
        # each step looks its reads up, so 20,000 grid times on 20,000 steps
        # cost about what the one time 20.0 does (21 s when every step
        # scanned the grid)
        grid = [round(1e-3 * s, 3) for s in range(1, 20001)]
        start = time.perf_counter()
        rows = sde.decay_curve(SPEC1, grid, 100, 1e-3, 1)
        assert time.perf_counter() - start <= 10
        assert len(rows) == 20000

    def test_eigenfunction_decay(self):
        # E[conj(f(X(0))) f(X(t))] = exp(-t/2 sum E) 2^{-n} |psi|^2
        rows = sde.decay_curve(SPEC1, [0.5], 6000, 1e-3, 7, "corrected")
        t, mean, stderr = rows[0]
        target = np.exp(-0.5 * 0.5) * 0.5
        assert abs(mean - target) <= 3 * stderr + 2e-3

    def test_eigenfunction_decay_any_state_two_modes(self):
        # the decay constant does not depend on the state, only on its norm
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        config = sde.SDEConfig(SPEC2, 1e-3, "corrected", 9)
        ((_, mean, stderr),) = sde.correlations(config, 6000, [0.4], psi, lambda t: psi)
        target = np.exp(-0.4 * 0.5 * 3.0) * 0.25 * np.linalg.norm(psi) ** 2
        assert abs(mean - target) <= 3 * stderr + 2e-3

    @pytest.mark.parametrize(
        "n, dt, t, paths", [(1, 0.5, 1.0, 65536), (2, 0.1, 0.5, 65536), (3, 0.1, 0.3, 32768)]
    )
    def test_mean_follows_exact_step_law(self, n, dt, t, paths):
        # steps are independent with mean m(dt) I, so the autocorrelation
        # is 2^{-n} m(dt)^s after s steps, not the continuous
        # 2^{-n} exp(-t sum E / 2); at these coarse steps the two differ by
        # 3.7 to 5.9 standard errors
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        ((_, mean, stderr),) = sde.decay_curve(spec, [t], paths, dt, 0, "corrected")
        discrete = 2.0**-n * step_mean(config(spec, dt)) ** round(t / dt)
        continuous = 2.0**-n * math.exp(-t * sum(spec.energies) / 2)
        assert abs(mean - discrete) <= 3 * stderr
        assert abs(mean - continuous) >= 3 * stderr

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

    @pytest.mark.parametrize("dropped", [0.0, -0.01])
    def test_fit_needs_three_usable_points(self, dropped):
        # a line through the two usable points fits them exactly, so no
        # residual is left to give its standard error
        rows = [(0.0, 0.5 + 0j, 0.01), (0.5, 0.4 + 0j, 0.01), (1.0, dropped + 0j, 0.01)]
        with pytest.raises(SizeError, match="three usable"):
            sde.fit_decay_rate(rows)

    def test_fit_skips_non_positive_point(self):
        # ln Re mean is undefined at the last point; the fit uses the rest
        rows = [(t, 0.5 * np.exp(-0.5 * t) + 0j, 0.01) for t in (0.0, 0.5, 1.0)]
        curve = rows + [(1.5, -0.01 + 0.02j, 0.01)]
        assert [sde.usable_for_fit(row) for row in curve] == [True, True, True, False]
        rate, rate_se = sde.fit_decay_rate(curve)
        assert (rate, rate_se) == sde.fit_decay_rate(rows)
        assert rate == pytest.approx(0.5, abs=1e-12)
