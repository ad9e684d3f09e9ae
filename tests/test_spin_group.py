import numpy as np
import pytest

from spinfock import checks, fock, sde, so_algebra as so, spin_group as sg, uea
from spinfock.errors import SizeError

from dense_reference import basis_images, expm_antihermitian


def spin_of_antisymmetric(n, x):
    """Spin image of a stack of real antisymmetric (2n+1) x (2n+1) matrices."""
    syms = so.symbols(n)
    imgs = basis_images(n, "spin")
    coeffs = np.stack([x[..., j - 1, k - 1] for j, k in syms], axis=-1)
    return (coeffs @ imgs.reshape(len(syms), -1)).reshape(x.shape[:-2] + imgs.shape[1:])


class TestExponentials:
    def test_exp_zero_is_identity(self):
        zero = uea.zero(1)
        assert np.allclose(expm_antihermitian(so.spin_rep(zero)), np.eye(2), atol=1e-14)
        assert np.allclose(expm_antihermitian(so.defining_rep(zero)), np.eye(3), atol=1e-14)

    def test_defining_rotation_closed_form(self):
        theta = 0.8
        m = expm_antihermitian(so.defining_rep(so.basis_element(1, 1, 2, theta))).real
        expected = np.eye(3)
        expected[:2, :2] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        assert np.max(np.abs(m - expected)) < 1e-12

    def test_double_cover(self):
        # a full defining-rep turn is -1 in the spin representation
        turn = so.basis_element(1, 1, 2, 2 * np.pi)
        m = expm_antihermitian(so.spin_rep(turn))
        assert np.max(np.abs(m + np.eye(2))) < 1e-12
        r = expm_antihermitian(so.defining_rep(turn))
        assert np.max(np.abs(r - np.eye(3))) < 1e-12

    def test_unitary_output(self):
        rng = np.random.default_rng(1)
        for n in (1, 2):
            coeffs = {(s,): rng.uniform(-2, 2) for s in so.symbols(n)}
            u = expm_antihermitian(so.spin_rep(so.UEAPolynomial(n, coeffs)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(1 << n))) < 1e-12

    def test_stacked_exponentials(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        m = a - np.conj(np.swapaxes(a, 1, 2))
        stacked = expm_antihermitian(m)
        assert np.array_equal(stacked, np.stack([expm_antihermitian(x) for x in m]))


def rotations_and_lifts(g, rows):
    """Rotations and lifted rows of a stack of Gaussian matrices, from one factorization."""
    factors = sg.haar_factors(g)
    return sg.haar_rotations(factors), sg.haar_lift(factors, rows)


def haar_draws(rng, n, count):
    """Rotations and spin matrices of count Gaussian draws from rng."""
    N = 2 * n + 1
    return rotations_and_lifts(rng.standard_normal((count, N, N)), np.eye(1 << n))


def lapack_rotations(g):
    """The reference rotations: reduced QR, R-diagonal sign fix, determinant fix."""
    q, r = np.linalg.qr(g)
    q = q * np.where(np.einsum("...ii->...i", r) < 0, -1.0, 1.0)[..., None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def mixed_stack(rng, N, count):
    """count Gaussian draws, count triangular ones, whose Householder reflectors
    are all the identity, and count with a positive R-diagonal, which use no
    coordinate reflection, interleaved."""
    gauss, tri, pos = rng.standard_normal((3, count, N, N))
    tri = np.triu(tri)
    # a negated column negates its R-diagonal entry and keeps the reflectors
    pos *= np.sign(np.einsum("...ii->...i", np.linalg.qr(pos, mode="r")))[:, None, :]
    h, tau = np.linalg.qr(np.concatenate([tri, pos]), mode="raw")
    assert not tau[:count].any() and (np.einsum("...ii->...i", h[count:]) > 0).all()
    return np.stack([gauss, tri, pos], axis=1).reshape(3 * count, N, N)


class TestHaar:
    def test_sample_invariants(self):
        rng = np.random.default_rng(0)
        for n in (1, 2):
            r, u = haar_draws(rng, n, 50)
            assert np.max(np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - np.eye(1 << n))) < 1e-10
            assert np.max(np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(2 * n + 1))) < 1e-10
            assert np.allclose(np.linalg.det(r), 1.0, rtol=0, atol=1e-10)

    def test_entry_mean_and_trace_moment(self):
        n_samples = 4000
        r, _ = haar_draws(np.random.default_rng(123), 1, n_samples)
        means = r.mean(axis=(1, 2))
        traces = np.trace(r, axis1=1, axis2=2) ** 2
        z_mean = abs(means.mean()) / (means.std(ddof=1) / np.sqrt(n_samples))
        z_trace = abs(traces.mean() - 1.0) / (traces.std(ddof=1) / np.sqrt(n_samples))
        assert z_mean <= 3.0
        assert z_trace <= 3.0

    def test_determinism(self):
        ra, ua = haar_draws(np.random.default_rng(9), 2, 1)
        rb, ub = haar_draws(np.random.default_rng(9), 2, 1)
        assert np.array_equal(ua, ub)
        assert np.array_equal(ra, rb)


class TestApplyModes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_dense_images(self, n, stacked):
        # the kernel, samples last, (2^n, P) or (2^n, 2^n, P), against
        # scalar rows + sum_j coef_j rows @ (gamma_j / 2) with the dense
        # images, samples first, (P, 2^n) or (P, 2^n, 2^n)
        dim, paths = 1 << n, 300
        rng = np.random.default_rng(70 + n)
        images = checks.vector_images(n, basis_images(n, "spin"))
        shape = (paths, dim, dim) if stacked else (paths, dim)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows[::4] = 0.0
        rows[1::4, ..., 0] = -0.0
        scalar = rng.standard_normal(paths)
        coef = rng.standard_normal((paths, 2 * n))
        coef[::3] = 0.0
        coef[1::3, 0] = 0.0
        lead = (paths,) + (1,) * (len(shape) - 2)
        expected = scalar.reshape(lead + (1,)) * rows
        for j, image in enumerate(images):
            expected += coef[:, j].reshape(lead + (1,)) * (rows @ image)
        last = np.ascontiguousarray(np.swapaxes(rows, 0, -1))
        ladder = np.ascontiguousarray(coef.view(complex).T)
        out = sg.apply_modes(last, scalar, ladder, range(n), np.empty_like(last))
        out = np.swapaxes(out, 0, -1)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(out))
        assert not np.any(out[::4])


class TestHaarRotations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack_reference(self, n):
        # Gaussian, triangular (every tau 0) and positive-R-diagonal draws
        N = 2 * n + 1
        g = np.concatenate([
            np.random.default_rng(80 + n).standard_normal((300, N, N)),
            mixed_stack(np.random.default_rng(90 + n), N, 20),
        ])
        rot = sg.haar_rotations(sg.haar_factors(g))
        assert np.max(np.abs(rot - lapack_rotations(g))) <= 1e-14
        assert np.max(np.abs(np.linalg.det(rot) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.swapaxes(rot, 1, 2) @ rot - np.eye(N))) <= 1e-14


class TestHaarLift:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lift_conjugates_spin_images(self, n):
        # U spin(X) U^dagger = spin(R X R^T) on 10^4 draws from five block
        # streams, and R is the rotation haar_orthogonal makes from the same
        # draw: the lift has no determinant fix of its own, so this pins its
        # reflections, an odd count left unpaired, to the det-fixed R
        N, paths, chunk = 2 * n + 1, 10_000, 2000
        a = np.random.default_rng(40 + n).standard_normal((N, N))
        x = a - a.T
        spin_x = spin_of_antisymmetric(n, x)
        worst = 0.0
        for b in range(paths // chunk):
            g = sde.block_rng(7, b).standard_normal((chunk, N, N))
            rot, u = rotations_and_lifts(g, np.eye(1 << n))
            rng = sde.block_rng(7, b)
            expected = np.stack([sg.haar_orthogonal(rng, N) for _ in range(chunk)])
            assert np.array_equal(rot, expected)
            lhs = u @ spin_x @ np.conj(np.swapaxes(u, 1, 2))
            rhs = spin_of_antisymmetric(n, rot @ x @ np.swapaxes(rot, 1, 2))
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_triangular_draw_lifts_coordinate_reflections(self, n):
        # no Householder reflector is active, so R is the sign fix alone
        N = 2 * n + 1
        g = np.triu(np.random.default_rng(n).standard_normal((N, N)))
        g[np.diag_indices(N)] = [-1.0, 2.0, -3.0, 1.0, -2.0][:N]
        rot, u = rotations_and_lifts(g[None], np.eye(1 << n))
        assert np.array_equal(np.abs(rot[0]), np.eye(N))
        assert np.linalg.det(rot[0]) == pytest.approx(1.0)
        a = np.random.default_rng(5).standard_normal((N, N))
        x = a - a.T
        lhs = u[0] @ spin_of_antisymmetric(n, x) @ u[0].conj().T
        assert np.max(np.abs(lhs - spin_of_antisymmetric(n, rot[0] @ x @ rot[0].T))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reflections_some_samples_skip(self, n):
        # each sample of a mixed stack lifts as it does alone, and covers
        N = 2 * n + 1
        g = mixed_stack(np.random.default_rng(60 + n), N, 4)
        rot, u = rotations_and_lifts(g, np.eye(1 << n))
        for p in range(len(g)):
            assert np.array_equal(u[p], sg.haar_lift(sg.haar_factors(g[p:p + 1]), np.eye(1 << n))[0])
        a = np.random.default_rng(5).standard_normal((N, N))
        x = a - a.T
        lhs = u @ spin_of_antisymmetric(n, x) @ np.conj(np.swapaxes(u, 1, 2))
        rhs = spin_of_antisymmetric(n, rot @ x @ np.swapaxes(rot, 1, 2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_applies_only_the_reflections_in_use(self, n, monkeypatch):
        # a Gaussian stack never uses the last Householder reflector; an
        # upper-triangular draw with a positive diagonal uses none, and lifts to 1
        calls, apply_modes = [], sg.apply_modes

        def counted(*args):
            calls.append(args)
            return apply_modes(*args)

        monkeypatch.setattr(sg, "apply_modes", counted)
        N, rows = 2 * n + 1, np.eye(1 << n)
        sg.haar_lift(sg.haar_factors(np.random.default_rng(n).standard_normal((50, N, N))), rows)
        assert len(calls) == 2 * N - 1
        g = np.triu(np.random.default_rng(n).standard_normal((N, N)), 1) + np.eye(N)
        assert np.array_equal(sg.haar_lift(sg.haar_factors(g[None]), rows)[0], rows)
        assert len(calls) == 2 * N - 1

    def test_rows_are_rows_of_the_spin_matrix(self):
        g = np.random.default_rng(8).standard_normal((6, 5, 5))
        factors = sg.haar_factors(g)
        u = sg.haar_lift(factors, np.eye(4))
        rows = sg.haar_lift(factors, np.eye(4)[[0, 3]])
        assert np.array_equal(rows, u[:, [0, 3]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(SizeError):
            sg.haar_lift(sg.haar_factors(np.zeros((2, 4, 4))), np.eye(2))
        with pytest.raises(SizeError):
            sg.haar_lift(sg.haar_factors(np.ones((2, 5, 5))), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_raw_qr_and_no_det(self, n, monkeypatch):
        # the rotations and the lift both read the one raw factorization
        qr, modes, dets = np.linalg.qr, [], []

        def counted_qr(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(np.linalg, "det", dets.append)
        N = 2 * n + 1
        rotations_and_lifts(np.random.default_rng(n).standard_normal((50, N, N)), np.eye(1 << n))
        assert modes == ["raw"]
        assert dets == []


class TestMatrixCoefficients:
    # the coefficient of psi at g is <vacuum, spin(g) psi>, entry 0 of U psi

    def test_identity_values(self):
        # an upper-triangular draw with a positive diagonal is the identity
        # rotation, and its lift is exactly the identity
        g = np.triu(np.random.default_rng(2).standard_normal((5, 5)), 1) + np.eye(5)
        rot, u = rotations_and_lifts(g[None], np.eye(4))
        assert np.array_equal(rot[0], np.eye(5))
        e = u[0]
        assert (e @ fock.vacuum(2).amplitudes)[0] == 1.0
        assert (e @ fock.basis_vector(2, [1]).amplitudes)[0] == 0.0
        rng = np.random.default_rng(1)
        psi = fock.FockVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        value = (e @ psi.amplitudes)[0]
        assert value == np.vdot(fock.vacuum(2).amplitudes, psi.amplitudes)

    def test_right_translation_covariance(self):
        rng = np.random.default_rng(5)
        n = 2
        psi = fock.FockVector(n, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        _, u = haar_draws(rng, n, 20)
        for g, h in zip(u[0::2], u[1::2]):
            lhs = ((g @ h) @ psi.amplitudes)[0]
            rhs = (g @ (h @ psi.amplitudes))[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_deck_sign_cancellation(self):
        rng = np.random.default_rng(6)
        n = 2
        psi = fock.FockVector(n, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        phi = fock.FockVector(n, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        _, u = haar_draws(rng, n, 10)
        for g in u:
            flipped = -g
            a = (g @ psi.amplitudes)[0]
            af = (flipped @ psi.amplitudes)[0]
            assert af == -a
            b = (g @ phi.amplitudes)[0]
            bf = (flipped @ phi.amplitudes)[0]
            assert np.conj(af) * bf == pytest.approx(np.conj(a) * b, abs=1e-15)


class TestBlockReducer:
    @pytest.mark.parametrize("n, count, kind", [(1, 2500, "entry"), (2, 3000, "trace"), (1, 700, "trace")])
    def test_matches_two_pass_on_real_values(self, n, count, kind):
        # haar-test's real rows, entry means and squared traces of Haar
        # rotations, in chunks of 1, 7 and 1000 samples and in one: blocks
        # straddle chunks, the last block is partial, and 700 make no whole
        # block; the add that completes the count leaves no value held
        rot, _ = haar_draws(np.random.default_rng(count), n, count)
        if kind == "entry":
            values = rot.reshape(count, -1).mean(axis=1)
        else:
            values = np.trace(rot, axis1=1, axis2=2) ** 2
        ref_mean = values.mean()
        ref_se = np.sqrt(values.var(ddof=1) / count)
        results = []
        for chunk in (1, 7, 1000, count):
            reducer = sg.BlockReducer(count)
            for start in range(0, count, chunk):
                reducer.add(values[start:start + chunk])
            assert len(reducer.head) == 0
            results.append(reducer.estimate())
        assert all(est == results[0] for est in results)
        est = results[0]
        assert isinstance(est.mean, float)
        assert abs(est.mean - ref_mean) <= 1e-12 * np.max(np.abs(values))
        assert abs(est.std_error - ref_se) <= 1e-12 * ref_se


class TestL2InnerMC:
    def test_schur_normalization_vacuum(self):
        est = sg.l2_inner_mc(fock.vacuum(1), fock.vacuum(1), 2000, np.random.default_rng(21))
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_orthogonal_states(self):
        est = sg.l2_inner_mc(
            fock.vacuum(1), fock.basis_vector(1, [1]), 2000, np.random.default_rng(22)
        )
        assert abs(est.mean) <= 3 * est.std_error

    def test_two_mode_top_state(self):
        top = fock.basis_vector(2, [1, 2])
        est = sg.l2_inner_mc(top, top, 1500, np.random.default_rng(23))
        assert abs(est.mean - 0.25) <= 3 * est.std_error

    def test_chunk_invariance(self, monkeypatch):
        top = fock.basis_vector(2, [1, 2])
        whole = sg.l2_inner_mc(top, top, 500, np.random.default_rng(25))
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 0)  # one sample a chunk
        chunked = sg.l2_inner_mc(top, top, 500, np.random.default_rng(25))
        assert chunked == whole

    def test_minimum_samples(self):
        with pytest.raises(SizeError):
            sg.l2_inner_mc(fock.vacuum(1), fock.vacuum(1), 50, np.random.default_rng(0))

    def test_left_invariance_evidence(self):
        # pre-multiplying every sample by a fixed element leaves the
        # statistics unchanged within error
        n = 1
        _, u = haar_draws(np.random.default_rng(24), n, 1501)
        fixed, g = u[0], u[1:]
        psi = fock.vacuum(n)
        a = (g @ psi.amplitudes)[:, 0]
        plain = np.conj(a) * a
        b = ((fixed @ g) @ psi.amplitudes)[:, 0]
        shifted = np.conj(b) * b
        (m1, s1), (m2, s2) = [
            (v.mean(), np.sqrt((v.real.var(ddof=1) + v.imag.var(ddof=1)) / len(v)))
            for v in (plain, shifted)
        ]
        assert abs(m1 - m2) <= 3 * np.hypot(s1, s2)
