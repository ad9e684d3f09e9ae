import time
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import basis_images, car_residual, dense
from spinfock import checks, fock, so_algebra as so, uea
from spinfock.errors import DomainError


def pairwise_residual(n, bracket_fn, images):
    """The sweep one ordered pair at a time: the reference for the batched one."""
    syms = so.symbols(n)
    mats = dict(zip(syms, images))
    worst = 0.0
    for sa in syms:
        for sb in syms:
            lhs = np.zeros_like(mats[sa])
            for sym, sign in bracket_fn(sa, sb):
                lhs += sign * mats[sym]
            comm = mats[sa] @ mats[sb] - mats[sb] @ mats[sa]
            worst = max(worst, float(np.max(np.abs(lhs - comm))))
    return worst


def flip_some(n, seed):
    """Structure constants with a random tenth of the nonzero brackets negated."""
    bracket_symbols = so.bracket_symbols  # the real one: corrupted replaces it
    pairs = [(a, b) for a in so.symbols(n) for b in so.symbols(n) if bracket_symbols(a, b)]
    picks = np.random.default_rng(seed).choice(len(pairs), max(1, len(pairs) // 10), replace=False)
    flipped = {pairs[i] for i in picks}

    def corrupted(a, b):
        terms = bracket_symbols(a, b)
        if (a, b) in flipped:
            return tuple((sym, -sign) for sym, sign in terms)
        return terms

    return corrupted


def failing_rows(n):
    return [r.name for r in checks.run_verify(n, (1.0, 1.5, 2.5)[:n]) if not r.passed]


def spin_flips(n):
    return checks._stack(so.spin_flip(so.basis_element(n, *s)) for s in so.symbols(n))


def signed_modes(n):
    return [*range(1, n + 1), *range(-1, -n - 1, -1)]


def reverse_words(rep):
    """An image function that maps each word as rep maps the word with its letters reversed."""
    return lambda elem: rep(so.UEAPolynomial(elem.n, {w[::-1]: c for w, c in elem.terms.items()}))


class TestHomomorphismSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_residual_exactly_zero(self, n, tag):
        result = checks.check_homomorphism(tag, basis_images(n, tag), checks.structure_constants(n))
        assert result.residual == 0.0
        assert result.passed

    def test_last_pair_corrupted_one_sided(self, monkeypatch):
        # (a, b) alone, so the sweep must reach the last row and column
        n = 3
        last = tuple(so.symbols(n)[-2:][::-1])
        bracket_symbols = so.bracket_symbols

        def corrupted(a, b):
            terms = bracket_symbols(a, b)
            if (a, b) == last:
                return tuple((sym, -sign) for sym, sign in terms)
            return terms

        assert so.bracket_symbols(*last)
        # only the sweep's constants change, not the normal ordering that uses brackets too
        with monkeypatch.context() as patch:
            patch.setattr(so, "bracket_symbols", corrupted)
            structure = checks.structure_constants(n)
        monkeypatch.setattr(checks, "structure_constants", lambda _: structure)
        results = checks.run_verify(n, (1.0, 2.0, 3.0))
        failing = [r.name for r in results if not r.passed]
        assert failing == ["homomorphism-defining", "homomorphism-spin"]

    def test_two_term_bracket_refused(self, monkeypatch):
        # the sweep gathers one term per pair, so a second must not be dropped
        n = 2
        pair = tuple(so.symbols(n)[:2])
        bracket_symbols = so.bracket_symbols

        def doubled(a, b):
            terms = bracket_symbols(a, b)
            if (a, b) == pair:
                return terms + ((so.symbols(n)[-1], 1),)
            return terms

        assert so.bracket_symbols(*pair)
        monkeypatch.setattr(so, "bracket_symbols", doubled)
        with pytest.raises(DomainError, match="2 terms"):
            checks.structure_constants(n)

    def test_perturbed_spin_image_on_its_flip_fails(self, monkeypatch):
        # spin(X_13) = gamma_3 gamma_1 / 2 flips bits 0 and 1; no other row reads this basis image
        n = 2
        perturbed = so.basis_element(n, 1, 3)
        spin_flip = so.spin_flip

        def nudged(elem):
            flip, phase = spin_flip(elem)
            if elem == perturbed:
                phase[0] += 1e-9
            return flip, phase

        monkeypatch.setattr(so, "spin_flip", nudged)
        results = {r.name: r for r in checks.run_verify(n, (1.0, 2.0))}
        assert [name for name, r in results.items() if not r.passed] == ["homomorphism-spin"]
        assert results["homomorphism-defining"].residual == 0.0
        assert 1e-10 < results["homomorphism-spin"].residual < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_flip_residual_exactly_zero(self, n):
        structure = checks.structure_constants(n)
        result = checks.check_homomorphism("spin", spin_flips(n), structure)
        assert result.residual == 0.0
        assert checks.check_homomorphism("spin", basis_images(n, "spin"), structure).residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flip_sweep_matches_pairwise_loop_on_corrupted_constants(self, monkeypatch, n):
        # dyadic phases, so the gathers are exact and agree with the dense loop to the bit
        corrupted = flip_some(n, seed=n)
        flips, images = spin_flips(n), basis_images(n, "spin")
        monkeypatch.setattr(so, "bracket_symbols", corrupted)
        structure = checks.structure_constants(n)
        swept = checks.check_homomorphism("spin", flips, structure).residual
        assert swept > 0.0
        assert swept == pairwise_residual(n, corrupted, images)
        # one pair per block gives the same bits
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 0)
        assert checks.check_homomorphism("spin", flips, structure).residual == swept

    def test_flip_sweep_reads_a_wrong_bracket_symbol(self, monkeypatch):
        # a bracket that names another symbol flips other bits: the residual is
        # the larger modulus of two disjoint supports, as in the dense loop
        n = 2
        syms = so.symbols(n)
        pair, wrong = (syms[0], syms[4]), syms[-1]
        bracket_symbols = so.bracket_symbols

        def misnamed(a, b):
            terms = bracket_symbols(a, b)
            return ((wrong, terms[0][1]),) if (a, b) == pair else terms

        assert bracket_symbols(*pair) and bracket_symbols(*pair)[0][0] != wrong
        flips, images = spin_flips(n), basis_images(n, "spin")
        monkeypatch.setattr(so, "bracket_symbols", misnamed)
        swept = checks.check_homomorphism("spin", flips, checks.structure_constants(n))
        assert swept.residual == pairwise_residual(n, misnamed, images) == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flip_sweep_matches_pairwise_loop_on_generic_phases(self, n):
        # generic phases on each image's own flip: the two sweeps sum in
        # different orders, so they agree to rounding of entries of size about one
        rng = np.random.default_rng(200 + n)
        flip, phase = spin_flips(n)
        phase = phase + 1e-3 * (rng.standard_normal(phase.shape) + 1j * rng.standard_normal(phase.shape))
        flips, images = (flip, phase), np.stack([dense(image) for image in zip(flip[:-1], phase)])
        swept = checks.check_homomorphism("spin", flips, checks.structure_constants(n)).residual
        reference = pairwise_residual(n, so.bracket_symbols, images)
        assert reference > 1e-4
        assert swept == pytest.approx(reference, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_matches_pairwise_loop_on_corrupted_constants(self, monkeypatch, n, tag):
        # dyadic images, so both sweeps are exact and agree to the bit
        corrupted = flip_some(n, seed=n)
        images = basis_images(n, tag)
        monkeypatch.setattr(so, "bracket_symbols", corrupted)
        batched = checks._homomorphism_residual(checks.structure_constants(n), images)
        assert batched > 0.0
        assert batched == pairwise_residual(n, corrupted, images)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_loop_on_perturbed_images(self, n):
        # generic images: the two sweeps sum in different orders, so they
        # agree to rounding of entries of size about one
        rng = np.random.default_rng(100 + n)
        images = basis_images(n, "spin")
        noise = rng.standard_normal(images.shape) + 1j * rng.standard_normal(images.shape)
        images = images + 1e-3 * noise
        batched = checks._homomorphism_residual(checks.structure_constants(n), images)
        reference = pairwise_residual(n, so.bracket_symbols, images)
        assert reference > 1e-4
        assert batched == pytest.approx(reference, rel=0, abs=1e-13)


class TestWordImages:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["spin_flip", "defining_rep"])
    def test_reversed_word_images_fail_the_dense_reference(self, monkeypatch, n, name):
        # one-letter words and the squares of L_k read the same reversed, so
        # only H's ladder products change, and only the rows that compare H
        # with P0 + i B0 or with products of basis images see it; spin_diagonal
        # reads spin_flip, and the reversed H keeps its spectrum
        monkeypatch.setattr(so, name, reverse_words(getattr(so, name)))
        results = checks.run_verify(n, (1.0, 1.5, 2.5)[:n])
        failing = [r.name for r in results if not r.passed]
        assert failing == ["hamiltonian-decomposition", "factorized-identity"]


class TestCartanWeights:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unnormalized_commutator_fails(self, monkeypatch, n):
        # without normal ordering [E_j, E_-j] keeps its two-letter words, so
        # half of it is not H_j; the exact commutator rows fail with it
        monkeypatch.setattr(uea, "pbw_normalize", lambda p, descent_rng=None: p)
        results = checks.run_verify(n, (1.0, 2.0)[:n])
        failing = [r.name for r in results if not r.passed]
        assert failing == ["cartan-weights", "uea-normal-order-zero"]


class TestUeaNormalOrder:
    def test_runs_at_the_verified_modes_and_energies(self, monkeypatch):
        # the exact row is about the run's own n and energies, not a fixed stand-in
        calls = {"commutator_LU": [], "quasi_hamiltonian_symbols": []}
        for name, log in calls.items():
            def spy(*args, _real=getattr(uea, name), _log=log):
                _log.append(args)
                return _real(*args)

            monkeypatch.setattr(uea, name, spy)
        results = checks.run_verify(4, (1, 1.5, 2.5, 4))
        assert all(r.passed for r in results)
        assert sorted(calls["commutator_LU"]) == [(ell, k, 4) for ell in range(1, 5) for k in range(1, 5)]
        [(n, energies)] = calls["quasi_hamiltonian_symbols"]
        assert n == 4
        assert energies == [Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(4)]
        assert all(type(e) is Fraction for e in energies)


class TestStructureConstants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_brackets_only_pairs_sharing_an_index(self, monkeypatch, n):
        # every term of [X_a, X_b] needs an index the pair shares, so the
        # pairs that share none are zero without a bracket_symbols call
        syms, bracket_symbols, calls = so.symbols(n), so.bracket_symbols, []

        def counted(a, b):
            calls.append((a, b))
            return bracket_symbols(a, b)

        monkeypatch.setattr(so, "bracket_symbols", counted)
        index, sign = checks.structure_constants(n)
        sharing = [(a, b) for a in syms for b in syms if set(a) & set(b)]
        assert calls == sharing
        assert len(calls) == len(syms) ** 2 - len(syms) * (2 * n - 1) * (2 * n - 2) // 2
        for (a, sa), (b, sb) in [((a, sa), (b, sb)) for a, sa in enumerate(syms) for b, sb in enumerate(syms)]:
            terms = bracket_symbols(sa, sb)
            assert sign[a, b] == (terms[0][1] if terms else 0)
            if terms:
                assert syms[index[a, b]] == terms[0][0]


def dense_anticommutation_residual(gammas):
    """clifford-anticommutation by dense products: the reference for the flip row."""
    eye, worst = np.eye(len(gammas[0])), 0.0
    for j, gj in enumerate(gammas):
        worst = max(worst, float(np.max(np.abs(gj + gj.conj().T))))
        for k, gk in enumerate(gammas):
            delta = 2.0 * eye if j == k else 0.0
            worst = max(worst, float(np.max(np.abs(gj @ gk + gk @ gj + delta))))
    return worst


def one_sign_flipped(image):
    """A (flip, phase) ladder or Clifford image with its last nonzero phase negated."""
    flip, phase = image
    phase = phase.copy()
    phase[np.flatnonzero(phase)[-1]] *= -1
    return flip, phase


class TestFlipRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_car_matches_dense_reference(self, n):
        ladders = [fock.ladder(k, n) for k in signed_modes(n)]

        def reference():
            return car_residual([dense(c) for c in ladders[:n]], [dense(c) for c in ladders[n:]])

        assert checks.check_car(ladders).residual == reference() == 0.0
        ladders[n - 1] = one_sign_flipped(ladders[n - 1])
        if n > 1:  # one mode has no sign to get wrong
            assert checks.check_car(ladders).residual == reference() > 0.1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_car_on_subspace_matches_dense_reference(self, n):
        elements = [so.ladder_element(k, n) for k in signed_modes(n)]
        spin = [so.spin_flip(e) for e in elements]
        dense_spin = [so.spin_rep(e) for e in elements]
        assert checks.check_car_on_subspace(spin).residual == car_residual(dense_spin[:n], dense_spin[n:]) == 0.0
        spin[n] = spin[0]  # D_1^- := D_1^+
        residual = checks.check_car_on_subspace(spin).residual
        assert residual == car_residual([dense(d) for d in spin[:n]], [dense(d) for d in spin[n:]]) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_clifford_matches_dense_reference(self, n):
        gammas = [fock.monomial((j,), n) for j in range(1, 2 * n + 1)]
        reference = dense_anticommutation_residual([dense(g) for g in gammas])
        assert checks.check_clifford_anticommutation(gammas).residual == reference == 0.0
        gammas[0] = one_sign_flipped(gammas[0])
        residual = checks.check_clifford_anticommutation(gammas).residual
        assert residual == dense_anticommutation_residual([dense(g) for g in gammas]) > 0.1


class TestMutationsThroughRunVerify:
    def test_flipped_creation_sign_fails_car(self, monkeypatch):
        # c_1 keeps its signs, so {c_1, c_1^dagger} fails too; clifford-reconstruction
        # and ladder-spin-image compare the same pair with the wedge and the spin images
        ladder = fock.ladder
        monkeypatch.setattr(fock, "ladder", lambda k, n: one_sign_flipped(ladder(k, n)) if k == 1 else ladder(k, n))
        assert failing_rows(2) == ["car", "clifford-reconstruction", "ladder-spin-image"]

    @staticmethod
    def patch_ladder_images(monkeypatch, n, replace):
        """spin_flip with the ladder element D_k^+- (k in replace) mapped to the image of D_replace[k]."""
        spin_flip = so.spin_flip
        swaps = [(so.ladder_element(k, n), so.ladder_element(other, n)) for k, other in replace.items()]

        def patched(elem):
            return spin_flip(next((other for e, other in swaps if e == elem), elem))

        monkeypatch.setattr(so, "spin_flip", patched)

    @pytest.mark.parametrize("n", [2, 3])
    def test_wrong_lowering_image_fails_car_on_subspace(self, monkeypatch, n):
        # D_1^- replaced by D_1^+: {D_1^+, D_1^+} = 0, not 1
        self.patch_ladder_images(monkeypatch, n, {-1: 1})
        assert failing_rows(n) == ["ladder-spin-image", "car-on-subspace"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_swapped_ladder_images_keep_the_car(self, monkeypatch, n):
        # c_k <-> c_k^dagger maps the CAR onto themselves, so swapping D_1^+ and
        # D_1^- fails only the comparison with fock's ladders
        self.patch_ladder_images(monkeypatch, n, {1: -1, -1: 1})
        assert failing_rows(n) == ["ladder-spin-image"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_reversed_jordan_wigner_order(self, monkeypatch, n):
        # still ladders that satisfy the CAR; they differ from the wedge and
        # from the spin images, whose order is fock.monomial's
        monkeypatch.setattr(fock, "ladder", reversed_order_ladder(n))
        assert failing_rows(n) == ["clifford-reconstruction", "ladder-spin-image"]


class TestDenseFree:
    def test_no_dense_spin_matrix(self, monkeypatch):
        # every spin-side row reads (flip, phase) pairs
        monkeypatch.setattr(so, "spin_rep", lambda *args: pytest.fail("a dense spin matrix was built"))
        assert all(r.passed for r in checks.run_verify(4, (1.0, 1.5, 2.5, 4.0)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_algebra_element_once(self, monkeypatch, n):
        # the 2n ladder elements once for the rows and once in ladder_products
        calls = {"ladder_element": 0, "structure_constants": 0}
        for module, name in [(so, "ladder_element"), (checks, "structure_constants")]:
            def spy(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
        assert failing_rows(n) == []
        assert calls == {"ladder_element": 4 * n, "structure_constants": 1}


class TestWorkBudget:
    def test_passes_at_five_modes(self):
        results = checks.run_verify(5, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert len(results) == 15
        assert [r.name for r in results if not r.passed] == []

    def test_passes_at_eight_modes(self):
        # verify is bounded by the mode count alone; n = 12 takes 12-14 s
        start = time.perf_counter()
        results = checks.run_verify(8, range(1, 9))
        assert time.perf_counter() - start < 10.0
        assert [r.name for r in results if not r.passed] == []
        assert max(r.residual for r in results if r.name != "spectrum-subset-sums") == 0.0


def reversed_order_ladder(n):
    """fock.ladder with the modes relabeled k -> n + 1 - k, so its Jordan-Wigner sign counts the
    modes above k instead of below: R c_(n+1-k) R, R the bit-reversal permutation of the states."""
    ladder, reverse = fock.ladder, np.array([int(f"{b:0{n}b}"[::-1], 2) for b in range(1 << n)])

    def reversed_ladder(k, n):
        flip, phase = ladder(int(np.sign(k)) * (n + 1 - abs(k)), n)
        return reverse[flip], phase[reverse]

    return reversed_ladder


class TestCliffordReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reads_zero(self, n):
        result = checks.check_clifford_reconstruction([fock.ladder(k, n) for k in signed_modes(n)])
        assert result.residual == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reversed_jordan_wigner_order_fails(self, n):
        # still the CAR, so only this row tells the orders apart
        ladders = [reversed_order_ladder(n)(k, n) for k in signed_modes(n)]
        assert checks.check_car(ladders).residual == 0.0
        assert not checks.check_clifford_reconstruction(ladders).passed
