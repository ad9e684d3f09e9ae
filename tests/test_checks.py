import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import car_residual
from spinfock import checks, fock, hamiltonian, so_algebra as so, uea
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
    return checks.read_flips(checks.basis_images(n, "spin"))


def reverse_words(rep):
    """An image function that maps each word as rep maps the word with its letters reversed."""
    return lambda elem: rep(so.UEAPolynomial(elem.n, {w[::-1]: c for w, c in elem.terms.items()}))


class TestHomomorphismSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_residual_exactly_zero(self, n, tag):
        result = checks.check_homomorphism(tag, checks.basis_images(n, tag), checks.structure_constants(n))
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

    @staticmethod
    def nudged_run(monkeypatch, entry):
        """run_verify's rows at n = 2 with spin(X_13) nudged by 1e-9 at entry.

        spin(X_13) = gamma_3 gamma_1 / 2 flips bits 0 and 1, so (0, 0) lies off
        its flip and (3, 0) on it; no other row reads this basis image.
        """
        n = 2
        perturbed = so.basis_element(n, 1, 3)
        spin_rep = so.spin_rep

        def nudged(elem):
            image = spin_rep(elem)
            if elem == perturbed:
                image[entry] += 1e-9
            return image

        monkeypatch.setattr(so, "spin_rep", nudged)
        results = {r.name: r for r in checks.run_verify(n, (1.0, 2.0))}
        assert [name for name, r in results.items() if not r.passed] == ["homomorphism-spin"]
        assert results["homomorphism-defining"].residual == 0.0
        return results["homomorphism-spin"].residual

    def test_perturbed_spin_image_fails(self, monkeypatch):
        assert 1e-10 < self.nudged_run(monkeypatch, (0, 0)) < 1e-8

    def test_perturbed_spin_image_on_its_flip_fails(self, monkeypatch):
        assert 1e-10 < self.nudged_run(monkeypatch, (3, 0)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_flip_residual_exactly_zero(self, n):
        structure = checks.structure_constants(n)
        result = checks.check_homomorphism("spin", spin_flips(n), structure)
        assert result.residual == 0.0
        assert checks.check_homomorphism("spin", checks.basis_images(n, "spin"), structure).residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flip_sweep_matches_pairwise_loop_on_corrupted_constants(self, monkeypatch, n):
        # dyadic phases, so the gathers are exact and agree with the dense loop to the bit
        corrupted = flip_some(n, seed=n)
        images = checks.basis_images(n, "spin")
        monkeypatch.setattr(so, "bracket_symbols", corrupted)
        structure = checks.structure_constants(n)
        swept = checks.check_homomorphism("spin", checks.read_flips(images), structure).residual
        assert swept > 0.0
        assert swept == pairwise_residual(n, corrupted, images)
        # one pair per block gives the same bits
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 0)
        assert checks.check_homomorphism("spin", checks.read_flips(images), structure).residual == swept

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
        images = checks.basis_images(n, "spin")
        monkeypatch.setattr(so, "bracket_symbols", misnamed)
        swept = checks.check_homomorphism("spin", checks.read_flips(images), checks.structure_constants(n))
        assert swept.residual == pairwise_residual(n, misnamed, images) == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flip_sweep_matches_pairwise_loop_on_generic_phases(self, n):
        # generic phases on each image's own flip: the two sweeps sum in
        # different orders, so they agree to rounding of entries of size about one
        rng = np.random.default_rng(200 + n)
        images = checks.basis_images(n, "spin")
        support = images != 0
        images = images + 1e-3 * support * (rng.standard_normal(images.shape) + 1j * rng.standard_normal(images.shape))
        flips = checks.read_flips(images)
        assert flips[2] == 0.0
        swept = checks.check_homomorphism("spin", flips, checks.structure_constants(n)).residual
        reference = pairwise_residual(n, so.bracket_symbols, images)
        assert reference > 1e-4
        assert swept == pytest.approx(reference, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tag", ["spin", "defining"])
    def test_matches_pairwise_loop_on_corrupted_constants(self, monkeypatch, n, tag):
        # dyadic images, so both sweeps are exact and agree to the bit
        corrupted = flip_some(n, seed=n)
        images = checks.basis_images(n, tag)
        monkeypatch.setattr(so, "bracket_symbols", corrupted)
        batched = checks._homomorphism_residual(checks.structure_constants(n), images)
        assert batched > 0.0
        assert batched == pairwise_residual(n, corrupted, images)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_loop_on_perturbed_images(self, n):
        # generic images: the two sweeps sum in different orders, so they
        # agree to rounding of entries of size about one
        rng = np.random.default_rng(100 + n)
        images = checks.basis_images(n, "spin")
        noise = rng.standard_normal(images.shape) + 1j * rng.standard_normal(images.shape)
        images = images + 1e-3 * noise
        batched = checks._homomorphism_residual(checks.structure_constants(n), images)
        reference = pairwise_residual(n, so.bracket_symbols, images)
        assert reference > 1e-4
        assert batched == pytest.approx(reference, rel=0, abs=1e-13)


class TestWordImages:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["spin_rep", "defining_rep"])
    def test_reversed_word_images_fail_the_dense_reference(self, monkeypatch, n, name):
        # one-letter words and the squares of L_k read the same reversed, so
        # only H's ladder products change, and only the rows that compare H
        # with P0 + i B0 or with dense products of basis images see it
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
    """A copy of a ladder or Clifford image with its last nonzero entry negated."""
    image = image.copy()
    rows, cols = np.nonzero(image)
    image[rows[-1], cols[-1]] *= -1
    return image


class TestFlipRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_car_matches_dense_reference(self, n):
        plus = [fock.creation(j, n) for j in range(1, n + 1)]
        minus = [fock.annihilation(j, n) for j in range(1, n + 1)]
        assert checks.check_car(plus, minus).residual == car_residual(plus, minus) == 0.0
        plus[-1] = one_sign_flipped(plus[-1])
        if n > 1:  # one mode has no sign to get wrong
            assert checks.check_car(plus, minus).residual == car_residual(plus, minus) > 0.1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_car_on_subspace_matches_dense_reference(self, n):
        spin = hamiltonian.build_parts(hamiltonian.HamiltonianSpec(n, (1.0, 1.5, 2.5)[:n]), so.spin_rep)
        assert checks.check_car_on_subspace(spin).residual == car_residual(spin.d_plus, spin.d_minus) == 0.0
        lowered = dataclasses.replace(spin, d_minus=(spin.d_plus[0], *spin.d_minus[1:]))
        residual = checks.check_car_on_subspace(lowered).residual
        assert residual == car_residual(lowered.d_plus, lowered.d_minus) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_clifford_matches_dense_reference(self, n):
        gammas = [fock.gamma(j, n) for j in range(1, 2 * n + 1)]
        assert checks.check_clifford_anticommutation(gammas).residual == dense_anticommutation_residual(gammas) == 0.0
        gammas[0] = one_sign_flipped(gammas[0])
        residual = checks.check_clifford_anticommutation(gammas).residual
        assert residual == dense_anticommutation_residual(gammas) > 0.1

    def test_image_off_its_flip_fails(self):
        # an entry off the flip of the largest one is no signed bit flip; its
        # size joins the residual, though the flip products cannot see it
        gammas = [fock.gamma(j, 2) for j in range(1, 5)]
        gammas[1] = gammas[1] + 1e-9 * np.eye(4)
        assert 1e-10 < checks.check_clifford_anticommutation(gammas).residual < 1e-8


class TestMutationsThroughRunVerify:
    def test_flipped_creation_sign_fails_car(self, monkeypatch):
        # fock.annihilation is creation's adjoint, so it carries the flip too;
        # ladder-spin-image compares the same matrices with the spin images
        creation = fock.creation
        monkeypatch.setattr(fock, "creation", lambda j, n: one_sign_flipped(creation(j, n)) if j == 1 else creation(j, n))
        assert failing_rows(2) == ["car", "ladder-spin-image"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_wrong_lowering_image_fails_car_on_subspace(self, monkeypatch, n):
        # D_1^- replaced by D_1^+: {D_1^+, D_1^+} = 0, not 1
        build_parts = hamiltonian.build_parts

        def raised(spec, rep, products=None):
            parts = build_parts(spec, rep, products)
            if rep is not so.spin_rep:
                return parts
            return dataclasses.replace(parts, d_minus=(parts.d_plus[0], *parts.d_minus[1:]))

        monkeypatch.setattr(hamiltonian, "build_parts", raised)
        assert failing_rows(n) == ["ladder-spin-image", "car-on-subspace"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_swapped_ladder_images_keep_the_car(self, monkeypatch, n):
        # c_k <-> c_k^dagger maps the CAR onto themselves, so swapping D_1^+ and
        # D_1^- fails only the comparison with fock's ladder matrices
        build_parts = hamiltonian.build_parts

        def swapped(spec, rep, products=None):
            parts = build_parts(spec, rep, products)
            if rep is not so.spin_rep:
                return parts
            up, down = parts.d_plus, parts.d_minus
            return dataclasses.replace(parts, d_plus=(down[0], *up[1:]), d_minus=(up[0], *down[1:]))

        monkeypatch.setattr(hamiltonian, "build_parts", swapped)
        assert failing_rows(n) == ["ladder-spin-image"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_reversed_jordan_wigner_order(self, monkeypatch, n):
        # still a Clifford algebra, and its ladder matrices still satisfy the
        # CAR; they differ from the spin images, whose order is fock's
        gammas = reversed_order_gammas(n)
        monkeypatch.setattr(fock, "gamma", lambda j, n: gammas[j - 1])
        assert failing_rows(n) == ["clifford-reconstruction", "ladder-spin-image"]


class TestWorkBudget:
    def test_passes_at_five_modes(self):
        results = checks.run_verify(5, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert len(results) == 15
        assert [r.name for r in results if not r.passed] == []

    def test_passes_at_eight_modes(self):
        # (2 + 2n + 4n^2) 8^n + 2 (S^2 + 12n^2) 2^n = 4.6e9 at n = 8, the largest
        # count within the budget (n = 9: 4.6e10); the flip rows are 0.2 % of it
        start = time.perf_counter()
        results = checks.run_verify(8, range(1, 9))
        assert time.perf_counter() - start < 10.0
        assert [r.name for r in results if not r.passed] == []
        assert max(r.residual for r in results if r.name != "spectrum-subset-sums") == 0.0


def reversed_order_gammas(n):
    """Gammas whose Jordan-Wigner sign counts the modes above k instead of below:
    fock's gammas with the modes relabeled k -> n + 1 - k."""
    reverse = np.eye(1 << n)[[int(f"{b:0{n}b}"[::-1], 2) for b in range(1 << n)]]
    out = []
    for k in range(n, 0, -1):
        out += [reverse @ fock.gamma(j, n) @ reverse for j in (2 * k - 1, 2 * k)]
    return out


class TestCliffordReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reads_zero(self, n):
        result = checks.check_clifford_reconstruction([fock.gamma(j, n) for j in range(1, 2 * n + 1)])
        assert result.residual == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reversed_jordan_wigner_order_fails(self, n):
        # still a Clifford algebra, so only this row tells the orders apart
        gammas = reversed_order_gammas(n)
        assert checks.check_clifford_anticommutation(gammas).residual == 0.0
        assert not checks.check_clifford_reconstruction(gammas).passed
