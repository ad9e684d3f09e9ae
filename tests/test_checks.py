from fractions import Fraction

import numpy as np
import pytest

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

    def test_perturbed_spin_image_fails(self, monkeypatch):
        n = 2
        perturbed = so.basis_element(n, *so.symbols(n)[-1])
        spin_rep = so.spin_rep

        def nudged(elem):
            image = spin_rep(elem)
            if elem == perturbed:
                image[0, 0] += 1e-9
            return image

        monkeypatch.setattr(so, "spin_rep", nudged)
        structure = checks.structure_constants(n)
        spin = checks.check_homomorphism("spin", checks.basis_images(n, "spin"), structure)
        assert not spin.passed
        assert 1e-10 < spin.residual < 1e-8
        defining = checks.check_homomorphism("defining", checks.basis_images(n, "defining"), structure)
        assert defining.residual == 0.0

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


class TestWorkBudget:
    def test_passes_at_five_modes(self):
        # 2 S^2 8^n = 2.0e8 at n = 5, within the budget that refuses n = 7 (4.6e10)
        results = checks.run_verify(5, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert len(results) == 15
        assert [r.name for r in results if not r.passed] == []


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
