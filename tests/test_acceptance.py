"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; statistical criteria use fixed seeds so the
suite is deterministic end to end.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import dense
from spinfock import (
    cli,
    fock,
    feynman_kac as fk,
    hamiltonian as ham,
    sde,
    so_algebra as so,
    spin_group as sg,
    uea,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    # visible with `pytest -s`; failures always surface the line via assert
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_car_suite():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        eye = np.eye(1 << n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                cj, ck = dense(fock.ladder(-j, n)), dense(fock.ladder(-k, n))
                cjd, ckd = dense(fock.ladder(j, n)), dense(fock.ladder(k, n))
                delta = eye if j == k else 0.0
                worst = max(worst, np.max(np.abs(cj @ ckd + ckd @ cj - delta)))
                worst = max(worst, np.max(np.abs(cj @ ck + ck @ cj)))
                worst = max(worst, np.max(np.abs(cjd @ ckd + ckd @ cjd)))
    elapsed = time.perf_counter() - start
    report(
        "1 CAR suite",
        worst < 1e-12 and elapsed < 1.0,
        f"max residual {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_clifford_suite():
    start = time.perf_counter()
    worst = 0.0
    reconstruction_exact = True
    for n in (1, 2, 3, 4):
        eye = np.eye(1 << n)
        gammas = [dense(fock.monomial((j,), n)) for j in range(1, 2 * n + 1)]
        for j, gj in enumerate(gammas):
            for k, gk in enumerate(gammas):
                delta = 2.0 * eye if j == k else 0.0
                worst = max(worst, np.max(np.abs(gj @ gk + gk @ gj + delta)))
        for j in range(1, n + 1):
            up = 0.5 * (gammas[2 * j - 2] + 1j * gammas[2 * j - 1])
            down = 0.5 * (-gammas[2 * j - 2] + 1j * gammas[2 * j - 1])
            reconstruction_exact &= np.array_equal(up, dense(fock.ladder(j, n)))
            reconstruction_exact &= np.array_equal(down, dense(fock.ladder(-j, n)))
    elapsed = time.perf_counter() - start
    report(
        "2 Clifford suite",
        worst < 1e-12 and reconstruction_exact and elapsed < 1.0,
        f"max residual {worst:.3g}, reconstruction exact {reconstruction_exact}, {elapsed:.2f}s",
    )


def test_criterion_03_homomorphism_suite():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for rep in (so.spin_rep, so.defining_rep):
            mats = {s: rep(so.basis_element(n, *s)) for s in so.symbols(n)}
            for sa, ma in mats.items():
                for sb, mb in mats.items():
                    lhs = sum(
                        (sign * mats[sym] for sym, sign in so.bracket_symbols(sa, sb)),
                        np.zeros_like(ma),
                    )
                    worst = max(worst, np.max(np.abs(lhs - (ma @ mb - mb @ ma))))
    elapsed = time.perf_counter() - start
    report(
        "3 homomorphism suite",
        worst < 1e-12 and elapsed < 10.0,
        f"max residual {worst:.3g} over n<=3 both reps, {elapsed:.2f}s",
    )


def test_criterion_04_weight_checks():
    worst = 0.0
    for n in (1, 2, 3, 4):
        vac = fock.vacuum(n).amplitudes
        top = fock.basis_vector(n, range(1, n + 1)).amplitudes
        for j in range(1, n + 1):
            h = so.spin_rep(so.cartan_element(j, n))
            worst = max(worst, np.max(np.abs(h @ vac + 0.5 * vac)))
            worst = max(worst, np.max(np.abs(h @ top - 0.5 * top)))
    report("4 weight checks", worst < 1e-12, f"max residual {worst:.3g}, n<=4")


def test_criterion_05_symbolic_normal_order():
    start = time.perf_counter()
    all_zero = True
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            for k in range(1, n + 1):
                all_zero &= uea.commutator_LU(ell, k, n).is_zero()
    # confluence: randomized rewrite orders must agree, on the commutators
    # themselves and on random polynomials of degree <= 3
    rng = random.Random(12345)
    confluent = True
    for trial in range(50):
        raw = uea.commutator(uea.mode_laplacian(1 + trial % 3, 3), uea.symbol_poly(3, uea.cartan_symbol(1 + trial % 2, 3)))
        confluent &= uea.pbw_normalize(raw, descent_rng=random.Random(trial)).is_zero()
    syms = so.symbols(3)
    for trial in range(50):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
            terms[word] = uea.GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        poly = uea.UEAPolynomial(3, terms)
        confluent &= uea.pbw_normalize(poly, descent_rng=random.Random(trial)) == uea.pbw_normalize(poly)
    elapsed = time.perf_counter() - start
    report(
        "5 symbolic normal order",
        all_zero and confluent and elapsed < 30.0,
        f"all commutators exactly zero {all_zero}, confluent {confluent}, {elapsed:.2f}s",
    )


def test_criterion_06_decomposition_and_spectrum():
    worst = 0.0
    for n, energies in ((2, (1.0, 2.0)), (3, (1.0, 1.5, 2.5))):
        spec = ham.HamiltonianSpec(n, energies)
        for rep in (so.spin_rep, so.defining_rep):
            parts = ham.build_parts(spec, rep)
            worst = max(worst, np.max(np.abs(parts.h_tilde - (parts.p0 + 1j * parts.b0))))
    spec2 = ham.HamiltonianSpec(2, (1.0, 2.0))
    eigs2 = np.sort(np.linalg.eigvalsh(ham.build_parts(spec2, so.spin_rep).h_tilde))
    dev2 = np.max(np.abs(eigs2 - np.array([0.0, 1.0, 2.0, 3.0])))
    spec3 = ham.HamiltonianSpec(3, (1.0, 1.5, 2.5))
    eigs3 = np.sort(np.linalg.eigvalsh(ham.build_parts(spec3, so.spin_rep).h_tilde))
    dev3 = np.max(np.abs(eigs3 - ham.subset_sums(spec3)))
    report(
        "6 decomposition and spectrum",
        worst < 1e-12 and dev2 < 1e-10 and dev3 < 1e-10 and eigs3.size == 8,
        f"decomposition residual {worst:.3g}, spectrum deviations {dev2:.3g}/{dev3:.3g}",
    )


def test_criterion_07_commutation_shadow():
    worst = 0.0
    for n in (1, 2, 3):
        spec = ham.HamiltonianSpec(n, tuple(float(k) for k in range(1, n + 1)))
        for rep in (so.spin_rep, so.defining_rep):
            parts = ham.build_parts(spec, rep)
            worst = max(worst, np.max(np.abs(parts.p0 @ parts.b0 - parts.b0 @ parts.p0)))
            for tk in parts.t:
                for lk in parts.l:
                    worst = max(worst, np.max(np.abs(tk @ lk - lk @ tk)))
                for tl in parts.t:
                    worst = max(worst, np.max(np.abs(tk @ tl - tl @ tk)))
    report("7 commutation shadow", worst < 1e-12, f"max residual {worst:.3g}, n<=3 both reps")


def test_criterion_08_schur_haar():
    start = time.perf_counter()
    est = sg.l2_inner_mc(fock.vacuum(1), fock.vacuum(1), 10_000, np.random.default_rng(2718))
    z_schur = abs(est.mean - 0.5) / est.std_error
    rng = np.random.default_rng(3141)
    traces = np.empty(10_000)
    for i in range(traces.size):
        traces[i] = np.trace(sg.haar_orthogonal(rng, 3)) ** 2
    z_trace = abs(traces.mean() - 1.0) / (traces.std(ddof=1) / np.sqrt(traces.size))
    elapsed = time.perf_counter() - start
    report(
        "8 Schur/Haar",
        z_schur <= 3.0 and z_trace <= 3.0 and elapsed < 10.0,
        f"Schur z {z_schur:.2f}, trace-moment z {z_trace:.2f}, {elapsed:.2f}s",
    )


def test_criterion_09_calibration():
    start = time.perf_counter()
    spec = ham.HamiltonianSpec(1, (1.0,))
    grid = [round(0.1 * i, 10) for i in range(11)]
    corrected, _ = sde.fit_decay_rate(sde.decay_curve(spec, grid, 10_000, 1e-3, 424242, "corrected"))
    literal, _ = sde.fit_decay_rate(sde.decay_curve(spec, grid, 10_000, 1e-3, 424243, "paper_literal"))
    elapsed = time.perf_counter() - start
    report(
        "9 calibration",
        abs(corrected - 0.5) <= 0.05 and abs(literal - 0.25) <= 0.05 and elapsed < 60.0,
        f"corrected {corrected:.3f} (0.50+-0.05), literal {literal:.3f} (0.25+-0.05), {elapsed:.1f}s",
    )


def test_criterion_10_feynman_kac():
    spec1 = ham.HamiltonianSpec(1, (1.0,))
    e1 = fock.basis_vector(1, [1])
    start = time.perf_counter()
    rows = fk.fk_report(e1, e1, spec1, [0.25, 0.5, 1.0], 10_000, 1e-3, 60221)
    elapsed1 = time.perf_counter() - start
    z1 = max(row.z_score for row in rows)

    spec2 = ham.HamiltonianSpec(2, (1.0, 2.0))
    e12 = fock.basis_vector(2, [1, 2])
    start = time.perf_counter()
    est2 = fk.fk_report(e12, e12, spec2, [0.3], 10_000, 1e-3, 60222)[0]
    elapsed2 = time.perf_counter() - start
    target2 = 0.25 * np.exp(-0.9)
    assert est2.lhs == pytest.approx(target2, abs=1e-12)

    # single-t smoke across 100 seeds: at most one |z| > 3
    failures = 0
    for seed in range(100):
        est = fk.fk_report(e1, e1, spec1, [0.25], 10_000, 1e-3, seed)[0]
        if est.z_score > 3.0:
            failures += 1
    report(
        "10 Feynman-Kac",
        z1 <= 3.0
        and est2.z_score <= 3.0
        and failures <= 1
        and elapsed1 < 120.0
        and elapsed2 < 120.0,
        f"n=1 max z {z1:.2f} in {elapsed1:.1f}s, n=2 z {est2.z_score:.2f} in "
        f"{elapsed2:.1f}s, smoke failures {failures}/100",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    out_path = tmp_path / "fk.json"
    argv = [
        "fk", "--n", "1", "--energies", "1", "--t-grid", "0.25", "--paths", "1000",
        "--seed", "77", "--out", str(out_path),
    ]
    assert cli.main(argv) == 0
    first = out_path.read_bytes()
    assert cli.main(argv) == 0
    identical = out_path.read_bytes() == first
    json.loads(first.decode())  # well-formed
    report("11 determinism", identical, "byte-identical fk reports for identical config")
