"""Named algebraic verification checks with residuals, for the verify command.

Every check reports its worst residual against a fixed tolerance; the suite
passes iff every check passes. Symbolic checks are exact (residual counts
nonzero normal forms), numeric checks compare arrays entrywise.

Every spin image a row reads is a signed bit flip, e_x -> phase[x]
e_(x XOR flip), built from words as a (flip, phase) pair: ``so_algebra``'s
``spin_flip`` for basis and ladder elements and ``spin_diagonal`` for the
parts of H (flip 0), ``fock.monomial`` for gamma_j, ``fock.ladder`` for
c_k^+-. A product of two is one gather, M_a M_b = (f_a XOR f_b,
p_a[x XOR f_b] p_b[x]), so ``car``, ``clifford-anticommutation``,
``car-on-subspace`` and ``homomorphism-spin`` take O(2^n) per pair, in
blocks whose temporaries (fewer than 16 arrays of 2^n complex entries per
pair) fit ``fock.MAX_ARRAY_BYTES``. Every entry, product and partial sum is
dyadic (0, +-1, +-i, +-1/2, +-i/2), so each row is exact and reads the bits
dense products did; no spin row builds a 2^n x 2^n matrix. The
(2n+1)-dimensional defining rows stay dense. A bracket sweep over S images
(the n(2n+1) basis symbols, or the ladders or gammas) reads the pairs a <= b
when its table is (anti)symmetric, as (b, a) then repeats (a, b)'s residual
bit for bit, and all S^2 ordered pairs otherwise, as when one side of a
bracket is wrong. ``clifford-reconstruction`` compares fock's ladders with
exterior multiplication by e_k, whose sign it forms by negating, after each
mode, the states that occupy it, not through ``fock.monomial``, so a wrong
Jordan-Wigner order fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fock, hamiltonian, so_algebra, uea
from .errors import DomainError
from .hamiltonian import HamiltonianParts, HamiltonianSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, residual <= tolerance)


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def _stack(images) -> tuple:
    """The (flips, phases) arrays of (flip, phase) pairs, then the identity's, which index -1 reads."""
    flips, phases = zip(*images)
    return np.array([*flips, 0]), np.array([*phases, np.ones(len(phases[0]), complex)])


def _product(a: tuple, b: tuple) -> tuple:
    """M_a M_b of two (flip, phase) images."""
    return a[0] ^ b[0], a[1][np.arange(len(b[1])) ^ b[0]] * b[1]


def _gap(a: tuple, b: tuple) -> float:
    """max |M_a - M_b| of two (flip, phase) images, on disjoint supports where the flips differ."""
    return _max_abs(a[1] - b[1]) if a[0] == b[0] else max(_max_abs(a[1]), _max_abs(b[1]))


def _sweep_start(target: np.ndarray, coeff: np.ndarray, sign: int) -> np.ndarray:
    """The first b row a of a bracket sweep reads: a if target is symmetric and coeff.T = sign coeff,
    as M_b M_a + sign M_a M_b = sign (M_a M_b + sign M_b M_a) makes (b, a) repeat (a, b), else 0."""
    mirrored = np.array_equal(target, target.T) and np.array_equal(coeff.T, sign * coeff)
    return np.arange(len(coeff)) if mirrored else np.zeros(len(coeff), dtype=int)


def _flip_residual(images: tuple, sign: int, target: np.ndarray, coeff: np.ndarray) -> float:
    """max over _sweep_start's (a, b) of |coeff[a, b] M_target[a, b] - (M_a M_b + sign M_b M_a)| on a _stack."""
    flip, phase = images
    a, b = np.nonzero(np.arange(len(coeff)) >= _sweep_start(target, coeff, sign)[:, None])
    states, step = np.arange(phase.shape[1]), max(1, fock.MAX_ARRAY_BYTES // (16 * phase[0].nbytes))
    worst = 0.0
    for lo in range(0, len(a), step):
        i, j = a[lo : lo + step], b[lo : lo + step]
        product = phase[i[:, None], states ^ flip[j, None]] * phase[j]
        product += sign * (phase[j[:, None], states ^ flip[i, None]] * phase[i])
        wanted = coeff[i, j, None] * phase[target[i, j]]
        apart = (flip[target[i, j]] != flip[i] ^ flip[j])[:, None]  # on disjoint supports
        gap = np.where(apart, np.maximum(np.abs(wanted), np.abs(product)), np.abs(wanted - product))
        worst = max(worst, float(gap.max()))
    return worst


def _car_residual(ladders: list) -> float:
    """{c_j, c_k^dagger} = delta_jk, and any two other ladder images anticommute, on flips."""
    delta = np.eye(len(ladders), k=len(ladders) // 2) + np.eye(len(ladders), k=-(len(ladders) // 2))
    return _flip_residual(_stack(ladders), 1, np.full(delta.shape, -1), delta)


# The ladder rows take run_verify's (flip, phase) lists c_1^dagger, ..., c_n^dagger,
# c_1, ..., c_n (fock's) or D_1^+, ..., D_n^+, D_1^-, ..., D_n^- (spin images).


def check_car(ladders: list) -> CheckResult:
    return _result("car", _car_residual(ladders), 1e-12)


def check_ladder_structure(plus: list) -> CheckResult:
    # c_j is c_j^dagger's adjoint by definition, and c_j c_j = (c_j^dagger c_j^dagger)^H
    worst = 0.0
    for cdag in plus:
        nonzero = np.abs(cdag[1][np.abs(cdag[1]) > 0])
        misshapen = nonzero.size != len(cdag[1]) // 2 or np.any(nonzero != 1.0)
        worst = max(worst, _max_abs(_product(cdag, cdag)[1]), float(misshapen))
    return _result("ladder-structure", worst, 1e-12)


def check_clifford_anticommutation(gammas: list) -> CheckResult:
    """gamma_j^H = -gamma_j and {gamma_j, gamma_k} = -2 delta_jk, on flips."""
    # gamma^H takes e_x to conj(phase[x XOR flip]) e_(x XOR flip)
    states, eye = np.arange(len(gammas[0][1])), np.eye(len(gammas))
    worst = max(_max_abs(phase[states ^ flip].conj() + phase) for flip, phase in gammas)
    worst = max(worst, _flip_residual(_stack(gammas), 1, np.full(eye.shape, -1), -2.0 * eye))
    return _result("clifford-anticommutation", worst, 1e-12)


def check_clifford_reconstruction(ladders: list) -> CheckResult:
    """c_k^dagger against wedge(e_k): e_b -> (-1)^|b & (2^(k-1) - 1)| e_(b | 2^(k-1)),
    0 where bit k-1 is set; and c_k against its adjoint."""
    n, states, worst, sign = len(ladders) // 2, np.arange(len(ladders[0][1])), 0.0, 1
    for k, (cdag, c) in enumerate(zip(ladders[:n], ladders[n:])):
        bit = 1 << k
        worst = max(worst, _gap(cdag, (bit, np.where(states & bit, 0, sign))))
        worst = max(worst, _gap(c, (bit, np.where(states & bit, sign, 0))))
        sign = np.where(states & bit, -sign, sign)  # mode k+1 is below every later mode
    return _result("clifford-reconstruction", worst, 1e-12)


def vector_images(n: int, images: np.ndarray) -> np.ndarray:
    """The images of X_{1,2n+1}, ..., X_{2n,2n+1}: rows of a stack of the basis images in symbol order."""
    N = so_algebra.matrix_size(n)
    return images[[i for i, (_, k) in enumerate(so_algebra.symbols(n)) if k == N]]


def check_defining_trace(vector: np.ndarray) -> CheckResult:
    """tr(X_{a,2n+1} X_{b,2n+1}) = -2 delta_ab on the defining vector-type images."""
    traces = np.einsum("aij,bji->ab", vector, vector)
    return _result("defining-trace-normalization", _max_abs(traces + 2.0 * np.eye(len(vector))), 1e-12)


def structure_constants(n: int) -> tuple:
    """(index, sign): [X_a, X_b] = sign[a, b] X_index[a, b], sign 0 where it vanishes."""
    syms = so_algebra.symbols(n)
    position, ends = {s: i for i, s in enumerate(syms)}, np.array(syms)
    index, sign = np.zeros((len(syms),) * 2, dtype=int), np.zeros((len(syms),) * 2)
    # every term of a bracket needs an index that the pair shares
    shared = (ends[:, None, :, None] == ends[None, :, None, :]).any(axis=(2, 3))
    for a, b in zip(*np.nonzero(shared)):
        terms = so_algebra.bracket_symbols(syms[a], syms[b])
        if len(terms) > 1:
            raise DomainError(f"[X_{syms[a]}, X_{syms[b]}] has {len(terms)} terms, the sweep takes one")
        for sym, coefficient in terms:
            index[a, b], sign[a, b] = position[sym], coefficient
    return index, sign


def _homomorphism_residual(structure: tuple, images: np.ndarray) -> float:
    """max over _sweep_start's (a, b) of |sign[a, b] M_index[a, b] - (M_a M_b - M_b M_a)|."""
    index, sign = structure
    count, dim, _ = images.shape
    beside = images.transpose(1, 0, 2).reshape(dim, count * dim)  # [M_0 | ... ]
    stacked = images.reshape(count * dim, dim)  # [M_0; ...]
    worst = 0.0
    for a, lo in enumerate(_sweep_start(index, sign, -1)):
        residual = images[index[a, lo:]]
        residual *= sign[a, lo:, None, None]
        residual -= (images[a] @ beside[:, lo * dim :]).reshape(dim, count - lo, dim).transpose(1, 0, 2)
        residual += (stacked[lo * dim :] @ images[a]).reshape(count - lo, dim, dim)
        worst = max(worst, _max_abs(residual))
    return worst


def check_homomorphism(tag: str, images, structure: tuple) -> CheckResult:
    """Every bracket, on the (S, d, d) stack of the basis images in symbol order, or on their _stack."""
    if isinstance(images, np.ndarray):
        return _result(f"homomorphism-{tag}", _homomorphism_residual(structure, images), 1e-12)
    return _result(f"homomorphism-{tag}", _flip_residual(images, -1, *structure), 1e-12)


def check_ladder_spin_image(ladders: list, spin: list) -> CheckResult:
    """fock's c_k^dagger and c_k against the spin images D_k^+ and D_k^-."""
    return _result("ladder-spin-image", max(_gap(c, image) for c, image in zip(ladders, spin)), 1e-12)


def check_cartan_weights(elements: list) -> CheckResult:
    """H_j = [D_j^+, D_j^-] / 2 exactly, and H_j's spin diagonal is -1/2 at the vacuum, 1/2 at the top."""
    n, worst = elements[0].n, 0.0
    for j, (up, down) in enumerate(zip(elements[:n], elements[n:]), start=1):
        cartan = so_algebra.cartan_element(j, n)
        diff = uea.pbw_normalize(uea.commutator(up, down)).scale(Fraction(1, 2)) - cartan
        worst = max(worst, max((abs(v.to_complex()) for v in diff.terms.values()), default=0.0))
        h = so_algebra.spin_diagonal(cartan)
        worst = max(worst, abs(h[0] + 0.5), abs(h[-1] - 0.5))
    return _result("cartan-weights", worst, 1e-12)


def check_uea_normal_order(spec: HamiltonianSpec) -> CheckResult:
    """Exact vanishing of the second-order/Cartan commutators, plus the
    commutation of the two quasi-Hamiltonian parts, order-by-symbol."""
    n = spec.n
    failures = 0
    for ell in range(1, n + 1):
        for k in range(1, n + 1):
            if not uea.commutator_LU(ell, k, n).is_zero():
                failures += 1
    second, first = uea.quasi_hamiltonian_symbols(n, [Fraction(e) for e in spec.energies])
    if not uea.pbw_normalize(uea.commutator(second, first)).is_zero():
        failures += 1
    return _result("uea-normal-order-zero", float(failures), 0.0)


# The checks below share run_verify's quasi-Hamiltonian parts, (spin, defining):
# the spin parts are build_parts' diagonals, the defining ones its matrices.


def check_decomposition(parts: tuple) -> CheckResult:
    worst = max(_max_abs(p.h_tilde - (p.p0 + 1j * p.b0)) for p in parts)
    return _result("hamiltonian-decomposition", worst, 1e-12)


def check_spectrum(spec: HamiltonianSpec, spin: HamiltonianParts) -> CheckResult:
    # the spin H is diagonal, so its eigenvalues are its diagonal, sorted
    expected = hamiltonian.subset_sums(spec)
    return _result("spectrum-subset-sums", _max_abs(np.sort(spin.h_tilde.real) - expected), 1e-10)


def check_commutation_shadow(defining: HamiltonianParts) -> CheckResult:
    """[P0, B0] = 0, and T_k commutes with every L_l and T_l, on the defining matrices;
    the spin parts are diagonals, which commute by construction."""
    p, worst = defining, 0.0
    for x, y in [(p.p0, p.b0), *((tk, other) for tk in p.t for other in (*p.l, *p.t))]:
        worst = max(worst, _max_abs(x @ y - y @ x))
    return _result("commutation-shadow", worst, 1e-12)


def check_car_on_subspace(spin: list) -> CheckResult:
    return _result("car-on-subspace", _car_residual(spin), 1e-12)


def check_factorized_identity(spec: HamiltonianSpec, vectors: tuple, parts: tuple) -> CheckResult:
    """H against sum_k E_k D_k^+ D_k^-, D_k^+- = +-a + ib from the images a, b of X_{2k-1,2n+1} and
    X_{2k,2n+1}, multiplied as flips in spin (a and b share a flip, or spin_flip refused D_k^+), as
    matrices in defining. H is from exact products in the enveloping algebra, so an image function
    that maps a word to the wrong product of its letters' images fails here and in the decomposition."""
    (flips, phases), defining = vectors
    total = np.zeros_like(parts[0].h_tilde)
    for e, flip, a, b in zip(spec.energies, flips[::2], phases[::2], phases[1::2]):
        total += e * _product((flip, a + 1j * b), (flip, -a + 1j * b))[1]
    worst, total = _max_abs(total - parts[0].h_tilde), np.zeros_like(parts[1].h_tilde)
    for e, a, b in zip(spec.energies, defining[::2], defining[1::2]):
        total += e * ((a + 1j * b) @ (-a + 1j * b))
    return _result("factorized-identity", max(worst, _max_abs(total - parts[1].h_tilde)), 1e-12)


def run_verify(n: int, energies) -> list:
    """Run the full named check suite at one mode count."""
    spec, modes = HamiltonianSpec(n, tuple(energies)), range(1, n + 1)
    signed, products = [*modes, *(-k for k in modes)], hamiltonian.ladder_products(n)
    rep = (so_algebra.spin_diagonal, so_algebra.defining_rep)
    parts = tuple(hamiltonian.build_parts(spec, image, products) for image in rep)
    basis = [so_algebra.basis_element(n, *s) for s in so_algebra.symbols(n)]
    defining, structure = np.stack([so_algebra.defining_rep(x) for x in basis]), structure_constants(n)
    flips = _stack(so_algebra.spin_flip(x) for x in basis)
    vectors = (tuple(vector_images(n, x) for x in flips), vector_images(n, defining))
    ladders, elements = [fock.ladder(k, n) for k in signed], [so_algebra.ladder_element(k, n) for k in signed]
    spin = [so_algebra.spin_flip(e) for e in elements]
    gammas = [fock.monomial((j,), n) for j in range(1, 2 * n + 1)]
    return [
        check_car(ladders),
        check_ladder_structure(ladders[:n]),
        check_clifford_anticommutation(gammas),
        check_clifford_reconstruction(ladders),
        check_defining_trace(vectors[1]),
        check_homomorphism("defining", defining, structure),
        check_homomorphism("spin", flips, structure),
        check_ladder_spin_image(ladders, spin),
        check_cartan_weights(elements),
        check_uea_normal_order(spec),
        check_decomposition(parts),
        check_spectrum(spec, parts[0]),
        check_commutation_shadow(parts[1]),
        check_car_on_subspace(spin),
        check_factorized_identity(spec, vectors, parts),
    ]
