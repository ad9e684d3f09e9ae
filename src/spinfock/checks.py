"""Named algebraic verification checks with residuals, for the verify command.

Every check reports its worst residual against a fixed tolerance; the suite
passes iff every check passes. Symbolic checks are exact (residual counts
nonzero normal forms), numeric checks compare arrays entrywise.

Every spin image a row reads is a signed bit flip, e_x -> phase[x]
e_(x XOR flip), built from words as a (flip, phase) pair: ``so_algebra``'s
``spin_flip`` for basis and ladder elements and ``spin_diagonal`` for the
parts of H (flip 0), ``fock.monomial`` for gamma_j, ``fock.ladder`` for
c_k^+-. A product of two is one gather, M_a M_b = (f_a XOR f_b,
p_a[x XOR f_b] p_b[x]), in blocks within ``fock.MAX_ARRAY_BYTES``; every
entry is dyadic, so each row is exact and reads the bits dense products
did, and no row builds a 2^n x 2^n matrix. ``car``,
``clifford-anticommutation`` and ``car-on-subspace`` multiply all pairs of
their 2n images. ``homomorphism-spin`` multiplies no pair of the S =
n(2n+1) basis images: given the Clifford relations, which
``clifford-anticommutation`` checks, each bracket follows once each image
is 1/2 its word's product of gammas and the table is the words' bracket,
read on bit masks (Bravyi & Kitaev, Ann. Phys. 298, 2002).
``homomorphism-defining`` reads its images as signed partial permutations
and forms, by gathers, the products of every pair whose supports meet; the
others vanish. ``clifford-reconstruction`` compares
fock's ladders with exterior multiplication by e_k, whose sign it forms by
negating, after each mode, the states that occupy it, not through
``fock.monomial``, so a wrong Jordan-Wigner order fails it.
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


def _gaps(flip_a, phase_a, flip_b, phase_b) -> np.ndarray:
    """max |M_a - M_b| of (flip, phase) images, or row by row, on disjoint supports where the flips differ."""
    apart = np.not_equal(flip_a, flip_b)[..., None]
    return np.where(apart, np.maximum(np.abs(phase_a), np.abs(phase_b)), np.abs(phase_a - phase_b)).max(axis=-1)


def _products(images: tuple, i: np.ndarray, j: np.ndarray) -> tuple:
    """M_i M_j for each pair of the index arrays i, j into a _stack."""
    flip, phase = images
    return flip[i] ^ flip[j], phase[i[:, None], np.arange(phase.shape[1]) ^ flip[j, None]] * phase[j]


def _blocks(count: int, entries: int, rows) -> np.ndarray:
    """rows(k) over blocks k of range(count), concatenated; a row's temporaries, fewer than 16 arrays of
    entries complex numbers each, fit fock.MAX_ARRAY_BYTES."""
    step = max(1, fock.MAX_ARRAY_BYTES // (16 * 16 * entries))
    return np.concatenate([rows(np.arange(lo, min(lo + step, count))) for lo in range(0, count, step)])


def _flip_residual(images: tuple, coeff: np.ndarray) -> float:
    """max over all (a, b) of |coeff[a, b] - (M_a M_b + M_b M_a)| on a _stack."""
    a, b = np.divmod(np.arange(coeff.size), len(coeff))

    def gaps(k):
        flip, product = _products(images, a[k], b[k])
        return _gaps(flip, product + _products(images, b[k], a[k])[1], 0, coeff[a[k], b[k], None])

    return float(_blocks(len(a), images[1].shape[1], gaps).max())


def _car_residual(ladders: list) -> float:
    """{c_j, c_k^dagger} = delta_jk, and any two other ladder images anticommute, on flips."""
    delta = np.eye(len(ladders), k=len(ladders) // 2) + np.eye(len(ladders), k=-(len(ladders) // 2))
    return _flip_residual(_stack(ladders), delta)


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
    worst = max(worst, _flip_residual(_stack(gammas), -2.0 * eye))
    return _result("clifford-anticommutation", worst, 1e-12)


def check_clifford_reconstruction(ladders: list) -> CheckResult:
    """c_k^dagger against wedge(e_k): e_b -> (-1)^|b & (2^(k-1) - 1)| e_(b | 2^(k-1)),
    0 where bit k-1 is set; and c_k against its adjoint."""
    n, states, sign, wedges = len(ladders) // 2, np.arange(len(ladders[0][1])), 1, [[], []]
    for bit in 1 << np.arange(n):
        wedges[0].append((bit, np.where(states & bit, 0, sign)))
        wedges[1].append((bit, np.where(states & bit, sign, 0)))
        sign = np.where(states & bit, -sign, sign)  # mode k+1 is below every later mode
    return _result("clifford-reconstruction", _gaps(*_stack(ladders), *_stack(sum(wedges, []))).max(), 1e-12)


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
    position, (j, k) = {s: i for i, s in enumerate(syms)}, np.array(syms).T
    # every term of a bracket needs an index that the pair shares
    shared = (j[:, None] == j) | (j[:, None] == k) | (k[:, None] == j) | (k[:, None] == k)
    a, b = (x.tolist() for x in np.nonzero(shared))
    terms = [so_algebra.bracket_symbols(syms[x], syms[y]) for x, y in zip(a, b)]
    if max(map(len, terms)) > 1:
        i = next(i for i, t in enumerate(terms) if len(t) > 1)
        raise DomainError(f"[X_{syms[a[i]]}, X_{syms[b[i]]}] has {len(terms[i])} terms, the table holds one")
    kept = [i for i, t in enumerate(terms) if t]
    index, sign = np.zeros((len(syms),) * 2, dtype=int), np.zeros((len(syms),) * 2)
    at = np.array(a)[kept], np.array(b)[kept]
    index[at], sign[at] = [position[terms[i][0][0]] for i in kept], [terms[i][0][1] for i in kept]
    return index, sign


def _clifford_words(n: int) -> tuple:
    """(left, right): the gammas, from 0, of spin(X_jk) = gamma_k gamma_j / 2 and spin(X_{j,2n+1}) =
    gamma_j / 2, whose right -1 reads the identity a _stack holds last."""
    j, k = (np.array(so_algebra.symbols(n)) - 1).T
    return np.where(k == 2 * n, j, k), np.where(k == 2 * n, -1, j)


def _clifford_gaps(words: tuple, structure: tuple) -> np.ndarray:
    """(S, S): the dense sweep's max |sign[a, b] M_index[a, b] - [M_a, M_b]| for M_a = gamma_(word a) / 2, on
    the words' letters and bit masks (bit j-1 for gamma_j). Sorting a word's letters takes (-1)^(its
    inversions), and gamma_j gamma_j = -1, so gamma_(word a) gamma_(word b) = (-1)^(inversions of both words
    + the letter pairs x of a, y of b with x >= y) gamma_(A XOR B)."""
    (index, sign), low = structure, np.stack(words)
    high = np.where(low < 0, 64, low)  # the identity letter comes after every gamma on the right
    order = 1 - 2 * (low[0] > high[1])  # (-1)^(inversions of each word)
    swap = 1 - 2 * ((low[:, None, :, None] >= high[None, :, None, :]).sum(axis=(0, 1)) & 1)
    bracket = 0.25 * order[:, None] * order * (swap - swap.T)  # [M_a, M_b] = bracket gamma_(A XOR B)
    table = 0.5 * sign * order[index]  # sign M_index = table gamma_C
    mask = (1 << low + 1).sum(axis=0) >> 1
    gaps = np.abs(table - bracket)  # exact where C = A XOR B, or where a term vanishes
    a, b = np.nonzero((mask[index] ^ mask[:, None] ^ mask) * table * bracket)
    other, table, bracket = mask[index[a, b]] ^ mask[a] ^ mask[b], np.abs(table[a, b]), np.abs(bracket[a, b])
    # two monomials apart: on disjoint supports where their flips differ; else each mode's two gammas are
    # both in C XOR A XOR B or neither, m modes, and gamma_C^-1 gamma_(A XOR B) is +-i^m times the parity
    # of those modes, which takes both signs
    m = other & 0x55555555  # the bits of gamma_1, gamma_3, ...; bit 0 of m becomes their parity
    for shift in (1, 2, 4, 8, 16):
        m = m ^ m >> shift
    one_flip = np.where(m & 1, np.hypot(table, bracket), table + bracket)
    gaps[a, b] = np.where((other ^ other >> 1) & 0x55555555, np.maximum(table, bracket), one_flip)
    return gaps


def _defining_gaps(images: np.ndarray, structure: tuple) -> np.ndarray:
    """(S, S): max |sign[a, b] M_index[a, b] - (M_a M_b - M_b M_a)|, each image a signed partial permutation,
    M_a e_c = values[a, c] e_rows[a, c] from column c's largest entry, so M_a M_b e_c = values[a, rows[b, c]]
    values[b, c] e_rows[a, rows[b, c]]; each column's three terms are summed at each of their rows. Any
    other entry of an image is no such permutation: every pair reads its largest modulus."""
    (index, sign), (count, size, _) = structure, images.shape
    moduli = np.abs(images)
    rows = moduli.argmax(axis=1)
    values = np.take_along_axis(images, rows[:, None], axis=1)[:, 0]
    values = values if values.imag.any() else values.real  # real images take real arithmetic
    np.put_along_axis(moduli, rows[:, None], 0, axis=1)
    # images whose rows and columns miss each other's multiply to 0, leaving the table's term alone
    kept, flat_rows, flat_values = values != 0, rows.ravel(), values.ravel()
    support = np.bitwise_or.reduce(kept << rows | kept << np.arange(size), axis=1)
    gaps = np.abs(sign) * np.abs(values).max(axis=1)[index]
    a, b = np.nonzero(support[:, None] & support)

    def pair_gaps(k):
        i, j = a[k], b[k]
        rt, t = rows[index[i, j]], sign[i, j, None] * values[index[i, j]]
        at = i[:, None] * size + rows[j]  # M_a M_b: a's column rows[b, c]
        rp, p = flat_rows[at], flat_values[at] * values[j]
        at = j[:, None] * size + rows[i]  # M_b M_a: b's column rows[a, c]
        rq, q = flat_rows[at], flat_values[at] * values[i]
        tp, tq, pq = rt == rp, rt == rq, rp == rq
        worst = np.maximum(np.abs(t - p * tp + q * tq), np.abs(t * tp - p + q * pq))
        return np.maximum(worst, np.abs(t * tq - p * pq + q)).max(axis=1)

    gaps[a, b] = _blocks(len(a), size, pair_gaps)
    return np.maximum(gaps, moduli.max())


def check_homomorphism(tag: str, images, structure: tuple) -> CheckResult:
    """Every bracket [X_a, X_b] = sign[a, b] X_index[a, b] of the basis images in symbol order: defining on
    their (S, N, N) stack, any entry beside a column's largest failing it; spin on (their _stack, the gammas'
    _stack), each image 1/2 its word's gamma product and the table the words' bracket."""
    if tag == "defining":
        residual = _defining_gaps(images, structure).max()
    else:
        (flips, gammas), words = images, _clifford_words(len(images[1][0]) // 2)

        def gaps(k):
            flip, product = _products(gammas, words[0][k], words[1][k])
            return _gaps(flips[0][k], flips[1][k], flip, 0.5 * product)

        residual = max(
            _blocks(len(words[0]), flips[1].shape[1], gaps).max(), _clifford_gaps(words, structure).max()
        )
    return _result(f"homomorphism-{tag}", residual, 1e-12)


def check_ladder_spin_image(ladders: list, spin: list) -> CheckResult:
    """fock's c_k^dagger and c_k against the spin images D_k^+ and D_k^-."""
    return _result("ladder-spin-image", _gaps(*_stack(ladders), *_stack(spin)).max(), 1e-12)


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
        check_homomorphism("spin", (flips, _stack(gammas)), structure),
        check_ladder_spin_image(ladders, spin),
        check_cartan_weights(elements),
        check_uea_normal_order(spec),
        check_decomposition(parts),
        check_spectrum(spec, parts[0]),
        check_commutation_shadow(parts[1]),
        check_car_on_subspace(spin),
        check_factorized_identity(spec, vectors, parts),
    ]
