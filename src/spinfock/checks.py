"""Named algebraic verification checks with residuals, for the verify command.

Every check reports its worst residual against a fixed tolerance; the suite
passes iff every check passes. Symbolic checks are exact (residual counts
nonzero normal forms), numeric checks compare matrices entrywise.

Each spin-side image that a relation multiplies (a basis image, gamma_j,
c_k^+- or D_k^+-) is a signed bit flip, e_x -> phase[x] e_(x XOR flip), which
``read_flips`` reads as that pair; an image's largest entry off its flip
joins each residual that reads it. A product of two is one gather,
M_a M_b = (f_a XOR f_b, p_a[x XOR f_b] p_b[x]) (Bravyi & Kitaev, Ann. Phys.
298, 210, 2002), so ``car``, ``clifford-anticommutation``, ``car-on-subspace``
and ``homomorphism-spin`` (all S^2 ordered pairs of the S = n(2n+1) basis
symbols) take O(2^n) per pair, in blocks whose temporaries (fewer than 16
arrays of 2^n complex entries per pair) fit ``fock.MAX_ARRAY_BYTES``; the
(2n+1)-dimensional ``homomorphism-defining`` stays dense. Every image entry
is dyadic (0, +-1, +-i, +-1/2, +-i/2), as is every product and partial sum,
so each sweep is exact in any order: a flip row reads the dense one's bits.

A representation is its image function, looked up by the tag that names its
report rows ("spin", "defining") when a run starts, never at import; the
elements it maps are ``so_algebra.UEAPolynomial``. Spin basis images are
built one at a time; ``basis_images`` stacks the defining ones, and the 2n
vector-type ones of both for ``factorized-identity``. ``clifford-reconstruction``
compares (gamma_{2k-1} + i gamma_{2k}) / 2 with exterior multiplication by
e_k written from bit masks, not through ``fock.monomial``, so a wrong
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


def read_flips(images) -> tuple:
    """(flip, phase, off) of the images, flips those of their largest entries, then the identity."""
    flips, phases, off = [], [], 0.0
    for image in images:
        cols, size = np.arange(len(image)), np.abs(image)
        flips.append(np.bitwise_xor(*np.unravel_index(np.argmax(size), size.shape)))
        phases.append(image[cols ^ flips[-1], cols])
        size[cols ^ flips[-1], cols] = 0.0
        off = max(off, float(size.max()))
    return np.array([*flips, 0]), np.array([*phases, np.ones(len(cols), complex)]), off


def _flip_residual(flips: tuple, sign: int, target: np.ndarray, coeff: np.ndarray) -> float:
    """max over (a, b) of |coeff[a, b] M_target[a, b] - (M_a M_b + sign M_b M_a)|, and off."""
    flip, phase, worst = flips
    a, b = np.divmod(np.arange(coeff.size), len(coeff))
    states, step = np.arange(phase.shape[1]), max(1, fock.MAX_ARRAY_BYTES // (16 * phase[0].nbytes))
    for lo in range(0, len(a), step):
        i, j = a[lo : lo + step], b[lo : lo + step]
        product = phase[i[:, None], states ^ flip[j, None]] * phase[j]
        product += sign * (phase[j[:, None], states ^ flip[i, None]] * phase[i])
        wanted = coeff[i, j, None] * phase[target[i, j]]
        apart = (flip[target[i, j]] != flip[i] ^ flip[j])[:, None]  # on disjoint supports
        gap = np.where(apart, np.maximum(np.abs(wanted), np.abs(product)), np.abs(wanted - product))
        worst = max(worst, float(gap.max()))
    return worst


def _car_residual(plus, minus) -> float:
    """{c_j, c_k^dagger} = delta_jk, and any two other ladder images anticommute, on flips."""
    delta = np.eye(2 * len(plus), k=len(plus)) + np.eye(2 * len(plus), k=-len(plus))
    return _flip_residual(read_flips([*minus, *plus]), 1, np.full(delta.shape, -1), delta)


# The ladder and Clifford checks take run_verify's c_1^dagger.., c_1.. and gamma_1.. lists.


def check_car(plus: list, minus: list) -> CheckResult:
    return _result("car", _car_residual(plus, minus), 1e-12)


def check_ladder_structure(plus: list) -> CheckResult:
    # c_j is c_j^dagger's adjoint by definition, and c_j c_j = (c_j^dagger c_j^dagger)^H
    worst = 0.0
    for cdag in plus:
        worst = max(worst, _max_abs(cdag @ cdag))
        nonzero = np.abs(cdag[np.abs(cdag) > 0])
        if nonzero.size != len(cdag) // 2 or np.any(nonzero != 1.0):
            worst = max(worst, 1.0)
    return _result("ladder-structure", worst, 1e-12)


def check_clifford_anticommutation(gammas: list) -> CheckResult:
    """gamma_j^H = -gamma_j, dense, and {gamma_j, gamma_k} = -2 delta_jk on flips."""
    eye, worst = np.eye(len(gammas)), max(_max_abs(g + g.conj().T) for g in gammas)
    worst = max(worst, _flip_residual(read_flips(gammas), 1, np.full(eye.shape, -1), -2.0 * eye))
    return _result("clifford-anticommutation", worst, 1e-12)


def check_clifford_reconstruction(gammas: list) -> CheckResult:
    """(g_{2k-1} + i g_{2k}) / 2 against wedge(e_k): e_b -> (-1)^|b & (2^(k-1) - 1)| e_(b | 2^(k-1)),
    0 where bit k-1 is set; and (-g_{2k-1} + i g_{2k}) / 2 against its adjoint."""
    dim = len(gammas[0])
    worst = 0.0
    for k, (g_odd, g_even) in enumerate(zip(gammas[::2], gammas[1::2])):
        bit, wedge = 1 << k, np.zeros((dim, dim))
        for b in range(dim):
            if not b & bit:
                wedge[b | bit, b] = (-1) ** (b & (bit - 1)).bit_count()
        worst = max(worst, _max_abs(0.5 * (g_odd + 1j * g_even) - wedge))
        worst = max(worst, _max_abs(0.5 * (-g_odd + 1j * g_even) - wedge.T))
    return _result("clifford-reconstruction", worst, 1e-12)


def vector_images(n: int, images: np.ndarray) -> np.ndarray:
    """The images of X_{1,2n+1}, ..., X_{2n,2n+1} from a basis_images stack."""
    return images[[k == so_algebra.matrix_size(n) for _, k in so_algebra.symbols(n)]]


def check_defining_trace(vector: np.ndarray) -> CheckResult:
    """tr(X_{a,2n+1} X_{b,2n+1}) = -2 delta_ab on the defining vector-type images."""
    traces = np.einsum("aij,bji->ab", vector, vector)
    return _result("defining-trace-normalization", _max_abs(traces + 2.0 * np.eye(len(vector))), 1e-12)


def structure_constants(n: int) -> tuple:
    """(index, sign): [X_a, X_b] = sign[a, b] X_index[a, b], sign 0 where it vanishes."""
    syms = so_algebra.symbols(n)
    position = {s: i for i, s in enumerate(syms)}
    index, sign = np.zeros((len(syms),) * 2, dtype=int), np.zeros((len(syms),) * 2)
    for a, sa in enumerate(syms):
        for b, sb in enumerate(syms):
            # every term of a bracket needs an index that the pair shares
            terms = so_algebra.bracket_symbols(sa, sb) if set(sa) & set(sb) else ()
            if len(terms) > 1:
                raise DomainError(f"[X_{sa}, X_{sb}] has {len(terms)} terms, the sweep takes one")
            for sym, coefficient in terms:
                index[a, b], sign[a, b] = position[sym], coefficient
    return index, sign


def _homomorphism_residual(structure: tuple, images: np.ndarray) -> float:
    """max over (a, b) of |sign[a, b] M_index[a, b] - (M_a M_b - M_b M_a)|."""
    index, sign = structure
    count, dim, _ = images.shape
    beside = images.transpose(1, 0, 2).reshape(dim, count * dim)  # [M_0 | ... ]
    stacked = images.reshape(count * dim, dim)  # [M_0; ...]
    worst = 0.0
    for a in range(count):
        residual = images[index[a]]
        residual *= sign[a, :, None, None]
        residual -= (images[a] @ beside).reshape(dim, count, dim).transpose(1, 0, 2)
        residual += (stacked @ images[a]).reshape(count, dim, dim)
        worst = max(worst, _max_abs(residual))
    return worst


def _image_function(tag: str):
    """The image function a tag names, looked up per call, so a patch of it is seen."""
    return {"spin": so_algebra.spin_rep, "defining": so_algebra.defining_rep}[tag]


def basis_images(n: int, tag: str, syms=None) -> np.ndarray:
    """The images of syms (default: all, in symbol order) under the image function a tag names."""
    rep = _image_function(tag)
    return np.stack([rep(so_algebra.basis_element(n, *s)) for s in syms or so_algebra.symbols(n)])


def check_homomorphism(tag: str, images, structure: tuple) -> CheckResult:
    """Every bracket, on the (S, d, d) stack of the basis images or on their read_flips."""
    if isinstance(images, np.ndarray):
        return _result(f"homomorphism-{tag}", _homomorphism_residual(structure, images), 1e-12)
    return _result(f"homomorphism-{tag}", _flip_residual(images, -1, *structure), 1e-12)


def check_ladder_spin_image(plus: list, minus: list, spin: HamiltonianParts) -> CheckResult:
    """fock's c_k^dagger and c_k against the spin images D_k^+ and D_k^- of build_parts."""
    pairs = zip([*plus, *minus], [*spin.d_plus, *spin.d_minus])
    return _result("ladder-spin-image", max(_max_abs(image - c) for c, image in pairs), 1e-12)


def check_cartan_weights(n: int) -> CheckResult:
    worst = 0.0
    vac = fock.vacuum(n).amplitudes
    top = fock.basis_vector(n, range(1, n + 1)).amplitudes
    for j in range(1, n + 1):
        cartan = so_algebra.cartan_element(j, n)
        half_bracket = uea.pbw_normalize(
            uea.commutator(so_algebra.ladder_element(j, n), so_algebra.ladder_element(-j, n))
        ).scale(Fraction(1, 2))
        diff = half_bracket - cartan
        worst = max(worst, max((abs(v.to_complex()) for v in diff.terms.values()), default=0.0))
        h = so_algebra.spin_rep(cartan)
        worst = max(worst, _max_abs(h @ vac + 0.5 * vac))
        worst = max(worst, _max_abs(h @ top - 0.5 * top))
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


# The checks below share run_verify's quasi-Hamiltonian parts, (spin, defining).


def check_decomposition(parts: tuple) -> CheckResult:
    worst = 0.0
    for p in parts:
        worst = max(worst, _max_abs(p.h_tilde - (p.p0 + 1j * p.b0)))
    return _result("hamiltonian-decomposition", worst, 1e-12)


def check_spectrum(spec: HamiltonianSpec, products: tuple) -> CheckResult:
    eigs = np.sort(hamiltonian.quasi_hamiltonian(spec, so_algebra.spin_diagonal, products).real)
    expected = hamiltonian.subset_sums(spec)
    return _result("spectrum-subset-sums", _max_abs(eigs - expected), 1e-10)


def check_commutation_shadow(parts: tuple) -> CheckResult:
    worst = 0.0
    for p in parts:
        for x, y in [(p.p0, p.b0), *((tk, other) for tk in p.t for other in (*p.l, *p.t))]:
            worst = max(worst, _max_abs(x @ y - y @ x))
    return _result("commutation-shadow", worst, 1e-12)


def check_car_on_subspace(spin: HamiltonianParts) -> CheckResult:
    return _result("car-on-subspace", _car_residual(spin.d_plus, spin.d_minus), 1e-12)


def check_factorized_identity(spec: HamiltonianSpec, vectors: tuple, parts: tuple) -> CheckResult:
    """H against -sum_k E_k (a + ib)(a - ib), a and b the vector-type images multiplied as matrices.

    H is built from exact ladder products in the enveloping algebra, so this
    is the dense reference for H: a representation that maps a word to the
    wrong product of its letters' images fails here and in the decomposition.
    """
    worst = 0.0
    for vector, p in zip(vectors, parts):
        total = np.zeros_like(p.h_tilde)
        for e, a, b in zip(spec.energies, vector[::2], vector[1::2]):
            total -= e * ((a + 1j * b) @ (a - 1j * b))
        worst = max(worst, _max_abs(total - p.h_tilde))
    return _result("factorized-identity", worst, 1e-12)


def run_verify(n: int, energies) -> list:
    """Run the full named check suite at one mode count whose products fit the work budget."""
    spec, syms, N = HamiltonianSpec(n, tuple(energies)), so_algebra.symbols(n), 2 * n + 1
    # spin products: d x d (d = 2^n) in the dense rows, two of d entries per pair in the flip rows
    work = (2 + 2 * n + 4 * n * n) * 8**n + 2 * (len(syms) ** 2 + 12 * n * n) * 2**n
    fock.check_work("verify products (2 + 2n + 4n^2) 8^n + 2 (S^2 + 12n^2) 2^n", work)
    tags, products = ("spin", "defining"), hamiltonian.ladder_products(n)
    parts = tuple(hamiltonian.build_parts(spec, _image_function(tag), products) for tag in tags)
    defining, spin = basis_images(n, "defining"), _image_function("spin")
    vectors = (basis_images(n, "spin", [(j, N) for j in range(1, N)]), vector_images(n, defining))
    flips = read_flips(spin(so_algebra.basis_element(n, *s)) for s in syms)
    structure = structure_constants(n)
    plus = [fock.creation(j, n) for j in range(1, n + 1)]
    minus = [fock.annihilation(j, n) for j in range(1, n + 1)]
    gammas = [fock.gamma(j, n) for j in range(1, 2 * n + 1)]
    return [
        check_car(plus, minus),
        check_ladder_structure(plus),
        check_clifford_anticommutation(gammas),
        check_clifford_reconstruction(gammas),
        check_defining_trace(vectors[1]),
        check_homomorphism("defining", defining, structure),
        check_homomorphism("spin", flips, structure),
        check_ladder_spin_image(plus, minus, parts[0]),
        check_cartan_weights(n),
        check_uea_normal_order(spec),
        check_decomposition(parts),
        check_spectrum(spec, products),
        check_commutation_shadow(parts),
        check_car_on_subspace(parts[0]),
        check_factorized_identity(spec, vectors, parts),
    ]
