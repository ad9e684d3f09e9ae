"""Named algebraic verification checks with residuals, for the verify command.

Every check reports its worst residual against a fixed tolerance; the suite
passes iff every check passes. Symbolic checks are exact (residual counts
nonzero normal forms), numeric checks compare matrices entrywise.

The homomorphism checks sweep all S^2 ordered pairs of the S = n(2n+1)
basis symbols as batched matrix products. ``run_verify`` builds the
structure constants once and both representations share them: each bracket
[X_a, X_b] is one basis symbol c times a sign, or zero. With the S images
stacked as M of shape (S, d, d), row a gathers the bracket images
sign[a, b] M_c, and takes two products: M_a @ [M_0 | ... | M_{S-1}] for
every M_a M_b, and [M_0; ...; M_{S-1}] @ M_a for every M_b M_a. No
temporary is larger than one (S, d, d) block. Every entry of a basis image
is dyadic (0, +-1, +-1/2 or +-i/2), and so is every partial sum of these
products, so they are exact in any summation order: a homomorphism's
residual is exactly 0.0, whatever BLAS does.

A representation is its image function, looked up by the tag that names its
report rows ("spin", "defining") when a run starts, never at import; the
elements it maps are ``so_algebra.UEAPolynomial``. ``basis_images`` stacks
its S basis images once per run, and the trace, homomorphism and
factorized-identity rows read that stack. ``clifford-reconstruction``
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


# The ladder and Clifford checks take run_verify's c_1^dagger.., c_1.. and gamma_1.. lists.


def check_car(plus: list, minus: list) -> CheckResult:
    return _result("car", hamiltonian.car_residual(plus, minus), 1e-12)


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
    eye = np.eye(len(gammas[0]))
    worst = 0.0
    for j, gj in enumerate(gammas):
        worst = max(worst, _max_abs(gj + gj.conj().T))
        for k, gk in enumerate(gammas):
            delta = 2.0 * eye if j == k else 0.0
            worst = max(worst, _max_abs(gj @ gk + gk @ gj + delta))
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
    N = so_algebra.matrix_size(n)
    return images[[k == N for _, k in so_algebra.symbols(n)]]


def check_defining_trace(n: int, images: np.ndarray) -> CheckResult:
    """tr(X_{a,2n+1} X_{b,2n+1}) = -2 delta_ab on the defining basis images."""
    vector = vector_images(n, images)
    traces = np.einsum("aij,bji->ab", vector, vector)
    return _result("defining-trace-normalization", _max_abs(traces + 2.0 * np.eye(len(vector))), 1e-12)


def structure_constants(n: int) -> tuple:
    """(index, sign): [X_a, X_b] = sign[a, b] X_index[a, b], sign 0 where it vanishes."""
    syms = so_algebra.symbols(n)
    position = {s: i for i, s in enumerate(syms)}
    index, sign = np.zeros((len(syms),) * 2, dtype=int), np.zeros((len(syms),) * 2)
    for a, sa in enumerate(syms):
        for b, sb in enumerate(syms):
            terms = so_algebra.bracket_symbols(sa, sb)
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


def basis_images(n: int, tag: str) -> np.ndarray:
    """The (S, d, d) stack of the basis images, in symbol order, under the image function a tag names."""
    rep = _image_function(tag)
    return np.stack([rep(so_algebra.basis_element(n, *s)) for s in so_algebra.symbols(n)])


def check_homomorphism(tag: str, images: np.ndarray, structure: tuple) -> CheckResult:
    return _result(f"homomorphism-{tag}", _homomorphism_residual(structure, images), 1e-12)


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


def check_spectrum(spec: HamiltonianSpec) -> CheckResult:
    eigs = np.sort(hamiltonian.quasi_hamiltonian(spec, so_algebra.spin_diagonal).real)
    expected = hamiltonian.subset_sums(spec)
    return _result("spectrum-subset-sums", _max_abs(eigs - expected), 1e-10)


def check_commutation_shadow(parts: tuple) -> CheckResult:
    worst = 0.0
    for p in parts:
        worst = max(worst, _max_abs(p.p0 @ p.b0 - p.b0 @ p.p0))
        for tk in p.t:
            for lk in p.l:
                worst = max(worst, _max_abs(tk @ lk - lk @ tk))
            for tl in p.t:
                worst = max(worst, _max_abs(tk @ tl - tl @ tk))
    return _result("commutation-shadow", worst, 1e-12)


def check_car_on_subspace(spin: HamiltonianParts) -> CheckResult:
    return _result("car-on-subspace", hamiltonian.car_residual(spin.d_plus, spin.d_minus), 1e-12)


def check_factorized_identity(spec: HamiltonianSpec, images: tuple, parts: tuple) -> CheckResult:
    """H against -sum_k E_k (a + ib)(a - ib), a and b the basis images multiplied as matrices.

    H is built from exact ladder products in the enveloping algebra, so this
    is the dense reference for H: a representation that maps a word to the
    wrong product of its letters' images fails here and in the decomposition.
    """
    worst = 0.0
    for stack, p in zip(images, parts):
        vector = vector_images(spec.n, stack)
        total = np.zeros_like(p.h_tilde)
        for e, a, b in zip(spec.energies, vector[::2], vector[1::2]):
            total -= e * ((a + 1j * b) @ (a - 1j * b))
        worst = max(worst, _max_abs(total - p.h_tilde))
    return _result("factorized-identity", worst, 1e-12)


def run_verify(n: int, energies) -> list:
    """Run the full named check suite at one mode count whose sweeps fit the work budget."""
    spec = HamiltonianSpec(n, tuple(energies))
    # each sweep takes two products of d x d matrices per ordered pair, d = 2^n for spin
    fock.check_work("homomorphism sweep 2 S^2 8^n", 2.0 * len(so_algebra.symbols(n)) ** 2 * 8.0**n)
    tags = ("spin", "defining")
    parts = tuple(hamiltonian.build_parts(spec, _image_function(tag)) for tag in tags)
    images = tuple(basis_images(n, tag) for tag in tags)
    structure = structure_constants(n)
    plus = [fock.creation(j, n) for j in range(1, n + 1)]
    minus = [fock.annihilation(j, n) for j in range(1, n + 1)]
    gammas = [fock.gamma(j, n) for j in range(1, 2 * n + 1)]
    return [
        check_car(plus, minus),
        check_ladder_structure(plus),
        check_clifford_anticommutation(gammas),
        check_clifford_reconstruction(gammas),
        check_defining_trace(n, images[1]),
        check_homomorphism("defining", images[1], structure),
        check_homomorphism("spin", images[0], structure),
        check_ladder_spin_image(plus, minus, parts[0]),
        check_cartan_weights(n),
        check_uea_normal_order(spec),
        check_decomposition(parts),
        check_spectrum(spec),
        check_commutation_shadow(parts),
        check_car_on_subspace(parts[0]),
        check_factorized_identity(spec, images, parts),
    ]
