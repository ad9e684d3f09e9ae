"""Monte Carlo verification of the semigroup inner-product identity.

For embedded matrix coefficients f = F(psi), g = F(phi) the semigroup inner
product (f, e^{-tH} g) over the group equals the path expectation

    E[ conj(f(X(0))) * (e^{-tS} phi-coefficient)(X(t)) ],

where X is the noise-only diffusion started from Haar measure, and
S = sum_k E_k (N_k - 1/2) is the self-adjoint spin matrix of the first-order
part times i, a diagonal (so_algebra.spin_diagonal). The exact left side
reduces to 2^{-n} <psi, e^{-tH_num} phi> with H_num the diagonal number
Hamiltonian, an independent route; the 2^{-n} is the Schur orthogonality
factor of the 2^n-dimensional representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamiltonian, sde, so_algebra, uea
from .errors import DomainError, SizeError
from .fock import FockVector
from .hamiltonian import HamiltonianSpec


@dataclass(frozen=True)
class FKRow:
    t: float
    lhs: complex
    rhs_mean: complex
    std_error: float
    z_score: float


def fk_lhs_exact(psi: FockVector, phi: FockVector, spec: HamiltonianSpec, t: float, diag=None) -> complex:
    """2^{-n} <psi, e^{-t H} phi>, H the diagonal number Hamiltonian (diag, if passed)."""
    if psi.n != spec.n or phi.n != spec.n:
        raise SizeError("mode counts differ")
    if not 0 <= t < np.inf:
        raise DomainError(f"time must be finite and >= 0, got {t}")
    diag = hamiltonian.number_hamiltonian_diagonal(spec) if diag is None else diag
    weights = np.exp(-t * diag)
    return complex(np.sum(np.conj(psi.amplitudes) * weights * phi.amplitudes) / (1 << spec.n))


def fk_report(
    psi: FockVector,
    phi: FockVector,
    spec: HamiltonianSpec,
    t_grid,
    n_paths: int,
    dt: float,
    seed: int,
) -> list:
    """Exact-vs-Monte-Carlo comparison over a time grid, sharing one ensemble.

    Deterministic given the seed. Returns one FKRow per grid time. The
    target e^{-tS} phi is formed where the ensemble reads it, from one S,
    the real diagonal of i spin(B0), and the exact side from one number diagonal.
    """
    if psi.n != spec.n or phi.n != spec.n:
        raise SizeError("mode counts differ")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        return []
    config = sde.SDEConfig(spec, dt, "corrected", seed)
    first_order = uea.quasi_hamiltonian_symbols(spec.n, spec.energies)[1]
    s = (1j * so_algebra.spin_diagonal(first_order)).real
    rows, diag = [], hamiltonian.number_hamiltonian_diagonal(spec)
    for t, mean, stderr in sde.correlations(
        config, n_paths, t_grid, psi.amplitudes, lambda t: np.exp(-t * s) * phi.amplitudes
    ):
        lhs = fk_lhs_exact(psi, phi, spec, t, diag)
        gap = abs(mean - lhs)
        z = gap / stderr if stderr > 0 else (0.0 if gap == 0 else float("inf"))
        rows.append(FKRow(t, lhs, mean, stderr, z))
    return rows
