"""Finite-dimensional fermions on Spin(2n+1).

Fock space with ladder operators and Clifford generators, the defining and
half-spin representations of so(2n+1) as image functions, an exact
normal-ordering engine for its enveloping algebra, Haar sampling with spin
lifts, a geometric Stratonovich ensemble integrator for the noise-only
left-invariant diffusion, and Monte Carlo verification of the resulting
Feynman-Kac semigroup identity.
"""

from .errors import (
    DomainError,
    IndexRangeError,
    NonWeightVectorError,
    NumericError,
    SizeError,
)
from .feynman_kac import FKRow, fk_lhs_exact, fk_report
from .fock import (
    FockVector,
    annihilation,
    basis_vector,
    creation,
    fock_dim,
    gamma,
    vacuum,
)
from .hamiltonian import (
    HamiltonianParts,
    HamiltonianSpec,
    build_parts,
    exact_semigroup,
    quasi_hamiltonian,
    subset_sums,
)
from .sde import (
    SDEConfig,
    decay_curve,
    fit_decay_rate,
)
from .so_algebra import (
    AlgebraElement,
    basis_element,
    bracket,
    cartan_element,
    defining_basis_matrix,
    defining_rep,
    ladder_element,
    spin_rep,
    weight_of,
)
from .spin_group import (
    MCEstimate,
    haar_lift,
    l2_inner_mc,
)
from .uea import (
    GaussianRational,
    UEAPolynomial,
    commutator_LU,
    pbw_normalize,
    uea_commuting_pair_check,
    uea_multiply,
)
from .checks import CheckResult, run_verify

__version__ = "0.1.0"
