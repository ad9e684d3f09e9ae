"""Group-level machinery on SO(2n+1) and its double cover: exponentials into
both representations, Haar sampling and its spin lift, matrix coefficients,
and Monte Carlo Haar quadrature.

Haar samples on SO(2n+1) come from the QR factorization of a Gaussian matrix,
with the usual R-diagonal sign fix and a determinant correction. The
orthogonal factor is a product of Householder reflections times an even
number of coordinate reflections, and a reflection in the unit vector u is
the Clifford vector u. Their product lifts to the spin representation
through Cl^0(2n+1) = Cl(2n), taken pair by pair:

    u v -> (gamma(u') + u_N)(gamma(v') - v_N),

where u' holds the first 2n components of u and u_N the last. Each factor is
a scalar plus a Clifford vector, and every gamma_j / 2 has one nonzero per
column, so a row times a factor is a gather plus a phase. The lift needs no
logarithm, so no rotation angle is singular. It is defined up to the deck
sign, which is immaterial here: every integrand used downstream is a product
of an even number of half-spin matrix coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock, so_algebra
from .errors import DomainError, NumericError, SizeError

# Bytes of lifted rows per chunk in the sequential-stream Haar samplers.
_LIFT_BYTES = 1 << 22

_MONOMIAL_PHASES = (0.5, -0.5, 0.5j, -0.5j)


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """A group element: unitary spin matrix, optional orthogonal defining matrix."""

    n: int
    spin_matrix: np.ndarray
    defining_matrix: np.ndarray | None = None

    def __post_init__(self):
        fock.check_mode_count(self.n)
        u = np.asarray(self.spin_matrix, dtype=complex)
        dim = fock.fock_dim(self.n)
        if u.shape != (dim, dim):
            raise SizeError(f"spin matrix must be {dim}x{dim}, got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > 1e-10:
            raise DomainError("spin matrix is not unitary within 1e-10")
        object.__setattr__(self, "spin_matrix", u)
        if self.defining_matrix is not None:
            r = np.asarray(self.defining_matrix, dtype=float)
            N = so_algebra.matrix_size(self.n)
            if r.shape != (N, N):
                raise SizeError(f"defining matrix must be {N}x{N}, got {r.shape}")
            if np.max(np.abs(r.T @ r - np.eye(N))) > 1e-10 or np.linalg.det(r) < 0:
                raise DomainError("defining matrix is not special orthogonal within 1e-10")
            object.__setattr__(self, "defining_matrix", r)


def identity_point(n: int) -> GroupPoint:
    return GroupPoint(n, np.eye(fock.fock_dim(n), dtype=complex),
                      np.eye(so_algebra.matrix_size(n)))


def deck_flip(g: GroupPoint) -> GroupPoint:
    """The other preimage of the same rotation: spin matrix negated."""
    return GroupPoint(g.n, -g.spin_matrix, g.defining_matrix)


def expm_antihermitian(m: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian matrix, or of a stack of them."""
    w, v = np.linalg.eigh(1j * np.asarray(m, dtype=complex))
    return (v * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _check_real_coefficients(elem: so_algebra.AlgebraElement) -> None:
    if not elem.has_real_coefficients():
        raise DomainError(
            "group exponential needs real coefficients in the antisymmetric basis"
        )


def rep_exp(elem: so_algebra.AlgebraElement, rep: so_algebra.Representation) -> np.ndarray:
    """exp(rep(elem)) for a real element; the image is anti-Hermitian."""
    _check_real_coefficients(elem)
    return expm_antihermitian(rep.apply(elem))


def group_exp(elem: so_algebra.AlgebraElement) -> GroupPoint:
    """Exponentiate a real algebra element into both representations."""
    _check_real_coefficients(elem)
    n = elem.n
    spin = expm_antihermitian(so_algebra.spin_rep(elem))
    defining = expm_antihermitian(so_algebra.defining_rep(elem)).real
    return GroupPoint(n, spin, defining)


def vector_images(n: int) -> np.ndarray:
    """Spin images gamma_j / 2 of the basis pairs (j, 2n+1), stacked (2n, 2^n, 2^n)."""
    N = so_algebra.matrix_size(n)
    return np.stack([so_algebra.spin_symbol_matrix((j, N), n) for j in range(1, 2 * n + 1)])


def monomial_form(mats: np.ndarray) -> tuple:
    """(perm, phase), each (k, 2^n), of a stack of k monomial matrices.

    Column b of mats[j] holds its only nonzero, phase[j, b], in row
    perm[j, b], so row @ mats[j] == phase[j] * row[..., perm[j]]. Raises
    NumericError unless every column has exactly one nonzero, valued in
    {+-1/2, +-i/2}: the structure of the vector images gamma_j / 2.
    """
    mats = np.asarray(mats)
    if not np.all(np.count_nonzero(mats, axis=-2) == 1):
        raise NumericError("Clifford vector images are not monomial matrices")
    perm = np.argmax(mats != 0, axis=-2)
    phase = np.take_along_axis(mats, perm[..., None, :], axis=-2)[..., 0, :]
    if not np.all(np.isin(phase, _MONOMIAL_PHASES)):
        raise NumericError("Clifford vector image entries are not in {+-1/2, +-i/2}")
    return perm, phase


def apply_monomials(rows, scalar, coef, perm, phase) -> np.ndarray:
    """rows @ (scalar I + sum_j coef_j M_j) for the monomial matrices M_j.

    M_j is given by (perm[j], phase[j]) from monomial_form; a row times M_j
    is the row gathered by perm[j] and scaled by phase[j]. Samples go last, so
    each gather moves contiguous blocks: rows (2^n, ...) broadcast against
    complex scalar (...) and coef (k, ...).
    """
    out = scalar * rows
    rows = np.broadcast_to(rows, out.shape)
    phase = phase.reshape(phase.shape + (1,) * (out.ndim - 1))
    for j in range(len(perm)):
        term = rows[perm[j]]
        term *= phase[j]
        term *= coef[j]
        out += term
    return out


def _haar_qr(g: np.ndarray) -> tuple:
    """Q factors of a stack of Gaussian matrices, sign and det fixed, and the fix.

    Returns (R, d) with R = Q diag(d): d is the sign of the R-diagonal of the
    QR, with its last entry flipped where that leaves det(R) < 0.
    """
    q, r = np.linalg.qr(g)
    d = np.where(np.einsum("...ii->...i", r) < 0, -1.0, 1.0)
    q = q * d[..., None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, -1] *= -1.0
    d[flip, -1] *= -1.0
    return q, d


def haar_orthogonal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar sample on SO(size): QR of a Gaussian matrix, sign and det fixed."""
    return _haar_qr(rng.standard_normal((1, size, size)))[0][0]


def haar_lift(g: np.ndarray, rows: np.ndarray) -> tuple:
    """Haar rotations of a stack of Gaussian matrices, and rows of their spin lifts.

    g stacks P Gaussian (2n+1) x (2n+1) matrices. Returns (R, lifted): R[p]
    is the rotation haar_orthogonal makes from g[p], and lifted[p] is
    rows @ U_p for U_p one of the two spin preimages of R[p]. rows (..., 2^n)
    are shared by all samples; the identity gives the spin matrices. The
    lift runs with the samples on the last axis, (2^n, ..., P), and returns
    lifted as a C-contiguous (P, ..., 2^n) array.
    """
    g = np.asarray(g, dtype=float)
    N = g.shape[-1]
    if g.ndim != 3 or g.shape[1] != N or N < 3 or N % 2 == 0:
        raise SizeError(f"need a stack of odd-sized square matrices, got shape {g.shape}")
    n = (N - 1) // 2
    lifted = np.asarray(rows, dtype=complex)
    if lifted.shape[-1:] != (fock.fock_dim(n),):
        raise SizeError(f"rows must have {fock.fock_dim(n)} entries, got shape {lifted.shape}")
    rot, d = _haar_qr(g)
    h, tau = np.linalg.qr(g, mode="raw")
    # Row i of the (transposed) raw factor holds the Householder vector
    # e_i + sum_{k>i} h[i, k] e_k of reflector H_i, and R = H_1 ... H_N D.
    # A zero tau marks an identity H_i, always so for the last one; D
    # reflects the coordinates where d < 0.
    v = np.triu(h, 1) + np.eye(N)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    vecs = np.concatenate([v, np.broadcast_to(np.eye(N), g.shape)], axis=1)
    active = np.concatenate([tau != 0, d < 0], axis=1)
    # coordinate vector e_a needs only gamma_a (none for a = N)
    cols = [slice(None)] * N + [slice(a, a + 1) for a in range(N)]
    perm, phase = monomial_form(vector_images(n))
    lifted = np.moveaxis(lifted, -1, 0)[..., None]
    odd = np.zeros(len(g), dtype=bool)
    for k, col in enumerate(cols):
        on = active[:, k]
        u = vecs[:, k]
        # the vector at an odd place maps to gamma(u') + u_N, at an even
        # place to gamma(u') - u_N; gamma_j is twice the image in perm/phase
        scalar = np.where(on, np.where(odd, -u[:, -1], u[:, -1]), 1.0).astype(complex)
        coef = np.where(on, 2.0 * u[:, :-1][:, col].T, 0.0).astype(complex)
        lifted = apply_monomials(lifted, scalar, coef, perm[col], phase[col])
        odd ^= on
    if odd.any():
        raise NumericError("Haar rotation is an odd product of reflections")
    return rot, np.ascontiguousarray(np.swapaxes(lifted, 0, -1))


def haar_chunks(rng: np.random.Generator, n: int, count: int, rows: np.ndarray):
    """haar_lift over count Gaussian matrices drawn one after another from rng.

    Yields (start, R, lifted) for consecutive samples from start on, in
    chunks of a fixed byte budget of lifted rows. The draws are those of one
    bulk draw of all count matrices, so results do not depend on the chunk.
    """
    fock.check_mode_count(n)
    N = so_algebra.matrix_size(n)
    rows = np.asarray(rows)
    chunk = max(1, _LIFT_BYTES // (16 * rows.size))
    for start in range(0, count, chunk):
        g = rng.standard_normal((min(chunk, count - start), N, N))
        yield (start, *haar_lift(g, rows))


def haar_sample(rng: np.random.Generator, n: int) -> GroupPoint:
    """Haar-distributed group point: one Gaussian draw, lifted."""
    fock.check_mode_count(n)
    N = so_algebra.matrix_size(n)
    rot, u = haar_lift(rng.standard_normal((1, N, N)), np.eye(fock.fock_dim(n)))
    return GroupPoint(n, u[0], rot[0])


@dataclass(frozen=True)
class MatrixCoefficient:
    """The function g -> <vacuum, spin(g) psi> on the group."""

    state: fock.FockVector


def evaluate_coefficient(coeff: MatrixCoefficient, g: GroupPoint) -> complex:
    if coeff.state.n != g.n:
        raise SizeError(f"mode counts differ: {coeff.state.n} != {g.n}")
    return complex((g.spin_matrix @ coeff.state.amplitudes)[0])


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    std_error: float
    n_samples: int


def complex_mean_stderr(values: np.ndarray) -> tuple:
    """Mean and combined standard error sqrt((var Re + var Im)/N)."""
    values = np.asarray(values)
    n = values.size
    mean = complex(values.mean())
    if n < 2:
        return mean, float("inf")
    var = values.real.var(ddof=1) + values.imag.var(ddof=1)
    return mean, float(np.sqrt(var / n))


def l2_inner_mc(
    psi: fock.FockVector,
    phi: fock.FockVector,
    n_samples: int,
    rng: np.random.Generator,
) -> MCEstimate:
    """Monte Carlo Haar quadrature of the L^2 product of two matrix coefficients.

    Estimates the integral over the group of conj(<vac, spin(g) psi>) times
    <vac, spin(g) phi>, which equals 2^{-n} <psi, phi> by Schur orthogonality.
    """
    if psi.n != phi.n:
        raise SizeError(f"mode counts differ: {psi.n} != {phi.n}")
    if n_samples < 100:
        raise SizeError(f"need at least 100 samples, got {n_samples}")
    values = np.empty(n_samples, dtype=complex)
    for start, _, r in haar_chunks(rng, psi.n, n_samples, fock.vacuum(psi.n).amplitudes):
        values[start:start + len(r)] = np.conj(r @ psi.amplitudes) * (r @ phi.amplitudes)
    mean, stderr = complex_mean_stderr(values)
    return MCEstimate(mean, stderr, n_samples)
