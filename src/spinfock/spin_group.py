"""Group-level machinery on SO(2n+1) and its double cover: Haar sampling and
its spin lift, and Monte Carlo Haar quadrature.

Haar samples on SO(2n+1) come from the QR factorization of a Gaussian matrix,
with the usual R-diagonal sign fix and a determinant correction. The
orthogonal factor is a product of Householder reflections times coordinate
reflections, and a reflection in the unit vector u is the Clifford vector u.
haar_rotations and the lift read both from one raw QR per stack, haar_factors:
the reflectors, and the R-diagonal whose signs give the coordinate
reflections. The product lifts to the spin representation through
Cl^0(2n+1) = Cl(2n), taken pair by pair:

    u v -> (gamma(u') + u_N)(gamma(v') - v_N),

where u' holds the first 2n components of u and u_N the last. Each factor is
a scalar plus a Clifford vector. The lift needs no logarithm, so no rotation
angle is singular. It is defined up to the deck sign, which is immaterial
here: every integrand used downstream is a product of an even number of
half-spin matrix coefficients. It needs no determinant correction either:
the correction negates the last column, which appends or removes the
reflection in e_N, and e_N maps to the scalar -1 or 1 by its place. Where
the reflections are odd in number the last one is left unpaired, and its
image gamma(u') + u_N is, up to sign, that of its pair with e_N. The lift
skips each reflection no sample of a stack uses, the last Householder one always.

haar_chunks lifts samples by chunks, each as many samples as keep every
per-sample array within the one byte budget, fock.MAX_ARRAY_BYTES, and at least
one: the N x N stacks, 8 N^2 bytes a sample, and the lifted rows, the kernel's
scratch and a reader's Gram matrix, 16 bytes per entry of the rows. Before any
draw it holds the lift's amplitude updates, at most 2N - 1 reflections of the
rows per sample, to fock.MAX_AMPLITUDE_STEPS.

One kernel, apply_modes, applies a scalar plus a Clifford vector to rows, in
the lift and in the ensemble step. With c_m^dagger = (gamma_{2m-1} +
i gamma_{2m}) / 2, a gamma_{2m-1} + b gamma_{2m} = (a - ib) c_m^dagger -
(a + ib) c_m, and in fock's Jordan-Wigner basis both terms flip bit m-1 of
the basis index: one flip per mode, times the parity of the lower bits and
(a - ib)/2 or -(a + ib)/2 by the flipped bit. That table is the same at
every n, so the kernel holds it as constants.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from . import fock, so_algebra
from .errors import SizeError

# Values per block of BlockReducer (in sde, paths per random stream).
PATH_BLOCK = 1024

MCEstimate = collections.namedtuple("MCEstimate", "mean std_error")


def _bit_halves(a: np.ndarray, m: int) -> np.ndarray:
    """View of a (2^n, ...) as (2^(n-m-1), 2, 2^m, ...): axis 1 is bit m of the index."""
    return a.reshape((-1, 2, 1 << m) + a.shape[1:])


def apply_modes(rows, scalar, ladder, modes, work) -> np.ndarray:
    """rows @ (scalar I + sum over modes m of (a gamma_{2m+1} + b gamma_{2m+2}) / 2).

    Samples go last: rows (2^n, ...) broadcast against the real scalar
    (...), and ladder[i], w = a + ib of mode modes[i] (from 0), broadcasts
    like scalar. work, a C-contiguous scratch array of the output's shape
    that callers keep across calls, is overwritten.

    The mode's term is (conj(w) c^dagger - w c) / 2 for its ladder pair, and
    fock's c^dagger takes e_b with bit m clear to s(b) e_(b + 2^m), s(b) = -1
    per set bit of b below m. So entry b of the result is s(b) r[b XOR 2^m]
    times conj(w)/2 where bit m of b is 0, and times -w/2 where it is 1. The
    parity signs go Horner-wise, T_0 + Z_0 (T_1 + Z_1 (T_2 + ...)) with Z_k
    negating the entries whose bit k is set: half the output per sign.
    """
    out = np.empty_like(work)
    terms = dict(zip(modes, ladder))
    top = max(terms, default=-1)
    for m in range(top, -1, -1):
        if m < top:
            # a float view: numpy negates complex entries far more slowly
            half = _bit_halves(out, m)[:, 1].view(np.float64)
            np.negative(half, out=half)
        if m in terms:
            w = terms[m]
            src = _bit_halves(rows, m)[:, ::-1]
            dst = _bit_halves(out if m == top else work, m)
            np.multiply(src[:, 0], 0.5 * np.conj(w), out=dst[:, 0])
            np.multiply(src[:, 1], -0.5 * w, out=dst[:, 1])
            if m < top:
                out += work
    if top < 0:
        return np.multiply(rows, scalar, out=out)
    out += np.multiply(rows, scalar, out=work)
    return out


def haar_factors(g: np.ndarray) -> tuple:
    """The raw QR (h, tau) of a stack of matrices, which haar_rotations and haar_lift read.

    Row i of h holds R_ii and, right of it, the vector e_i + sum_{k>i} h[i, k] e_k
    of the reflector I - tau_i v v^T (the identity where tau_i is 0, as the last).
    """
    return np.linalg.qr(np.asarray(g, dtype=float), mode="raw")


def haar_rotations(factors: tuple) -> np.ndarray:
    """Haar rotations of a stack of Gaussian matrices, from their haar_factors.

    R = Q diag(d), Q the product of LAPACK's reflectors (not the lift's normalised
    ones), d the R-diagonal's signs but the last, which makes det R = +1 by the
    parity of the other reflections in use. Reflector i changes the block from (i, i).
    """
    h, tau = factors
    N = h.shape[-1]
    neg = h.diagonal(axis1=1, axis2=2) < 0
    neg[:, -1] = np.logical_xor.reduce(neg[:, :-1] != (tau[:, :-1] != 0), axis=1)
    v = h.copy()
    v.reshape(len(h), -1)[:, ::N + 1] = 1.0
    rot = np.eye(N) * (1.0 - 2.0 * neg)[:, None, :]
    for i in range(N - 2, -1, -1):
        block = rot[:, i:, i:]
        block -= (tau[:, i, None, None] * v[:, i, i:, None]) * (v[:, i, None, i:] @ block)
    return rot


def haar_orthogonal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar sample on SO(size): QR of a Gaussian matrix, sign and det fixed."""
    return haar_rotations(haar_factors(rng.standard_normal((1, size, size))))[0]


def haar_lift(factors: tuple, rows: np.ndarray) -> np.ndarray:
    """Rows of the spin lifts of the Haar rotations of a stack of Gaussian matrices.

    factors are the haar_factors of P Gaussian (2n+1) x (2n+1) matrices, and
    lifted[p] is rows @ U_p, U_p a spin preimage of haar_rotations(factors)[p].
    rows (..., 2^n) are shared by all samples; the identity gives the spin
    matrices. The lift runs with the samples on the last axis, (2^n, ..., P),
    and returns a C-contiguous (P, ..., 2^n) array. It applies the
    Householder reflectors, then those in e_a where R_aa < 0, if in use.
    """
    h, tau = factors
    N = h.shape[-1]
    if h.ndim != 3 or h.shape[1] != N or N < 3 or N % 2 == 0:
        raise SizeError(f"need a stack of odd-sized square matrices, got shape {h.shape}")
    n = (N - 1) // 2
    lifted = np.asarray(rows, dtype=complex)
    if lifted.shape[-1:] != (fock.fock_dim(n),):
        raise SizeError(f"rows must have {fock.fock_dim(n)} entries, got shape {lifted.shape}")
    v = np.triu(h, 1) + np.eye(N)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    lifted = np.moveaxis(lifted, -1, 0)[..., None]
    work = np.empty(lifted.shape[:-1] + (len(h),), dtype=complex)
    odd = np.zeros(len(h), dtype=bool)
    for k in range(2 * N):
        a = k - N  # the coordinate reflections come last, a = 0 .. N - 1
        on = tau[:, k] != 0 if a < 0 else h[:, a, a] < 0
        if not on.any():
            continue
        # the vector at an odd place maps to gamma(u') + u_N, at an even place
        # to gamma(u') - u_N; apply_modes applies gamma_j / 2, so 2 u', which
        # for e_a is 2 or 2i on the mode of its gamma alone (none for the last)
        if a < 0:
            u_n, modes = v[:, k, -1], range(n)
            ladder = np.where(on[:, None], 2.0 * v[:, k, :-1], 0.0).view(complex).T
        else:
            u_n, modes = float(a == N - 1), [a // 2] if a < N - 1 else []
            ladder = [np.where(on, 2j if a % 2 else 2.0, 0j)]
        lifted = apply_modes(lifted, np.where(on, np.where(odd, -u_n, u_n), 1.0), ladder, modes, work)
        odd ^= on
    return np.ascontiguousarray(np.swapaxes(lifted, 0, -1))


def haar_chunks(rng: np.random.Generator, n: int, count: int, rows: np.ndarray, read):
    """Yields read(f, haar_lift(f, rows)), f the haar_factors of chunks of count draws from rng.

    The draws are those of one bulk draw, so results do not depend on the chunk.
    """
    fock.check_mode_count(n)
    N = so_algebra.matrix_size(n)
    fock.check_work("samples x (2N - 1) x lifted rows", float(count) * (2 * N - 1) * np.size(rows))
    chunk = max(1, fock.MAX_ARRAY_BYTES // max(8 * N * N, 16 * np.size(rows)))
    for start in range(0, count, chunk):
        factors = haar_factors(rng.standard_normal((min(chunk, count - start), N, N)))
        yield read(factors, haar_lift(factors, rows))


class BlockReducer:
    """Mean and standard error of count values taken chunk by chunk, in order.

    Blocks of PATH_BLOCK values, cut on the index in the whole sequence, are
    reduced to their count, mean and sum of squared deviations about the first
    block's mean, so a common offset does not round them, and merged in order
    by the update of Chan, Golub and LeVeque (Am. Stat. 37, 1983): the chunks
    do not change the result. Less than a block of values outlives an add,
    and none the add that completes the count, which merges the last,
    partial block too.
    """

    def __init__(self, count: int):
        self.count, self.shift, self.moments, self.head = count, None, (0, 0.0, 0.0), np.empty(0)

    def _merged(self, block: np.ndarray) -> tuple:
        if self.shift is None:
            self.shift = block.mean()
        b = block - self.shift
        (n_a, mean_a, m2_a), n_b = self.moments, len(b)
        total, delta = n_a + n_b, b.mean() - mean_a
        m2 = m2_a + n_b * b.var() + abs(delta) ** 2 * (n_a * n_b / total)
        return total, mean_a + delta * (n_b / total), m2

    def add(self, values: np.ndarray) -> None:
        """Take the next values, a 1-D array."""
        values = np.concatenate([self.head, values]) if len(self.head) else values
        last = self.moments[0] + len(values) >= self.count
        end = len(values) if last else len(values) - len(values) % PATH_BLOCK
        for lo in range(0, end, PATH_BLOCK):
            self.moments = self._merged(values[lo:lo + PATH_BLOCK])
        self.head = values[end:].copy()

    def estimate(self) -> MCEstimate:
        """The mean and sqrt(sum |value - mean|^2 / (N - 1) / N) of the N = count values."""
        count, mean, m2 = self.moments
        return MCEstimate((self.shift + mean).item(), math.sqrt(m2 / (count - 1) / count))


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
    reducer = BlockReducer(n_samples)
    for values in haar_chunks(rng, psi.n, n_samples, fock.vacuum(psi.n).amplitudes,
                              lambda f, r: np.conj(r @ psi.amplitudes) * (r @ phi.amplitudes)):
        reducer.add(values)
    return reducer.estimate()
