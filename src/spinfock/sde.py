"""Geometric Stratonovich integrator for the noise-only left-invariant diffusion.

The process (p0) is driven by the 2n noise directions A_j = X_{j,2n+1} with
weights E'_{2k-1} = E'_{2k} = E_k:

    dX = sum_j sigma_j A_j(X) o dW^j

The first-order part of the Hamiltonian needs no process of its own: the
Feynman-Kac formula applies it exactly, as the phase e^{-tS}.

Each step right-multiplies the state by the exponential of the sampled
algebra increment, so unitarity is preserved up to rounding. The exponent is
a Clifford vector gamma(c)/2, whose square is the scalar -|c|^2/4, so the
step is cos(w) I + sinc(w/pi) gamma(c)/2 with w = |c|/2. Up to w^2 = 1/4
both are Taylor series in w^2, within 1 ulp of libm, and beyond it libm's.
The noise directions of mode k form one ladder pair,
a gamma_{2k-1} + b gamma_{2k} = (a - ib) c_k^dagger - (a + ib) c_k, and both
terms flip the same bit, so one kernel (spin_group.apply_modes, shared with
the Haar lift) applies the step as one flip per mode, with the Jordan-Wigner
signs written into it. The rows are held as (2^n, P), samples last, so each
flip moves contiguous blocks of samples, and each step reads a + ib of its
own coefficients as a complex view.

Right-multiplication maps rows to rows, and every estimator reads only the
matrix coefficients <e_0, U psi>, so the ensemble evolves the rows e_0^T U
(2^n numbers per path) rather than the spin matrices U. Paths come in blocks
of PATH_BLOCK, and each block draws from one stream, block_rng: first the
Gaussian matrices whose Haar lifts start its paths, lifted block by block,
then its increments, time-major. One byte budget, fock.MAX_ARRAY_BYTES,
bounds each of a chunk's arrays, so the working set grows with neither the
horizon nor the path count: chunks of whole blocks are evolved in turn, as
many as their rows fit or one block each, and a chunk's increments and their
coefficients come in step-blocks of as many whole steps as fit, or one.
Before any draw, a run's amplitude updates, the Haar lift's included, are
held to fock.MAX_AMPLITUDE_STEPS. Results depend on the seed and the path
count only; the last block may be partial, so a path's draws depend on the
path count. grid_steps gives the grid times read after each step, so a run
costs its steps plus one read per grid time. correlations reduces each read's
values, for the Feynman-Kac report and the decay curve, in the grid time's
spin_group.BlockReducer, which takes the path count, so no per-path value
outlives its chunk.

The diffusion generator is (1/2) sum_j sigma_j^2 A_j^2. Matching the
second-order operator sum_j E'_j A_j^2 therefore needs sigma_j = sqrt(2 E'_j)
(the "corrected" convention); sigma_j = sqrt(E'_j) ("paper_literal") is kept
selectable and produces exactly half the decay rate, which the calibration
command measures.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import fock, so_algebra, spin_group
from .errors import DomainError, SizeError
from .fock import check_work, vacuum
from .hamiltonian import HamiltonianSpec
from .spin_group import PATH_BLOCK, apply_modes

SIGMA_CONVENTIONS = ("corrected", "paper_literal")


@dataclass(frozen=True)
class SDEConfig:
    spec: HamiltonianSpec
    dt: float = 1e-3
    sigma_convention: str = "corrected"
    seed: int = 0

    def __post_init__(self):
        if self.sigma_convention not in SIGMA_CONVENTIONS:
            raise DomainError(
                f"sigma convention must be one of {SIGMA_CONVENTIONS}, got {self.sigma_convention!r}"
            )
        if not 0 < self.dt < math.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def eprime(self) -> np.ndarray:
        """Per-direction weights: E'_{2k-1} = E'_{2k} = E_k, j = 1..2n."""
        return np.repeat(np.asarray(self.spec.energies), 2)

    @property
    def sigmas(self) -> np.ndarray:
        if self.sigma_convention == "corrected":
            return np.sqrt(2.0 * self.eprime)
        return np.sqrt(self.eprime)


# Taylor coefficients in |c|^2 = 4 w^2, used up to |c|^2 = 1: cos(w) to w^14, sin(w)/w to w^12
_SERIES = [[(-1) ** k / math.factorial(2 * k + j) / 4**k for k in range(8 - j)] for j in (0, 1)]


def _noise_coefficients(scaled: np.ndarray) -> tuple:
    """cos(w) and sinc(w/pi) * c for the step exp(gamma(c)/2), w = |c|/2.

    scaled holds the sigma-weighted increments c on the last of at least two
    axes; it is overwritten with the second result.
    """
    rows = scaled.reshape(-1, *scaled.shape[-2:])
    square, norm2 = np.empty(rows.shape[1:]), np.empty(rows.shape[:-1])
    # |c|^2 by step rows, so no temporary is as large as scaled; 0 on underflow
    with np.errstate(under="ignore"):
        for m in range(len(rows)):
            np.matmul(np.square(rows[m], out=square), np.ones(rows.shape[-1]), out=norm2[m])
        norm2 = norm2.reshape(scaled.shape[:-1])
        far = np.flatnonzero(norm2 > 1.0)
        cos_om, sinc = (norm2 * series[-1] for series in _SERIES)
        for series, out in zip(_SERIES, (cos_om, sinc)):
            for a in series[-2:0:-1]:
                out += a
                out *= norm2
            out += series[0]
    om = np.sqrt(norm2.flat[far]) * 0.5
    del norm2  # before the product below casts sinc to complex through a buffer
    cos_om.flat[far], sinc.flat[far] = np.cos(om), np.sin(om) / om
    scaled.view(complex)[...] *= sinc[..., None]  # an axis n long, not 2n
    return cos_om, scaled


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The stream of one block of PATH_BLOCK paths, derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def grid_steps(t_grid, dt: float) -> dict:
    """{step: [t, ...]}, the grid times read after each step t/dt, in grid order;
    DomainError unless each t is a distinct finite multiple of dt, >= 0."""
    times_at = {}
    for t in t_grid:
        t = float(t)
        if not 0 <= t / dt < math.inf:
            raise DomainError(f"grid time {t} must be finite and non-negative, with t/dt finite")
        s = int(round(t / dt))
        if abs(s * dt - t) > 1e-9 * max(1.0, t):
            raise DomainError(f"grid time {t} is not a multiple of dt={dt}")
        if t in times_at.get(s, ()):
            raise DomainError(f"grid times must be distinct, got {t} twice")
        times_at.setdefault(s, []).append(t)
    return times_at


def evolve_ensemble(config: SDEConfig, n_paths: int, t_grid, read):
    """Evolve independent paths in chunks, reading their rows e_0^T U at the grid times.

    Yields (start_index, r0, reads) per chunk. r0 stacks the rows e_0^T U0
    of the Haar-distributed initial spin matrices, paths on axis 0. At the steps
    grid_steps gives, read(t, r0, rows) gets the chunk's rows e_0^T U at each
    time t there, in grid order, paths on axis 0 as in r0 and valid only during
    the call, and reads maps each grid time to what it returned. A matrix
    coefficient <e_0, U psi> is rows @ psi; the identity read, rows.copy(), keeps the full rows.

    The P paths of block b (P = PATH_BLOCK, or fewer in the last block) draw
    from block_rng(config.seed, b): first (P, 2n+1, 2n+1) Gaussians for the
    Haar starts, lifted block by block, then the (steps, P, 2n) increments,
    time-major, in step-blocks that together equal one draw, scaled in flat
    (path, direction) rows. A chunk holds the whole blocks whose rows fit
    fock.MAX_ARRAY_BYTES, and at least one, so results depend on the seed and
    the path count only, neither on the chunk size nor on the step-block size.
    Before any draw, the first next() runs grid_steps, and refuses (SizeError) a run whose paths
    x (steps + 2N - 1) x 2^n amplitude updates, 2N - 1 a lift's most reflections, pass the budget.
    """
    n = config.spec.n
    chunk_size = PATH_BLOCK * max(1, fock.MAX_ARRAY_BYTES // (PATH_BLOCK * 16 << n))
    times_at = grid_steps(t_grid, config.dt)
    lift = 2 * so_algebra.matrix_size(n) - 1
    work = float(n_paths) * (max(times_at, default=0) + lift) * (1 << n)
    check_work("paths x (steps + 2N - 1) x 2^n", work)
    for start in range(0, n_paths, chunk_size):
        # nothing of a chunk but what it yields outlives it
        yield (start, *_evolve_chunk(config, start, min(chunk_size, n_paths - start), times_at, read))


def _evolve_chunk(config: SDEConfig, start: int, count: int, times_at: dict, read) -> tuple:
    """(r0, reads) of the count paths from path start on, for evolve_ensemble."""
    n, width = config.spec.n, 2 * config.spec.n
    N = so_algebra.matrix_size(n)
    total_steps = max(times_at, default=0)
    sig = np.tile(config.sigmas, PATH_BLOCK)
    sqrt_dt = math.sqrt(config.dt)
    # (stream, first row, end row) per path block of the chunk
    blocks = [
        (block_rng(config.seed, (start + lo) // PATH_BLOCK), lo, min(lo + PATH_BLOCK, count))
        for lo in range(0, count, PATH_BLOCK)
    ]
    r0 = np.empty((count, 1 << n), dtype=complex)
    for rng, lo, hi in blocks:
        r0[lo:hi] = spin_group.haar_lift(
            spin_group.haar_factors(rng.standard_normal((hi - lo, N, N))), vacuum(n).amplitudes)
    # the increments and their cos, sinc and |c|^2: (2n + 3) x 8 bytes per path and step
    block = max(1, min(total_steps, fock.MAX_ARRAY_BYTES // (count * (width + 3) * 8)))
    scaled = np.empty((block, count, width))
    flat = scaled.reshape(block, count * width)
    r = np.ascontiguousarray(r0.T)
    work = np.empty_like(r)
    reads = {t: read(t, r0, r0) for t in times_at.get(0, ())}
    for first in range(0, total_steps, block):
        size = min(block, total_steps - first)
        # steps on axis 0, so each step reads contiguous coefficients
        for rng, lo, hi in blocks:
            draws = rng.standard_normal((size, (hi - lo) * width))
            draws *= sqrt_dt
            np.multiply(draws, sig[:draws.shape[1]], out=flat[:size, lo * width:hi * width])
        cos_om, coef = _noise_coefficients(scaled[:size])
        for m in range(size):
            ladder = np.ascontiguousarray(coef[m].view(complex).T)
            r = apply_modes(r, cos_om[m], ladder, range(n), work)
            for t in times_at.get(first + m + 1, ()):
                reads[t] = read(t, r0, r.T)
    return r0, reads


def correlations(config: SDEConfig, n_paths: int, t_grid, psi: np.ndarray, chi) -> list:
    """Ensemble mean of conj(<e_0, X(0) psi>) <e_0, X(t) chi(t)> at each grid time.

    chi(t), the amplitudes read at grid time t, is called at each read, after
    the run is counted against the work budget, so no table is held. Returns
    (t, mean, std_error) rows in grid order, from one spin_group.BlockReducer(n_paths)
    per grid time. SizeError below 100 paths; grid_steps refuses a bad or repeated time.
    """
    if n_paths < 100:
        raise SizeError(f"need at least 100 paths, got {n_paths}")
    reducers = {float(t): spin_group.BlockReducer(n_paths) for t in t_grid}

    def read(t, r0, rows):
        # not a0 * (...): numpy may run that in place as (...) * a0, rounding by chunk
        reducers[t].add(np.multiply(np.conj(r0 @ psi), rows @ chi(t)))

    # a deque of length 0 keeps no chunk's r0 alive while the next one is evolved
    collections.deque(evolve_ensemble(config, n_paths, t_grid, read), maxlen=0)
    return [(t, *reducer.estimate()) for t, reducer in reducers.items()]


def decay_curve(
    spec: HamiltonianSpec,
    t_grid,
    n_paths: int,
    dt: float,
    seed: int,
    sigma_convention: str = "corrected",
):
    """Autocorrelation E[conj(f(X(0))) f(X(t))] of the vacuum matrix coefficient.

    Under the noise-only process started from Haar this decays at rate
    (1/2) sum E_k for the corrected convention and (1/4) sum E_k for the
    literal one. Returns rows (t, mean, std_error) in increasing t.
    """
    psi = vacuum(spec.n).amplitudes
    grid = sorted(float(t) for t in t_grid)
    config = SDEConfig(spec, dt, sigma_convention, seed)
    return correlations(config, n_paths, grid, psi, lambda t: psi)


def usable_for_fit(row) -> bool:
    """Whether a (t, mean, std_error) row enters the rate fit, which takes ln Re mean."""
    return row[1].real > 0


def fit_decay_rate(rows) -> tuple:
    """Least-squares exponential rate from (t, mean, std_error) rows.

    Fits ln Re<corr> = a - rate * t over the rows usable_for_fit accepts and
    returns (rate, rate_std_error).
    """
    used = [row for row in rows if usable_for_fit(row)]
    ts = np.array([t for t, _, _ in used])
    ys = np.log(np.array([mean.real for _, mean, _ in used]))
    if ts.size < 3:
        raise SizeError("need at least three usable grid points to fit a rate and its error")
    tbar = ts.mean()
    sxx = np.sum((ts - tbar) ** 2)
    if sxx == 0:
        raise SizeError("grid times are all equal")
    slope = np.sum((ts - tbar) * (ys - ys.mean())) / sxx
    resid = ys - (ys.mean() + slope * (ts - tbar))
    stderr = math.sqrt(float(np.sum(resid**2)) / (ts.size - 2) / sxx)
    return -float(slope), stderr
