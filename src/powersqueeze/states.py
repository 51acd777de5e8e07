"""Normalized k-th power squeezed states in a truncated number basis.

A state is an eigenvector of mu a^k + nu a+^k with mu = sqrt(1 + |nu|^2).
Within the sector |mk+kappa> its coefficients are c_m = N t^m f_m with
t = sqrt(nu/mu) and f_m solving the three-term recursion at the scaled
eigenvalue lambda' = lambda/(mu t).  |t| < 1 while f_m grows slower than
exponentially, so the series converges and the cutoff is extended until
the trailing-window mass drops below the requested tolerance.

Operator expectation values (uncertainty products, eigen-residuals) are
evaluated in a zero-padded space; for truncated states the top two
coefficient slots (the 2k photon levels spanned by the quadratic operator
products) are excluded from every sum, since the missing tail contaminates
exactly that edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NumericsError
from .jacobi import (
    InitialKind,
    OffDiagonalSequence,
    SectorParams,
    _fill_off_diagonal,
    cauchy_ratio,
    commutator_weight,
    envelope_fit,
    log_off_diagonal,
    solve_recursion,
)

_MAX_CUTOFF = 100_000
# the verdicts of _flagged: square-summable below both of the first pair,
# not square-summable at or above both of the second.  |f_m| ~ m^e with
# e > -1/2 puts the Cauchy ratio near 1 - 2^-(2e+1): 0.293 at e = -1/4,
# 0.129 at e = -0.4.  Measured at lambda' = i, M = 5000 to 2e6, every
# kappa: k = 1 reads e = 22 to 448 and ratio 1, k = 2 e = -0.261 to -0.250
# and ratio 0.2928 to 0.2929, k >= 3 e <= -0.748 and ratio <= 6.4e-3
_SQUARE_SUMMABLE_EXPONENT = -0.5 - 0.1  # decay strictly faster than 1/sqrt
_CAUCHY_WINDOW = 0.10
_NOT_SUMMABLE_EXPONENT = -0.5 + 0.1  # decay strictly slower than 1/sqrt
_NOT_SUMMABLE_RATIO = 0.20
# the minimal solution's recursion runs over N = 100 M rows, so that its
# contamination sqrt(M/N) is 10%; N stops at 2e6 (M <= 20000), where the
# solve builds no array of b and its traced peak is 0.09 N-arrays (1.4 MiB)
_MINIMAL_ROWS_PER_M = 100
_MAX_MINIMAL_ROWS = 2_000_000
# log of the smallest normal binary64; a normalized c_0 below it is lost
_LOG_TINY = math.log(np.finfo(np.float64).tiny)
# rows per block of the positive recursion, and the budget of one chunk of
# rows of b across the blocks of a sweep, as spectra._BLOCK_BYTES: at
# N = 2e6 a chunk holds 16 rows of 7813 blocks
_BLOCK = 256
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SqueezeParams:
    """(sector, nu, lambda) with mu derived as sqrt(1 + |nu|^2)."""

    sector: SectorParams
    nu: complex
    lam: complex

    @property
    def mu(self) -> float:
        try:
            return math.sqrt(1.0 + abs(self.nu) ** 2)
        except OverflowError:  # |nu| above about 1.3e154
            raise NumericsError(
                f"states.SqueezeParams: mu = sqrt(1 + |nu|^2) overflows binary64 "
                f"at |nu| = {abs(self.nu):.3e}"
            ) from None

    def lambda_prime(self) -> complex:
        """lambda / (mu t) with t the principal root of nu/mu; nu != 0."""
        if self.nu == 0:
            raise ValueError("states.SqueezeParams.lambda_prime: lambda' is singular at nu = 0")
        return self.lam / (self.mu * self.branch_t())

    def branch_t(self) -> complex:
        return cmath.sqrt(self.nu / self.mu)


@dataclass(frozen=True)
class FockVector:
    """Coefficients c_0..c_M over |mk+kappa>.

    tail_estimate is the normalized mass of the trailing 10% window at
    build time; 0.0 marks an exactly finitely supported vector (nothing
    was truncated), which expectation sums then use in full.
    """

    sector: SectorParams
    coefficients: np.ndarray
    tail_estimate: float

    @property
    def cutoff(self) -> int:
        return len(self.coefficients) - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


def _vdot(a: np.ndarray, w: np.ndarray) -> complex:
    """sum_m conj(a_m) w_m by numpy's pairwise sum, whose order is fixed:
    np.vdot and np.linalg.norm go through BLAS, whose threads split a long
    sum and so move its last bits with the thread count."""
    return complex(np.sum(np.conj(a) * w))


def _norm(z: np.ndarray) -> float:
    """2-norm of a complex array by the same pairwise sum (_vdot)."""
    return math.sqrt(_vdot(z, z).real)


def _tail_window(total: int) -> int:
    return max(1, total // 10)


def _normalized_state(sector: SectorParams, coefficients, tol: float, caller: str) -> FockVector:
    """Cutoff doubling, tail test, normalization and phase for both builders.

    coefficients(M) returns (directions, log|c_m|) for m = 0..M of the
    unnormalized vector.  The cutoff doubles from 32 until the
    trailing-window mass is below tol, everything in log form; the vector
    is then divided by its 2-norm and rotated so that c_0 is real positive.
    """
    M = 32
    while True:
        directions, log_c = coefficients(M)
        log_norm_sq = np.logaddexp.reduce(2.0 * log_c)
        log_tail = np.logaddexp.reduce(2.0 * log_c[-_tail_window(M + 1) :])
        tail = math.exp(log_tail - log_norm_sq)
        if tail < tol:
            break
        if M >= _MAX_CUTOFF:
            raise NumericsError(
                f"states.{caller}: tail {tail:.3e} above tol {tol:.3e} "
                f"at the cutoff cap {_MAX_CUTOFF}"
            )
        M = min(2 * M, _MAX_CUTOFF)

    log_c0 = log_c[0] - 0.5 * log_norm_sq
    if log_c0 < _LOG_TINY:
        raise NumericsError(
            f"states.{caller}: c_0 = exp({log_c0:.6g}) underflows binary64 "
            f"(cutoff {M})"
        )
    coeff = directions * np.exp(log_c - 0.5 * log_norm_sq)
    coeff /= _norm(coeff)
    coeff *= (coeff[0] / abs(coeff[0])).conjugate()
    return FockVector(sector, coeff, tail)


def _grows_to_cap(params: SqueezeParams) -> bool:
    """Sufficient condition that |c_m| grows all the way to the cutoff cap.

    With r = |lambda|/mu = |t lambda'| >= 3 b_cap, b_m increasing in m and
    |t| <= 1: if |f_m| >= |f_{m-1}| (true at m = 0, f_{-1} = 0), then
    b_m |f_{m+1}| >= |lambda'| |f_m| - b_{m-1} |f_{m-1}|
    >= (|lambda'| - b_{m-1}) |f_m|, so |t| |f_{m+1}| >= (r - b_{m-1}) |f_m|
    / b_m >= 2 |f_m|.  Hence |c_{m+1}| >= 2 |c_m| and |f_{m+1}| >= |f_m|
    for every m below the cap.  The top entry then outweighs all others
    put together, so every trailing window holds more than half the mass,
    and the cutoff doubling could only end in its cap error.  (Factor 2
    already makes |c_m| non-decreasing, which leaves about 10% of the mass
    in the window; 3 keeps every ratio at 2, clear of rounding.)
    """
    r = abs(params.lam) / params.mu
    return r > 0.0 and math.log(r) >= math.log(3.0) + log_off_diagonal(
        params.sector, _MAX_CUTOFF
    )


def build_state(params: SqueezeParams, tol: float) -> FockVector:
    """Construct the normalized eigenstate of mu a^k + nu a+^k.

    nu = 0 is the eigenstate of a^k, built by build_power_coherent.  The
    cutoff doubles until the trailing-window mass is below tol (log
    domain throughout, so sub-exponential growth of f_m cannot overflow).
    The overall phase is fixed by making c_0 real positive.

    Inputs on which the doubling could only reach its cap raise
    NumericsError before any recursion:

    - mu = sqrt(1 + |nu|^2) overflows binary64 (|nu| above about 1e154);
    - k <= 2 and |t| = 1, which binary64 gives once |nu| exceeds about
      1e8 (mu rounds to |nu|).  Then |c_m| = N |f_m| with f the polynomial
      solution.  The k <= 2 moment problems are determinate and their
      measures have no point masses, so f is square-summable at no
      lambda', and its trailing-window mass does not fall below tol:
      at the cap it is about 5e-2 (k = 1) and 6e-3 (k = 2), against
      tol <= 1e-4.  For k >= 3 (limit circle) every solution is
      square-summable, so |t| = 1 is left to the doubling;
    - |lambda|/mu >= 3 b_cap, where |c_m| grows to the cap (_grows_to_cap).
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"states.build_state: tol must lie in (0, 1e-4], got {tol}")
    if params.nu == 0:
        return build_power_coherent(params.sector, params.lam, tol)
    try:
        t = params.branch_t()
    except NumericsError:  # mu overflows
        raise NumericsError(
            f"states.build_state: mu = sqrt(1 + |nu|^2) overflows binary64 "
            f"at |nu| = {abs(params.nu):.3e}"
        ) from None
    log_t = math.log(abs(t))
    if params.sector.k <= 2 and log_t >= 0.0:
        raise NumericsError(
            f"states.build_state: |t| = |nu/mu|^(1/2) rounds to 1 at "
            f"|nu| = {abs(params.nu):.3e}; for k <= 2 the tail then never "
            f"falls below tol"
        )
    if _grows_to_cap(params):
        raise NumericsError(
            f"states.build_state: |lambda|/mu = {abs(params.lam) / params.mu:.3e} "
            f"is at least 3 b_m for every m up to the cutoff cap {_MAX_CUTOFF}, "
            f"so |c_m| grows to the cap"
        )
    phase_t = t / abs(t)
    lam_prime = params.lambda_prime()

    def coefficients(M):
        sol = solve_recursion(params.sector, lam_prime, M, InitialKind.POLYNOMIAL)
        m_idx = np.arange(M + 1)
        return sol.directions * phase_t**m_idx, sol.log_abs + m_idx * log_t

    return _normalized_state(params.sector, coefficients, tol, "build_state")


def build_power_coherent(sector: SectorParams, lam: complex, tol: float) -> FockVector:
    """Eigenstate of a^k alone (the nu = 0, mu = 1 point).

    c_m = lam^m / (b_0 ... b_{m-1}), built in log form; factorial damping
    makes the vector square-summable for every lam.  NumericsError once
    the normalized c_0 underflows (|lam| above about 37.6 at k = 1).
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"states.build_power_coherent: tol must lie in (0, 1e-4], got {tol}")
    lam = complex(lam)
    if lam == 0:
        return FockVector(sector, np.array([1.0 + 0.0j]), 0.0)
    log_lam = math.log(abs(lam))
    phase = lam / abs(lam)

    def coefficients(M):
        log_b = np.log(OffDiagonalSequence.build(sector, M).values)
        m_idx = np.arange(M + 1)
        log_c = m_idx * log_lam - np.concatenate(([0.0], np.cumsum(log_b)))
        return phase**m_idx, log_c

    return _normalized_state(sector, coefficients, tol, "build_power_coherent")


def _lower(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^k on a coefficient array: slot m receives b_m w_{m+1}."""
    out = np.zeros_like(w)
    out[:-1] = b[: len(w) - 1] * w[1:]
    return out


def _raise(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a+^k on a coefficient array: slot m receives b_{m-1} w_{m-1}; the
    image of the top slot falls outside the array and is dropped."""
    out = np.zeros_like(w)
    out[1:] = b[: len(w) - 1] * w[:-1]
    return out


def apply_power_lowering(v: FockVector, k: int) -> FockVector:
    """a^k v (unnormalized): slot m receives b_m c_{m+1}."""
    if k != v.sector.k:
        raise ValueError(
            f"states.apply_power_lowering: operator power {k} does not match sector k={v.sector.k}"
        )
    c = v.coefficients
    b = OffDiagonalSequence.build(v.sector, len(c)).values
    return FockVector(v.sector, _lower(c, b), v.tail_estimate)


def apply_power_raising(v: FockVector, k: int) -> FockVector:
    """a+^k v (unnormalized): slot m receives b_{m-1} c_{m-1}; one slot longer."""
    if k != v.sector.k:
        raise ValueError(
            f"states.apply_power_raising: operator power {k} does not match sector k={v.sector.k}"
        )
    b = OffDiagonalSequence.build(v.sector, len(v.coefficients)).values
    return FockVector(v.sector, _raise(_padded(v, 1), b), v.tail_estimate)


# ---------------------------------------------------------------------------
# expectation machinery


def _padded(v: FockVector, extra: int) -> np.ndarray:
    out = np.zeros(len(v.coefficients) + extra, dtype=np.complex128)
    out[: len(v.coefficients)] = v.coefficients
    return out


def _kept_slots(v: FockVector) -> int:
    """Slots entering expectation sums: all of them for exactly supported
    vectors, all but the top two for truncated ones."""
    n = len(v.coefficients)
    if v.tail_estimate > 0.0 and n > 2:
        return n - 2
    return n


@dataclass(frozen=True)
class SRReport:
    """Uncertainty budget for A = (a^k + a+^k)/2, B = (a^k - a+^k)/2i.

    commutator_expectation is <f_k(N)> (so <[A,B]> = i/2 times it), checked
    against the direct product route; lhs = varA varB - covAB^2 and
    rhs = |<[A,B]>|^2 / 4; gap = lhs - rhs is nonnegative up to roundoff
    and zero exactly on the squeezed eigenstates.
    """

    var_a: float
    var_b: float
    cov_ab: float
    commutator_expectation: float
    lhs: float
    rhs: float
    gap: float


def sr_report(v: FockVector, k: int) -> SRReport:
    """Schrodinger-Robertson variance report for the state v."""
    if k != v.sector.k:
        raise ValueError(
            f"states.sr_report: operator power {k} does not match sector k={v.sector.k}"
        )
    sector = v.sector
    c = _padded(v, 2)
    L = len(c)
    b = OffDiagonalSequence.build(sector, L).values

    keep = _kept_slots(v)
    bra = c[:keep]

    def expect(w) -> complex:
        return _vdot(bra, w[:keep])

    norm = _vdot(bra, bra).real
    a_v = _lower(c, b)
    ad_v = _raise(c, b)
    e1 = expect(a_v) / norm
    e1d = expect(ad_v) / norm
    e2 = expect(_lower(a_v, b)) / norm
    e2d = expect(_raise(ad_v, b)) / norm
    e_lr = expect(_lower(ad_v, b)) / norm  # <a^k a+^k>
    e_rl = expect(_raise(a_v, b)) / norm  # <a+^k a^k>

    mean_a = (e1 + e1d) / 2.0
    mean_b = (e1 - e1d) / 2.0j
    var_a = float(((e2 + e_lr + e_rl + e2d) / 4.0 - mean_a * mean_a).real)
    var_b = float((-(e2 - e_lr - e_rl + e2d) / 4.0 - mean_b * mean_b).real)
    # (AB + BA)/2 = (a^{2k} - a+^{2k}) / 4i
    cov = float(((e2 - e2d) / 4.0j - mean_a * mean_b).real)

    n_photon = range(sector.kappa, sector.kappa + k * keep, k)
    weights = np.fromiter(map(commutator_weight, repeat(k), n_photon), np.float64, keep)
    fk_mean = float(np.sum(weights * np.abs(bra) ** 2) / norm)
    direct = float((e_lr - e_rl).real)
    if abs(direct - fk_mean) > 1e-8 * (1.0 + abs(fk_mean)):
        raise NumericsError(
            f"states.sr_report: commutator cross-check failed "
            f"(direct {direct!r} vs weight route {fk_mean!r}); truncation too aggressive"
        )

    lhs = var_a * var_b - cov * cov
    rhs = fk_mean * fk_mean / 16.0
    return SRReport(
        var_a=var_a,
        var_b=var_b,
        cov_ab=cov,
        commutator_expectation=fk_mean,
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
    )


def residual_check(v: FockVector, params: SqueezeParams) -> float:
    """Relative eigen-residual of (mu a^k + nu a+^k - lambda) v.

    The norm runs over the kept slots; the scale is |lambda| plus the norms
    of both operator branches (the branch norms rather than their sum keep
    the measure meaningful at lambda = 0, where the combined output itself
    vanishes on an eigenstate).
    """
    if params.sector != v.sector:
        raise ValueError("states.residual_check: params sector does not match the vector sector")
    mu, nu, lam = params.mu, complex(params.nu), complex(params.lam)
    c = _padded(v, 1)
    L = len(c)
    b = OffDiagonalSequence.build(v.sector, L).values
    low = _lower(c, b)
    high = _raise(c, b)
    resid = mu * low + nu * high - lam * c
    keep = _kept_slots(v)
    num = _norm(resid[:keep])
    den = abs(lam) + mu * _norm(low[:keep]) + abs(nu) * _norm(high[:keep])
    # den vanishes only when lambda = 0 and both operator branches annihilate
    # the kept slots (e.g. the vacuum at nu = 0); the residual is then exact
    return num / den if den > 0.0 else num


# ---------------------------------------------------------------------------
# deficiency evidence at lambda' = i


@dataclass(frozen=True)
class DeficiencyEvidence:
    """Count of independent square-summable solutions at lambda' = i.

    count is None when neither fundamental solution is decided (_flagged)
    and the minimal solution is either past its contamination bound or not
    flagged square-summable, and when one is flagged square-summable and
    the other not, which Weyl's alternative rules out (never a silent
    guess).  Exponents are the fitted envelope slopes.  contamination_bound
    and minimal_exponent are None unless both fundamental solutions are
    undecided; then contamination_bound is sqrt(M/N) for the minimal
    solution's recursion over N = min(100 M, 2e6) rows.  The bound is met
    at N = 100 M, that is up to M = 20000, and only there is the minimal
    solution built and minimal_exponent reported.
    """

    sector: SectorParams
    M: int
    count: int | None
    exponent_polynomial: float | None
    exponent_second: float | None
    minimal_exponent: float | None
    conclusive: bool
    contamination_bound: float | None = None


def _flagged(log_abs: np.ndarray) -> tuple[bool | None, float]:
    """(verdict, exponent) of log|f_0..f_M|, from the envelope exponent
    over [M/10, M] and the Cauchy ratio of the partial sums across
    M/2 -> M: True (square-summable) for an exponent below -0.6 and a ratio
    below 10%, False (not square-summable) for an exponent at or above -0.4
    and a ratio at or above 20%, None (undecided) otherwise.  The ratio is
    computed only when the exponent takes a side.  At M >= 5000 every entry
    is finite (_positive_log_solution), so the fit always has at least 4501
    points."""
    exponent = envelope_fit(log_abs)[0]
    if exponent < _SQUARE_SUMMABLE_EXPONENT:
        return (True if cauchy_ratio(log_abs) < _CAUCHY_WINDOW else None), exponent
    if exponent >= _NOT_SUMMABLE_EXPONENT:
        return (False if cauchy_ratio(log_abs) >= _NOT_SUMMABLE_RATIO else None), exponent
    return None, exponent


def _block_steps(rows: np.ndarray, y_prev: np.ndarray, y_cur: np.ndarray, out=None):
    """Step the positive recursion through blocks, one per column of rows,
    one numpy step per row: rows[0] holds b_{m-1} and rows[1 + i] b_{m+i},
    m a block's first row.  (y_prev, y_cur) = (y_{m-1}, y_m) are stepped in
    place to the returned (y_{m+B-1}, y_{m+B}); out[i] receives y_{m+i}."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses those
        for i, (b_before, b_row) in enumerate(zip(rows[:-1], rows[1:])):
            if out is not None:
                out[i] = y_cur
            y_prev *= b_before
            y_prev += y_cur
            y_prev /= b_row
            y_prev, y_cur = y_cur, y_prev
    return y_prev, y_cur


def _positive_log_solution(
    sector: SectorParams, lo: int, length: int, reverse: bool = False, start: int = 0
) -> np.ndarray:
    """log y_start..y_L (L = length) of c_m y_{m+1} = y_m + c_{m-1} y_{m-1},
    y_{-1} = 0, y_0 = 1, on the rows c_m = b_{lo+m} for m = 0..L-1, or on
    the same rows reversed, c_m = b_{lo+L-1-m}: every solution at
    lambda' = i, up to a unit factor per entry and an overall scale (see
    deficiency_evidence).

    Every term is positive, so no step cancels.  Rows 0..L fall into blocks
    of B = _BLOCK rows, stepped together by _block_steps.  Row r of block
    column j holds c at clip(jB + r - 1, 0, L - 1): the row before each
    block, c_0 as block 0's c_{-1} (which multiplies y_{-1} = 0), and
    c_{L-1} as the padding of the last block.  Two sweeps run over the
    blocks; each fills its rows of b in place (_fill_off_diagonal) a chunk
    at a time, the same rows of every block of the sweep in at most
    _CHUNK_BYTES.  The first sweep steps every block from the basis states
    (1, 0) and (0, 1) for (y_{jB-1}, y_{jB}), which gives the matrix that
    maps that pair to (y_{jB+B-1}, y_{jB+B}).  One Python pass applies the
    matrices in order to (y_{-1}, y_0) = (0, 1), records each block's start
    pair, and after each block divides the pair by a power of two, exactly,
    to put its larger entry in [1/2, 1).  The second sweep fills the blocks
    that hold rows start..L from their start pairs; they get back the
    exponents dropped since the first of them (its scale is part of the
    free overall scale).  A basis state's second parity chain stays near
    1/b of its first, so past b ~ 1e8 its share of a step rounds away
    (-2e-15 per block at k = 4): each block's logs also get the summed gaps
    between the fills' ends and next starts.  A step reads and writes one
    block's entries only, so the chunk size moves no bit.

    Every sector has increasing b >= 1, so a step at most doubles
    max(y_{m-1}, y_m): from a pair at most 1, a block stays below 2^(B+1).
    y_{m+1} >= y_m / b_m and y_{m+1} >= (b_{m-1}/b_m) y_{m-1} keep it above
    1 / (2 rho^2 max b), rho = max(b)/min(b) over the block and the entry
    before it: normal for k <= 2 (rho <= 363, b_m < 2m + 3).  For k >= 3 the
    bound is loose; entries measured at k = 3 to 107, M = 5000 to 2e5, stay
    above 1 / max b, normal up to b = 2^1022.  A non-finite b, or a
    non-finite or 0 entry, raises NumericsError.
    """
    L = length
    first, end = start // _BLOCK, L // _BLOCK + 1  # blocks first..end-1 hold rows start..L

    def sweep(j0: int, y_prev: np.ndarray, y_cur: np.ndarray, out=None):
        """_block_steps through blocks j0..end-1, a chunk of rows at a time."""
        chunk = max(1, _CHUNK_BYTES // (8 * (end - j0)) - 1)  # (chunk + 1) rows per fill
        columns = np.arange(j0 * _BLOCK, end * _BLOCK, _BLOCK, dtype=np.float64)
        for r0 in range(0, _BLOCK, chunk):
            r1 = min(r0 + chunk, _BLOCK)
            rows = np.arange(r0 - 1.0, r1)[:, None] + columns
            np.clip(rows, 0.0, L - 1.0, out=rows)
            if reverse:
                np.subtract(lo + L - 1.0, rows, out=rows)
            else:
                rows += lo
            _fill_off_diagonal(sector, rows)
            if not np.isfinite(rows).all():
                raise NumericsError(
                    f"states.deficiency_evidence: non-finite off-diagonal in the "
                    f"positive recursion (rows 0..{L})"
                )
            y_prev, y_cur = _block_steps(rows, y_prev, y_cur, None if out is None else out[r0:r1])
            del rows  # before the next chunk's rows: two at once raise the peak
        return y_prev, y_cur

    blocks = np.stack(sweep(0, *np.eye(2)[:, :, None].repeat(end, axis=2)))
    entries_ok = blocks.min() > 0.0 and blocks.max() < math.inf
    prev, cur, dropped, starts = 0.0, 1.0, 0, []
    for j, (p0, p1, c0, c1) in enumerate(zip(*map(memoryview, blocks.reshape(4, -1)))):
        if j >= first:
            starts.append((prev, cur, dropped))
        prev, cur = p0 * prev + p1 * cur, c0 * prev + c1 * cur
        e = math.frexp(max(prev, cur))[1]
        prev, cur, dropped = math.ldexp(prev, -e), math.ldexp(cur, -e), dropped + e
    del blocks
    grid = np.empty((end - first, _BLOCK))
    ends = sweep(first, *np.array(starts)[:, :2].T.copy(), grid.T)[1]
    log_y = grid.reshape(-1)[start - first * _BLOCK : L + 1 - first * _BLOCK]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(log_y, out=log_y)
        _, s, d = np.array(starts).T
        gaps = (np.ldexp(ends[:-1], (d[:-1] - d[1:]).astype(int)) - s[1:]) / s[1:]
        grid += ((d - d[0]) * math.log(2.0) + np.cumsum(np.log1p([0.0, *gaps])))[:, None]
    if not (entries_ok and np.isfinite([log_y.min(), log_y.max()]).all()):  # min, max keep NaN
        raise NumericsError(
            f"states.deficiency_evidence: a block transfer or filled entry of the "
            f"positive recursion is non-finite or 0 (rows 0..{L})"
        )
    return log_y


def _minimal_solution_profile(sector: SectorParams, M: int, N: int) -> np.ndarray:
    """log|w_0..w_M| of the decaying solution at i.

    The minimal solution is aligned with (T_N - i)^{-1} e_0 for N >> M;
    the contamination ~ sqrt(M/N) at the top of the fit window is at most
    10% at N >= 100 M, enough for a decade-scale slope.

    With u_m = (-i)^(m+1) w_m, row m of (T_N - i) u = e_0 reads
    b_{m-1} w_{m-1} - w_m - b_m w_{m+1} = delta_{m0}.  Read from the last
    row up, that is the positive recursion on b_{N-2}, ..., b_0 (with
    w_N = 0), so w has one sign and |w_m| = y_{N-1-m} / (y_{N-1} + b_0 y_{N-2}):
    row 0 reads |w_0| + b_0 |w_1| = 1.
    """
    b0 = _fill_off_diagonal(sector, np.zeros(1))[0]
    log_y = _positive_log_solution(sector, 0, N - 1, True, N - 1 - M)[::-1]
    return log_y - np.logaddexp(log_y[0], math.log(b0) + log_y[1])


def deficiency_evidence(sector: SectorParams, M: int) -> DeficiencyEvidence:
    """How many solutions are square-summable at spectral point i.

    Both fundamental solutions are tested (_flagged).  By Weyl's
    limit-point / limit-circle alternative the count at a non-real point is
    1 or 2: 2 when every solution is square-summable, 1 otherwise.  At
    count 1 the one square-summable solution is a combination of both
    fundamental solutions, neither of which is square-summable.  So one
    fundamental solution flagged not square-summable decides count 1 (k <=
    2 at every M, where the moment problem is determinate), and one flagged
    square-summable decides count 2 (k >= 3), the other being flagged the
    same way or undecided.  One flag of each kind contradicts the
    alternative and gives count None, not conclusive.  Only when both are
    undecided is the decaying combination, the minimal solution,
    constructed and tested the same way (count 1 if it is square-summable).
    It is constructed only while its contamination bound sqrt(M/N) is at
    most 10%, that is up to M = 20000; above it minimal_exponent is None
    and the evidence is not conclusive.  All solutions come from one
    positive recursion (_positive_log_solution).
    """
    if M < 5000:
        raise ValueError(f"states.deficiency_evidence: M must be >= 5000, got {M}")
    # polynomial kind: f_m = i^m y_m with y over b_0, b_1, ...; second kind:
    # f_0 = 0 and f_m = i^(m-1) y'_{m-1} / b_0 with y' over b_1, b_2, ...
    # b_{M-1}, the largest b that they read, is filled with b_0 so that an
    # overflowing b is refused first, at m = M - 1
    b0 = _fill_off_diagonal(sector, np.array([0.0, M - 1.0]))[0]
    second, exponent_second = _flagged(
        np.concatenate(([-np.inf], _positive_log_solution(sector, 1, M - 1) - math.log(b0)))
    )
    poly, exponent_polynomial = _flagged(_positive_log_solution(sector, 0, M))
    exponents, decided = (exponent_polynomial, exponent_second), {poly, second} - {None}
    if decided:  # one flag of each kind contradicts the alternative: no count
        count = None if len(decided) == 2 else 2 if True in decided else 1
        return DeficiencyEvidence(sector, M, count, *exponents, None, count is not None)
    N = min(_MINIMAL_ROWS_PER_M * M, _MAX_MINIMAL_ROWS)
    bound = math.sqrt(M / N)
    if N < _MINIMAL_ROWS_PER_M * M:
        return DeficiencyEvidence(sector, M, None, *exponents, None, False, bound)
    minimal, minimal_exponent = _flagged(_minimal_solution_profile(sector, M, N))
    if minimal:
        return DeficiencyEvidence(sector, M, 1, *exponents, minimal_exponent, True, bound)
    return DeficiencyEvidence(sector, M, None, *exponents, minimal_exponent, False, bound)
