"""Sector off-diagonals and the three-term recursion they generate.

The operator pair (a^k, a+^k) acts on the lattice of number states
|mk + kappa>, m = 0, 1, ...  Within one sector the matrix of a^k + a+^k
is tridiagonal with zero diagonal and off-diagonals

    b_m = sqrt((mk+kappa+1)(mk+kappa+2)...(mk+kappa+k)),

growing like k^(k/2) m^(k/2).  The eigenvalue problem in the scaled
spectral variable lambda' is the recursion

    b_m f_{m+1} - lambda' f_m + b_{m-1} f_{m-1} = 0,

solved forward here for both fundamental initial conditions.  Solutions
grow or decay sub-exponentially, so coefficients are stored as a unit
complex direction plus a real log-magnitude; cutoffs up to 1e5 stay
representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._compensated import comp_dot
from .errors import NumericsError
from .polynomials import hermite

# integer products above this bit length cannot be converted to float;
# the square root is then evaluated as exp of a log-domain sum
_LOG_SWITCH_BITS = 1000
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

_NEG_INF = float("-inf")
# below this many local maxima envelope_fit fits every finite point, and
# growth_profile flags a fit over fewer points as not ok
_ENVELOPE_POINTS = 20
_BUILD_CHUNK = 1 << 17  # entries of b per fill in OffDiagonalSequence.build


@dataclass(frozen=True)
class SectorParams:
    """Invariant subspace label: power k >= 1 and offset 0 <= kappa < k."""

    k: int
    kappa: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"jacobi.SectorParams: k must be >= 1, got {self.k}")
        if not 0 <= self.kappa < self.k:
            raise ValueError(
                f"jacobi.SectorParams: kappa must lie in [0, {self.k - 1}], got {self.kappa}"
            )


def off_diagonal_squared(sector: SectorParams, m: int) -> int:
    """Exact integer product (mk+kappa+1)...(mk+kappa+k) = b_m**2."""
    if m < 0:
        raise ValueError(f"jacobi.off_diagonal_squared: m must be >= 0, got {m}")
    return math.perm(m * sector.k + sector.kappa + sector.k, sector.k)


def off_diagonal(sector: SectorParams, m: int) -> float:
    """b_m, computed from the exact integer product before the square root."""
    prod = off_diagonal_squared(sector, m)
    if prod.bit_length() <= _LOG_SWITCH_BITS:
        return math.sqrt(prod)
    # log-domain fallback for huge m*k
    log_value = log_off_diagonal(sector, m)
    if log_value > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"jacobi.off_diagonal: b_m overflows binary64 at m={m} "
            f"(sector k={sector.k}, kappa={sector.kappa})"
        )
    return math.exp(log_value)


def log_off_diagonal(sector: SectorParams, m: int) -> float:
    """Natural log of b_m."""
    start = m * sector.k + sector.kappa + 1
    return 0.5 * math.fsum(math.log(f) for f in range(start, start + sector.k))


def _fill_off_diagonal(sector: SectorParams, b: np.ndarray) -> np.ndarray:
    """Overwrite b, a float64 array of any shape holding exact-integer
    indices m, with b_m, and return it.

    b_m = sqrt of the float product of its k factors: the first factor
    mk + kappa + 1 formed in place, the other k - 1 factors multiplied into
    it in place, in order (each factor is an exact integer below 2^53,
    stepped up by 1 in a second array), and the square root taken in
    place.  Only entries whose float product overflows are then set to
    exp(log_off_diagonal); NumericsError is raised when the largest such
    b_m itself exceeds binary64.  That is what off_diagonal returns there:
    a float product of k exact factors overflows only if the exact product
    exceeds 2^1023, so its bit length is past the _LOG_SWITCH_BITS = 1000
    of off_diagonal's exact-integer branch.  The error names
    OffDiagonalSequence.build, the public entry to this route."""
    k = sector.k
    b *= k
    b += sector.kappa + 1
    factor = b.copy() if k > 1 else None
    with np.errstate(over="ignore"):
        for _ in range(k - 1):
            factor += 1.0
            b *= factor
    np.sqrt(b, out=b)
    if factor is not None and math.isinf(b.max()):  # at k = 1, b_m = sqrt(m + 1)
        over = np.isinf(b)
        m_over = ((factor[over] - (sector.kappa + k)) / k).astype(np.int64).tolist()
        if log_off_diagonal(sector, max(m_over)) > _LOG_FLOAT_MAX:
            raise NumericsError(
                f"jacobi.OffDiagonalSequence.build: b_m overflows binary64 at "
                f"m = {max(m_over)} (sector k={sector.k}, kappa={sector.kappa})"
            )
        b[over] = [math.exp(log_off_diagonal(sector, m)) for m in m_over]
    return b


@dataclass(frozen=True)
class OffDiagonalSequence:
    """b_0 .. b_{M-1} for one sector, as a float array."""

    sector: SectorParams
    values: np.ndarray

    @classmethod
    def build(cls, sector: SectorParams, length: int) -> "OffDiagonalSequence":
        """b_m for m = 0..length - 1 by _fill_off_diagonal, a chunk at a time
        from the top, so that its factor copy is one chunk long; NumericsError
        when b_{length-1} exceeds binary64 (b_m increases with m)."""
        if length < 1:
            raise ValueError(
                f"jacobi.OffDiagonalSequence.build: length must be >= 1, got {length}"
            )
        values = np.arange(length, dtype=np.float64)
        for start in reversed(range(0, length, _BUILD_CHUNK)):
            _fill_off_diagonal(sector, values[start : start + _BUILD_CHUNK])
        return cls(sector, values)

    def __len__(self) -> int:
        return len(self.values)


def commutator_weight(k: int, n: int) -> int:
    """[a^k, a+^k] eigenvalue on |n>: (n+k)!/n! - n!/(n-k)!.

    The falling factorial is zero for n < k because a^k annihilates those
    states.  Exact integer arithmetic, so there is no overflow for any
    practical n, k.
    """
    if k < 1:
        raise ValueError(f"jacobi.commutator_weight: k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"jacobi.commutator_weight: n must be >= 0, got {n}")
    return math.perm(n + k, k) - math.perm(n, k)


class InitialKind(Enum):
    """The two fundamental initial conditions of the recursion."""

    POLYNOMIAL = "polynomial"  # f_{-1} = 0, f_0 = 1
    SECOND = "second"  # f_0 = 0, f_1 = 1/b_0


@dataclass(frozen=True)
class RecursionSolution:
    """f_0..f_M in scaled storage: f_m = directions[m] * exp(log_abs[m]).

    directions are unit complex numbers (0.0 for an exact zero, where
    log_abs is -inf).  max_residual is the largest relative three-term
    residual observed while solving.
    """

    sector: SectorParams
    lambda_prime: complex
    kind: InitialKind
    directions: np.ndarray
    log_abs: np.ndarray
    max_residual: float

    def __len__(self) -> int:
        return len(self.directions)

    def value(self, m: int) -> complex:
        return self.directions[m] * math.exp(self.log_abs[m])

    def values(self) -> np.ndarray:
        """Plain complex coefficients; overflows to inf if log_abs > ~709."""
        with np.errstate(over="ignore"):
            return self.directions * np.exp(self.log_abs)


def solve_recursion(
    sector: SectorParams,
    lambda_prime: complex,
    M: int,
    kind: InitialKind = InitialKind.POLYNOMIAL,
) -> RecursionSolution:
    """Forward solve of the three-term recursion up to index M.

    Each step evaluates lambda' f_m - b_{m-1} f_{m-1} with compensated
    products and sums (cancellation near zeros of f_m would otherwise eat
    digits), in a frame rescaled by the running log-magnitude.
    """
    if M < 1:
        raise ValueError(f"jacobi.solve_recursion: M must be >= 1, got {M}")
    lam = complex(lambda_prime)
    b = OffDiagonalSequence.build(sector, M).values

    dirs = np.zeros(M + 1, dtype=np.complex128)
    logs = np.full(M + 1, _NEG_INF)

    if kind is InitialKind.POLYNOMIAL:
        dirs[0], logs[0] = 1.0, 0.0
        f1 = lam / b[0]
        if f1 != 0:
            dirs[1], logs[1] = f1 / abs(f1), math.log(abs(f1))
    elif kind is InitialKind.SECOND:
        dirs[1], logs[1] = 1.0, -math.log(b[0])
    else:
        raise ValueError(f"jacobi.solve_recursion: unknown initial kind: {kind!r}")

    max_res = 0.0
    for m in range(1, M):
        scale = max(logs[m], logs[m - 1])  # never -inf: no two consecutive f are 0
        fm = dirs[m] * math.exp(logs[m] - scale)
        fp = dirs[m - 1] * math.exp(logs[m - 1] - scale)
        bp = b[m - 1]
        wr = comp_dot(((lam.real, fm.real), (-lam.imag, fm.imag), (-bp, fp.real)))
        wi = comp_dot(((lam.real, fm.imag), (lam.imag, fm.real), (-bp, fp.imag)))
        mag = math.hypot(wr, wi)
        if mag == 0.0:
            pass  # exact node, e.g. odd coefficients at lambda' = 0
        else:
            logs[m + 1] = scale + math.log(mag) - math.log(b[m])
            dirs[m + 1] = complex(wr, wi) / mag

        # relative residual of the step, evaluated in the same frame
        fnext = dirs[m + 1] * math.exp(logs[m + 1] - scale) * b[m]
        res = abs(fnext - complex(wr, wi))
        size = abs(fnext) + abs(lam * fm) + abs(bp * fp)
        if size > 0.0:
            max_res = max(max_res, res / size)

    return RecursionSolution(sector, lam, kind, dirs, logs, max_res)


# ---------------------------------------------------------------------------
# growth diagnostics


@dataclass(frozen=True)
class GrowthProfile:
    """Partial sums of |f_m|^2 (in log form) and a power-law envelope fit."""

    sector: SectorParams
    lambda_prime: complex
    kind: InitialKind
    M: int
    log_abs: np.ndarray
    log_partial_sums: np.ndarray
    exponent: float | None
    envelope_count: int
    fit_ok: bool

    def partial_sum(self, m: int) -> float:
        return math.exp(self.log_partial_sums[m])

    def cauchy_ratio(self) -> float:
        """(S_M - S_{M/2}) / S_M, by the module's cauchy_ratio."""
        return cauchy_ratio(self.log_abs)


def envelope_fit(log_abs: np.ndarray) -> tuple[float | None, int]:
    """Least-squares slope of log|f_m| vs log m over the final decade
    [M/10, M] of log_abs = log|f_0..f_M|.

    Only local maxima of |f_m| enter the fit, which skips the near-zero
    nodes of oscillatory solutions; monotone (node-free) sequences have no
    interior maxima, so the fit then falls back to every finite point.
    A local maximum is a finite entry at or above both neighbours, the
    right neighbour of f_M counting as -inf; the selection is done with
    array masks, each entry compared with its right neighbour in place; a
    fit over every point of the window needs no index array.  The slope is
    sum(dx dy) / sum(dx^2) over the centered x = log m and y = log|f_m|,
    with no Vandermonde matrix.  Both sums are numpy's pairwise sums of the
    rounded products, whose order is fixed: a BLAS dot product splits
    across threads and so moves its last bits with the thread count.
    (Exact math.fsum sums took 0.19 s of the 0.66 s of `deficiency --k 1
    --M 2000000`, whose node-free fits run over 1.8e6 points each.)
    Returns (slope, number of points); slope is None below 2 points.
    """
    M = len(log_abs) - 1
    lo = max(M // 10, 1)
    v = log_abs[lo:]
    finite = v != _NEG_INF
    peak = v >= log_abs[lo - 1 : M]
    peak[:-1] &= v[:-1] >= v[1:]
    peak &= finite
    idx = np.flatnonzero(peak)
    if len(idx) < _ENVELOPE_POINTS:
        idx = None if finite.all() else np.flatnonzero(finite)
    del finite, peak  # before x and y: the masks would add to the fit's peak
    if idx is None:
        xs, ys = np.log(np.arange(lo, M + 1.0)), v.copy()
    else:
        idx += lo
        xs, ys = np.log(idx), log_abs[idx]
    if len(xs) < 2:
        return None, len(xs)
    xs -= xs.mean()
    ys -= ys.mean()
    ys *= xs
    xs *= xs
    return float(np.sum(ys) / np.sum(xs)), len(ys)


def log_partial_sums_of_squares(log_abs: np.ndarray) -> np.ndarray:
    """log(S_j) with S_j = sum_{m<=j} |f_m|^2, done without leaving log space."""
    return np.logaddexp.accumulate(2.0 * log_abs)


def cauchy_ratio(log_abs: np.ndarray) -> float:
    """(S_M - S_{M/2}) / S_M with S_j = sum_{m<=j} |f_m|^2, from
    log_abs = log|f_0..f_M|; small means the sum has stabilized.

    S_{M/2} and S_M - S_{M/2} are sums of exp(2 log|f_m| - 2 max log|f|),
    each term at most 1 and the largest exactly 1, over entries 0..M/2 and
    the rest, with half of 2 log_abs alive at a time.  (Two np.logaddexp
    reductions, which keep the bits of log_partial_sums_of_squares, an exp
    and a log1p per entry, took 0.8 ms against 0.04 to 0.06 ms at M = 2e4,
    and 50 to 82 ms against 5 to 31 ms at M = 2e6, on one Xeon core.)"""
    split = (len(log_abs) - 1) // 2 + 1  # entries 0..M/2
    top = 2.0 * float(np.max(log_abs))
    sums = []
    for part in (log_abs[:split], log_abs[split:]):
        terms = np.multiply(part, 2.0)
        terms -= top
        sums.append(float(np.sum(np.exp(terms, out=terms))))
    half, rest = sums
    return rest / (half + rest)


def growth_profile(
    sector: SectorParams,
    lambda_prime: complex,
    M: int,
    kind: InitialKind = InitialKind.POLYNOMIAL,
) -> GrowthProfile:
    """Solve to M and profile the solution by envelope_fit, the fit flagged
    not-ok below _ENVELOPE_POINTS points."""
    if M < 100:
        raise ValueError(f"jacobi.growth_profile: M must be >= 100, got {M}")
    log_abs = solve_recursion(sector, lambda_prime, M, kind).log_abs
    exponent, count = envelope_fit(log_abs)
    return GrowthProfile(
        sector=sector,
        lambda_prime=complex(lambda_prime),
        kind=kind,
        M=M,
        log_abs=log_abs,
        log_partial_sums=log_partial_sums_of_squares(log_abs),
        exponent=exponent,
        envelope_count=count,
        fit_ok=count >= _ENVELOPE_POINTS,
    )


# ---------------------------------------------------------------------------
# k = 1 closed form


def hermite_identity_check(lam: complex, M: int) -> float:
    """Max relative deviation of the k=1 solution from H_m(lam/sqrt 2)/sqrt(2^m m!).

    The comparison side takes H_m from polynomials.hermite, the raw Hermite
    recursion (independent of the b_m machinery), with factorial scalings
    handled in log space; M up to ~100 is the intended range (hermite
    raises OverflowError once H_m itself leaves binary64).
    """
    sector = SectorParams(1, 0)
    sol = solve_recursion(sector, lam, M, InitialKind.POLYNOMIAL)
    x = complex(lam) / math.sqrt(2.0)
    worst = 0.0
    for m in range(M + 1):
        norm = 0.5 * (m * math.log(2.0) + math.lgamma(m + 1))
        hv = hermite(m, x) * math.exp(-norm)
        fv = sol.value(m)
        if hv == 0 and fv == 0:
            continue  # both identically zero (odd m at lam=0)
        worst = max(worst, abs(fv - hv) / max(abs(fv), abs(hv)))
    return worst
