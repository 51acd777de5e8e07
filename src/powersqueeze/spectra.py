"""Eigenvalues of truncated (optionally boundary-modified) sector Jacobi
matrices by Sturm-sequence bisection, seeded by LAPACK.

Every eigenvalue is returned as the midpoint of a Sturm-count bisection
bracket, with a fixed iteration count, so the result carries a bracket
certificate and does not depend on the LAPACK build.  LAPACK
(`scipy.linalg.eigh_tridiagonal`) only decides which Sturm counts need
computing: one Sturm pass over the 2n shifts seed_j -/+ delta certifies a
bracket [a_j, b_j] with count(a_j) <= j < count(b_j), widening delta where
it does not (an index never certified bisects the whole Gershgorin range).
The bisection then replays unchanged, and a midpoint not strictly inside
both [a_j, b_j] and its own bracket [lo_j, hi_j] (certified the same way)
is decided without a count: the floating-point Sturm count is monotone in
the shift (Demmel, Dhillon & Ren, ETNA 3, 1995), so mid <= a_j gives
count(mid) <= j and mid >= b_j gives count(mid) >= j + 1, the verdicts a
count would give.  The midpoints are therefore bit-identical to plain
bisection, and the counts still taken run together over one vector of
shifts, so the O(n) recurrence runs once per step that needs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .jacobi import OffDiagonalSequence, SectorParams


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real symmetric tridiagonal matrix with strictly positive off-diagonals."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=np.float64))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=np.float64))
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must have length n-1")
        if len(self.offdiag) and np.min(self.offdiag) <= 0.0:
            raise ValueError("off-diagonal entries must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def truncation(
        cls, sector: SectorParams, n: int, theta: float = 0.0
    ) -> "TridiagonalMatrix":
        """n x n truncation; theta != 0 puts theta * b_{n-1} in the last
        diagonal slot as a boundary-condition parameter."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        b = OffDiagonalSequence.build(sector, n).values
        diag = np.zeros(n)
        diag[-1] = theta * b[n - 1]
        return cls(diag=diag, offdiag=b[: n - 1])

    def gershgorin(self) -> tuple[float, float]:
        radius = np.zeros(self.n)
        if self.n > 1:
            radius[:-1] += self.offdiag
            radius[1:] += self.offdiag
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


def _sturm_counts(T: TridiagonalMatrix, xs: np.ndarray) -> np.ndarray:
    """Eigenvalues strictly below each shift, via the LDL^T pivot signs."""
    off_sq = T.offdiag**2
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(off_sq)) if len(off_sq) else 1.0)
    d = T.diag[0] - xs
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    counts = (d < 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, T.n):
            d = (T.diag[i] - xs) - off_sq[i - 1] / d
            d = np.where(np.abs(d) < pivmin, -pivmin, d)
            counts += d < 0
    return counts


def sturm_count(T: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of T strictly below x."""
    return int(_sturm_counts(T, np.array([x], dtype=np.float64))[0])


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of one truncation, with bisection metadata."""

    eigenvalues: np.ndarray
    n: int
    bisect_tol: float
    boundary_theta: float | None = None
    sturm_passes: int = 0  # Sturm-count passes, the bracket certificate included
    # widest final bracket; wider than bisect_tol only where no binary64
    # number lies inside it
    max_bracket: float | None = None

    def central(self, count: int) -> np.ndarray:
        """The count smallest-magnitude eigenvalues, ascending by value.

        Ties between +x and -x are broken toward the negative one first so
        the selection is deterministic.
        """
        order = np.lexsort((self.eigenvalues, np.abs(self.eigenvalues)))
        return np.sort(self.eigenvalues[order[:count]])


def _seed_brackets(
    T: TridiagonalMatrix, tol: float, span: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Certified brackets a_j <= lambda_j <= b_j around the LAPACK eigenvalues.

    A bracket is kept only when count(a_j) <= j < count(b_j).  Index j
    starts at half-width max(delta, 2 ulp(seed_j)), since a narrower bracket
    rounds to a point; uncertified indices are retried with a 16x wider
    half-width, and once that exceeds span they keep (-inf, inf).  Returns
    a, b and the Sturm passes spent.
    """
    import scipy.linalg  # loaded on first use: it doubles every CLI start

    n = T.n
    a = np.full(n, -np.inf)
    b = np.full(n, np.inf)
    try:
        seed = T.diag if n == 1 else scipy.linalg.eigh_tridiagonal(
            T.diag, T.offdiag, eigvals_only=True
        )
    except np.linalg.LinAlgError:  # no seed: every index bisects the full range
        return a, b, 0
    eps = np.finfo(np.float64).eps
    delta = np.maximum(
        min(tol / 2, 8 * eps * max(float(np.max(np.abs(seed))), 1.0)),
        2 * np.spacing(np.abs(seed)),
    )
    todo = np.arange(n)
    passes = 0
    while len(todo := todo[delta[todo] <= span]):
        below, above = seed[todo] - delta[todo], seed[todo] + delta[todo]
        counts = _sturm_counts(T, np.concatenate([below, above]))
        passes += 1
        ok = (counts[: len(todo)] <= todo) & (counts[len(todo) :] > todo)
        a[todo[ok]] = below[ok]
        b[todo[ok]] = above[ok]
        todo = todo[~ok]
        delta[todo] *= 16
    return a, b, passes


def eigenvalues_bisect(
    T: TridiagonalMatrix, tol: float, boundary_theta: float | None = None
) -> SpectrumReport:
    """All n eigenvalues to absolute tolerance tol.

    Per-eigenvalue brackets [lo_j, hi_j] keep the invariant
    count(lo_j) <= j < count(hi_j); with all off-diagonals positive the
    eigenvalues are simple, so each final bracket isolates exactly one.
    Where binary64 cannot resolve tol at |lambda_j| the bracket stops at
    two adjacent doubles, wider than tol.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    n = T.n
    glo, ghi = T.gershgorin()
    span = max(ghi - glo, tol)
    glo -= 1e-3 * span
    ghi += 1e-3 * span
    lo = np.full(n, glo)
    hi = np.full(n, ghi)
    ranks = np.arange(1, n + 1)
    width = ghi - glo  # 0 where the widening is below the spacing at a 1 x 1 diagonal
    iterations = int(math.ceil(math.log2(width / tol))) + 2 if width > 0 else 0
    a, b, passes = _seed_brackets(T, tol, width)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        # [lo_j, hi_j] is certified as well: mid equals lo_j or hi_j once no
        # double lies between them
        go_down = mid >= np.minimum(b, hi)  # at least j+1 eigenvalues below mid
        open_ = (mid > np.maximum(a, lo)) & ~go_down
        if np.any(open_):
            go_down[open_] = _sturm_counts(T, mid[open_]) >= ranks[open_]
            passes += 1
        hi = np.where(go_down, mid, hi)
        lo = np.where(go_down, lo, mid)
    if np.any((hi - lo > tol) & (np.nextafter(lo, np.inf) < hi)):
        raise NumericsError(
            "spectra.eigenvalues_bisect: bracket did not shrink to tolerance"
        )
    ev = 0.5 * (lo + hi)
    if np.any(np.diff(ev) < -tol):
        raise NumericsError("spectra.eigenvalues_bisect: bracket ordering lost")
    return SpectrumReport(
        eigenvalues=ev,
        n=n,
        bisect_tol=tol,
        boundary_theta=boundary_theta,
        sturm_passes=passes,
        max_bracket=float(np.max(hi - lo)),
    )


def extension_sweep(
    sector: SectorParams, n: int, thetas, tol: float
) -> list[SpectrumReport]:
    """One spectrum per boundary parameter theta at truncation size n."""
    if n < 50:
        raise ValueError(f"n must be >= 50, got {n}")
    reports = []
    for theta in thetas:
        T = TridiagonalMatrix.truncation(sector, n, theta=float(theta))
        reports.append(eigenvalues_bisect(T, tol, boundary_theta=float(theta)))
    return reports


def nearest_distance(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each target, the distance to the nearest entry of sorted values."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    pos = np.searchsorted(values, targets)
    out = np.full(targets.shape, np.inf)
    left_ok = pos > 0
    out[left_ok] = np.abs(targets[left_ok] - values[pos[left_ok] - 1])
    right_ok = pos < len(values)
    out[right_ok] = np.minimum(
        out[right_ok], np.abs(values[pos[right_ok]] - targets[right_ok])
    )
    return out


def strict_interlacing(small: np.ndarray, large: np.ndarray) -> bool:
    """Strict Cauchy interlacing of an n-list between an (n+1)-list."""
    small = np.sort(small)
    large = np.sort(large)
    if len(large) != len(small) + 1:
        raise ValueError("interlacing check needs sizes n and n+1")
    return bool(np.all(large[:-1] < small) and np.all(small < large[1:]))


@dataclass(frozen=True)
class SpectrumDiagnostics:
    min_spacing_near_zero: float | None
    cross_theta_min_gap: float | None
    interlacing: tuple[tuple[int, int, bool], ...]


def spectrum_diagnostics(reports, window: float) -> SpectrumDiagnostics:
    """Summary statistics over several reports.

    min_spacing_near_zero: smallest consecutive spacing among eigenvalues
    inside [-window, window] (over all reports).  cross_theta_min_gap:
    smallest distance from any in-window eigenvalue of one report to the
    full spectrum of another (feeding the same theta twice therefore gives
    zero).  interlacing: strict Cauchy interlacing flags for every pair of
    reports whose sizes differ by one.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two reports")

    spacing = math.inf
    for rep in reports:
        inside = rep.eigenvalues[np.abs(rep.eigenvalues) <= window]
        if len(inside) >= 2:
            spacing = min(spacing, float(np.min(np.diff(np.sort(inside)))))
    min_spacing = None if math.isinf(spacing) else spacing

    cross = math.inf
    for i, a in enumerate(reports):
        for brep in reports[i + 1 :]:
            inside = a.eigenvalues[np.abs(a.eigenvalues) <= window]
            if len(inside):
                cross = min(cross, float(np.min(nearest_distance(brep.eigenvalues, inside))))
    cross_gap = None if math.isinf(cross) else cross

    inter = []
    for i, a in enumerate(reports):
        for brep in reports[i + 1 :]:
            if abs(a.n - brep.n) == 1:
                small, large = (a, brep) if a.n < brep.n else (brep, a)
                inter.append(
                    (small.n, large.n, strict_interlacing(small.eigenvalues, large.eigenvalues))
                )
    return SpectrumDiagnostics(
        min_spacing_near_zero=min_spacing,
        cross_theta_min_gap=cross_gap,
        interlacing=tuple(inter),
    )
