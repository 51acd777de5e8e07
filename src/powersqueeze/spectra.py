"""Eigenvalues of truncated (optionally boundary-modified) sector Jacobi
matrices by Sturm-sequence bisection, seeded by LAPACK.

Every eigenvalue is returned as the midpoint of a Sturm-count bisection
bracket, with a fixed iteration count, so the result carries a bracket
certificate and does not depend on the LAPACK build.  LAPACK eigenvalues
only decide which Sturm counts need computing.  They come from the LAPACK
in numpy's bundled OpenBLAS, which `import numpy` has loaded, called with
ctypes: a matrix with an all-zero diagonal (every truncation at theta = 0)
is seeded with -/+ the singular values of its bidiagonal half, from dqds
(`dlasq1`), which are relatively accurate and 4 times cheaper than
`dsterf` at n = 1315; any other matrix, or one where `dlasq1` fails, from
`dsterf`.  Where numpy bundles no such library, scipy's `dsterf` seeds
every matrix.  One Sturm pass over
the 2n shifts seed_j -/+ delta_j certifies a bracket [a_j, b_j] with
count(a_j) <= j < count(b_j), widening delta_j where it does not (an index
never certified, or every index when LAPACK fails, bisects the whole
Gershgorin range).  Each index then replays its own bisection steps in
Python floats, and a midpoint not strictly inside both [a_j, b_j] and
its own bracket [lo_j, hi_j] (certified the same way) is
decided without a count: the floating-point Sturm count is monotone in the
shift (Demmel, Dhillon & Ren, ETNA 3, 1995), so mid <= a_j gives
count(mid) <= j and mid >= b_j gives count(mid) >= j + 1, the verdicts a
count would give.  An index that needs a count waits for the others, and
once every unfinished index waits one pass counts them all, so the passes
number the most counts any one index needs.  A pass over many shifts also
counts, for each waiting index, the next midpoint to need a count in each
half of its bracket (a one-level lookahead), so about two counts are
settled per pass; the counts of the last pass are looked up by shift
before an index waits.  A shift's count does not depend on the other
shifts of its pass, so the midpoints are bit-identical to plain bisection.
At an all-zero diagonal (every truncation at theta = 0) S T S = -T with
S = diag((-1)^m), so the spectrum is symmetric, lambda_{n-1-j} =
-lambda_j, and only the indices n//2 .. n-1 are certified and bisected;
index n-1-j takes [-hi_j, -lo_j].  The pivots at -x are the pivots at x
negated, so count(-x) = n - count(x) and the mirror has plain bisection's
bits, unless a pivot is tiny (|d| < pivmin, replaced by -pivmin; x = 0
always meets one).  Where a count on j's path met a tiny pivot, the
partner n-1-j is bisected on its own from that step, and where a shift
certifying j's bracket did, the partner is certified around its own seed
and bisected in full; both in the same replay, from the one LAPACK call.
A pass over a few shifts runs the O(n) recurrence per shift in Python
floats.  A pass over many runs it on the negated pivots, two numpy calls
per row (at a zero diagonal entry) over the shift vector into a block of
rows of at most 1 MiB, and once per block counts the negative pivots and
finds the tiny ones; rounding to nearest is symmetric, so these are bit
for bit the negated pivots of the Python float loop, and a shift that met
a tiny pivot is recounted by that loop, which replaces the pivot.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
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
            raise ValueError("spectra.TridiagonalMatrix: offdiag must have length n-1")
        for name, entries in (("diagonal", self.diag), ("off-diagonal", self.offdiag)):
            if not np.isfinite(entries).all():
                raise ValueError(f"spectra.TridiagonalMatrix: non-finite {name} entry")
        if len(self.offdiag) and np.min(self.offdiag) <= 0.0:
            raise ValueError(
                "spectra.TridiagonalMatrix: off-diagonal entries must be strictly positive"
            )

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
            raise ValueError(f"spectra.TridiagonalMatrix.truncation: n must be >= 1, got {n}")
        b = OffDiagonalSequence.build(sector, n).values
        diag = np.zeros(n)
        diag[-1] = float(theta) * float(b[n - 1])  # an overflow is inf, not a warning
        return cls(diag=diag, offdiag=b[: n - 1])

    def gershgorin(self) -> tuple[float, float]:
        radius = np.zeros(self.n)
        if self.n > 1:
            radius[:-1] += self.offdiag
            radius[1:] += self.offdiag
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


# Up to this many shifts a pass is cheaper as a Python float loop per shift
# than as the blocked numpy pass: the two cost the same at 16 to 20 shifts
# for n = 41, 308 and 1315, and at 48 shifts the numpy pass is 2.2 to 2.8
# times faster.
_SCALAR_SHIFTS = 16
# A many-shift pass fills a block of at most this many bytes of pivots (at
# least one row) before it counts and tests them.  At n = 1315 blocks of
# 4 to 8 rows ran 20000 shifts in half the time of one-row blocks, and
# from 200 to 8000 shifts 256 KiB and 1 MiB blocks ran alike (one Xeon
# core, 2 MiB L2).
_BLOCK_BYTES = 1 << 20
# The Sturm recurrence reads the squared off-diagonals, which overflow to
# inf from here on: at k = 80, n = 300 that put the middle eigenvalue at
# 2.5e175 instead of 2.7e59.
_MAX_OFFDIAG = math.sqrt(sys.float_info.max)


def _sturm_counts(T: TridiagonalMatrix, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues strictly below each shift, via the LDL^T pivot signs, and
    which shifts met a tiny pivot (|d| < pivmin).

    A shift's count does not depend on the pass it shares.  A few shifts
    are counted one by one by `_sturm_count_scalar`.  A pass over many
    writes the negated pivots p = -d row by row into a block of rows: at a
    zero diagonal entry p_i = x - off_sq/p_{i-1} is one divide and one
    subtract, and as rounding to nearest is symmetric, p_i is exactly -d_i
    of the scalar path's d_i = (diag_i - x) - off_sq/d_{i-1}.  Once per
    block the pass counts p > -pivmin (the scalar path's d < pivmin) and
    flags the shifts with |p| < pivmin.  No pivot is replaced inside a
    block, so a flagged shift is recounted by `_sturm_count_scalar`, which
    replaces it; every other shift met no pivot that it would replace.
    """
    diag, off_sq = T.diag.tolist(), (T.offdiag**2).tolist()
    pivmin = float(np.finfo(np.float64).tiny) * max(1.0, max(off_sq, default=1.0))
    if len(xs) <= _SCALAR_SHIFTS:
        counted = np.array(
            [_sturm_count_scalar(diag, off_sq, pivmin, x) for x in xs.tolist()],
            dtype=np.int64,
        ).reshape(-1, 2)
        return counted[:, 0], counted[:, 1].astype(bool)
    n, width = T.n, len(xs)
    rows = min(n, max(1, _BLOCK_BYTES // (8 * width)))
    block = np.empty((rows, width))
    views = list(block)
    # x - diag_i at a nonzero diagonal entry while its row is formed, and
    # the block's per-column counts and masks while they are tallied, share
    # one scratch area, so with one-row blocks a pass holds 25 bytes per
    # shift in all
    scratch = np.empty(max(8, 4 + 2 * rows) * width, dtype=np.uint8)
    shifted = scratch[: 8 * width].view(np.float64)
    in_block = scratch[: 4 * width].view(np.int32)
    below, tiny = scratch[4 * width : (4 + 2 * rows) * width].view(bool).reshape(2, rows, width)
    counts = np.zeros(width, dtype=np.int64)
    flagged = np.zeros(width, dtype=bool)
    p = np.subtract(xs, diag[0], out=views[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            filled = min(rows, n - start)
            first = 0 if start else 1  # row 0 of the first block holds p_0
            for row, i in zip(views[first:filled], range(start + first, start + filled)):
                np.divide(off_sq[i - 1], p, out=row)
                if diag[i]:
                    np.subtract(np.subtract(xs, diag[i], out=shifted), row, out=row)
                else:
                    np.subtract(xs, row, out=row)
                p = row
            pivots, b, t = block[:filled], below[:filled], tiny[:filled]
            np.greater(pivots, -pivmin, out=b)
            np.less(pivots, pivmin, out=t)
            np.logical_and(t, b, out=t)
            if t.any():
                flagged |= t.any(axis=0)
            counts += np.add.reduce(b, axis=0, out=in_block)
    for j in np.flatnonzero(flagged):
        counts[j] = _sturm_count_scalar(diag, off_sq, pivmin, float(xs[j]))[0]
    return counts, flagged


def _sturm_count_scalar(diag: list, off_sq: list, pivmin: float, x: float) -> tuple[int, bool]:
    """`_sturm_counts` at one shift, in Python floats: the count, and
    whether a pivot was tiny.

    A pivot d is counted when d < pivmin, which is d < 0 after the |d| <
    pivmin -> -pivmin substitution.  No pivot is 0, and float division
    overflows to +/-inf without raising, as numpy does.
    """
    d = diag[0] - x
    tiny = abs(d) < pivmin
    if tiny:
        d = -pivmin
    count = 1 if d < 0 else 0
    for di, e in zip(diag[1:], off_sq):
        d = (di - x) - e / d
        if d < pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
                tiny = True
    return count, tiny


def _refuse_overflowing_squares(T: TridiagonalMatrix, caller: str) -> None:
    """NumericsError naming spectra.caller where an off-diagonal square
    overflows: the Sturm recurrence would count from inf."""
    if T.n > 1 and (top := float(np.max(T.offdiag))) >= _MAX_OFFDIAG:
        raise NumericsError(
            f"spectra.{caller}: off-diagonal entry {top!r} is at least "
            f"sqrt(max double) {_MAX_OFFDIAG!r}: its square overflows"
        )


def sturm_count(T: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of T strictly below x.

    Raises NumericsError where an off-diagonal entry is at least
    sqrt(max double), as `eigenvalues_bisect` does.
    """
    _refuse_overflowing_squares(T, "sturm_count")
    return int(_sturm_counts(T, np.array([x], dtype=np.float64))[0][0])


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


# The relative half-width, in eps |seed_j|, that a seed bracket starts at
# (see `_seed_brackets`): at k = 1..40 and n = 41..1601, against
# eigenvalues bisected to adjacent doubles, dsterf's seeds were 1.5 to 11
# eps |lambda_j| off in the median and up to 104 eps, dlasq1's 0.7 to 3.4
# eps in the median and up to 32 eps
_STERF_WIDTH = 32
_BIDIAGONAL_WIDTH = 8


def _bundled_library() -> str | None:
    """The path of the OpenBLAS in numpy's wheel, `numpy.libs/libscipy_openblas64_*`
    beside the package, which `import numpy` loads; None where there is none."""
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    return min(glob.glob(os.path.join(libs, "libscipy_openblas64_*")), default=None)


@functools.cache
def _bundled_lapack():
    """`_bundled_library` opened with ctypes, with its 64-bit-integer
    `scipy_dsterf_64_` and `scipy_dlasq1_64_` declared as functions of
    pointers; None where the library or either symbol is missing."""
    import ctypes

    if (path := _bundled_library()) is None:
        return None
    try:
        lib = ctypes.CDLL(path)
        for routine, pointers in ((lib.scipy_dsterf_64_, 4), (lib.scipy_dlasq1_64_, 5)):
            routine.argtypes, routine.restype = [ctypes.c_void_p] * pointers, None
    except (OSError, AttributeError):
        return None
    return lib


def _call(routine, n: int, buf: np.ndarray, *offsets: int) -> int:
    """`routine`(n, pointers into buf at these entry offsets, info); its info."""
    ints = np.array([n, 0], dtype=np.int64)  # n, info
    at, base = ints.ctypes.data, buf.ctypes.data
    routine(at, *(base + 8 * i for i in offsets), at + 8)
    return int(ints[1])


def _dsterf(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK dsterf: the eigenvalues of the tridiagonal matrix with diagonal
    d and off-diagonal e (one entry fewer), ascending, and its info."""
    n, buf = len(d), np.concatenate([d, e], dtype=np.float64)  # e is overwritten
    return buf[:n], _call(_bundled_lapack().scipy_dsterf_64_, n, buf, 0, n)


def _dlasq1(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK dlasq1 (dqds): the singular values of the bidiagonal matrix
    with diagonal d and off-diagonal e (one entry fewer), decreasing, and
    its info.  They are determined to high relative accuracy (Demmel &
    Kahan 1990), and dqds computes them so (Fernando & Parlett 1994)."""
    m = len(d)
    buf = np.concatenate([d, e, np.zeros(4 * m + 1)], dtype=np.float64)  # work: 4 m entries
    return buf[:m], _call(_bundled_lapack().scipy_dlasq1_64_, m, buf, 0, m, 2 * m)


def _bidiagonal_seed(offdiag: np.ndarray) -> np.ndarray | None:
    """The eigenvalues of the zero-diagonal matrix with these off-diagonals,
    ascending, or None where dlasq1 fails or returns a non-finite value.

    Ordering the rows even first, then odd, makes the matrix [[0, B],
    [B^T, 0]] with B bidiagonal: diagonal b_0, b_2, ..., off-diagonal b_1,
    b_3, ....  Its eigenvalues are -/+ the singular values of B.  At odd n,
    B has one row more than columns and is padded with a zero column; the
    zero singular value that adds is the zero eigenvalue, once.
    """
    n = len(offdiag) + 1
    d = np.zeros((n + 1) // 2)
    d[: n // 2] = offdiag[0::2]
    sigma, info = _dlasq1(d, offdiag[1::2])
    if info != 0 or not np.isfinite(sigma).all():
        return None
    return np.concatenate([-sigma, sigma[::-1][n % 2 :]])


def _lapack_seed(T: TridiagonalMatrix) -> tuple[np.ndarray, int] | None:
    """LAPACK's eigenvalues of T, ascending, and the relative half-width in
    eps that their brackets start at; None where LAPACK fails.

    The diagonal at n = 1.  Otherwise numpy's bundled LAPACK
    (`_bundled_lapack`): at an all-zero diagonal, -/+ the singular values
    of T's bidiagonal half from dlasq1 (`_bidiagonal_seed`), O(n) per dqds
    sweep, 4 times cheaper than dsterf at n = 1315 and relatively
    accurate; otherwise, or where dlasq1 fails, dsterf (info != 0 gives
    None).  Where numpy bundles none, scipy's `dsterf` seeds every matrix.
    The seed only decides which Sturm counts run, never an eigenvalue's
    bits.
    """
    if T.n == 1:
        return T.diag, _STERF_WIDTH
    if _bundled_lapack() is None:
        from scipy.linalg import lapack

        seed, info = lapack.dsterf(T.diag, T.offdiag)
    elif not T.diag.any() and (seed := _bidiagonal_seed(T.offdiag)) is not None:
        return seed, _BIDIAGONAL_WIDTH
    else:
        seed, info = _dsterf(T.diag, T.offdiag)
    return (seed, _STERF_WIDTH) if info == 0 else None


def _seed_brackets(
    T: TridiagonalMatrix, tol: float, span: float, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Certified brackets a_j <= lambda_j <= b_j around the LAPACK
    eigenvalues, for these indices.

    A bracket is kept only when count(a_j) <= j < count(b_j).  Index j
    starts at half-width max(delta, w eps |seed_j|), with w from
    `_lapack_seed`.  dsterf's error is about eps max|seed| near 0 and up
    to about 100 eps |seed_j| at large |seed_j|, 2.6 to 11 eps in the
    median at n >= 300, so w = 32 certifies most indices in the first
    pass.  dlasq1's seeds are relatively accurate, up to 3.4 eps in the
    median and 32 eps at worst, so w = 8 certifies most of them; a
    narrower start leaves fewer bisection steps inside the bracket, but
    w = 4 took one pass more at k = 4, n = 1315, and w = 32 was slower at
    n >= 888.  Uncertified indices are retried with a 4x wider half-width,
    and once that exceeds span they keep (-inf, inf).  An index j whose
    bracket a shift with a tiny pivot certified brings its partner
    n - 1 - j into the next pass, where indices lack it: `_replay` mirrors
    the bracket of an index whose partner is missing, which needs
    count(-x) = n - count(x) at a_j and b_j.  Returns a, b, the Sturm
    passes spent and the indices with the partners brought in.
    """
    n = T.n
    a = np.full(n, -np.inf)
    b = np.full(n, np.inf)
    seeded = _lapack_seed(T)
    if seeded is None:  # no seed: every index bisects the full range
        return a, b, 0, indices
    seed, width = seeded
    eps = np.finfo(np.float64).eps
    delta = np.maximum(
        min(tol / 2, 8 * eps * max(float(np.max(np.abs(seed))), 1.0)),
        width * eps * np.abs(seed),
    )
    member = np.zeros(n, dtype=bool)
    member[indices] = True
    todo = indices
    passes = 0
    while len(todo := todo[delta[todo] <= span]):
        below, above = seed[todo] - delta[todo], seed[todo] + delta[todo]
        counts, tiny = _sturm_counts(T, np.concatenate([below, above]))
        passes += 1
        m = len(todo)
        ok = (counts[:m] <= todo) & (counts[m:] > todo)
        a[todo[ok]] = below[ok]
        b[todo[ok]] = above[ok]
        partners = n - 1 - todo[ok & (tiny[:m] | tiny[m:])]
        partners = partners[~member[partners]]
        member[partners] = True
        todo = todo[~ok]
        delta[todo] *= 4
        todo = np.concatenate([todo, partners])
    return a, b, passes, np.flatnonzero(member)


def _advance(l: float, h: float, s: int, aj: float, bj: float) -> tuple[float, float, int]:
    """Take the bisection steps of [l, h] that the brackets decide, up to s.

    Stops with s == 0 or at a midpoint 0.5 (l + h) that needs a count.
    """
    while s > 0:
        m = 0.5 * (l + h)
        # [l, h] is certified as well: mid equals l or h once no double
        # lies between them
        if m >= h or m >= bj:  # at least j+1 eigenvalues below m
            h = m
        elif m <= l or m <= aj:
            l = m
        else:
            break
        s -= 1
    return l, h, s


def _replay(
    T: TridiagonalMatrix, glo: float, ghi: float, a: list, b: list, steps: int, indices: list
) -> tuple[list, list, int]:
    """`steps` bisection steps from [glo, ghi] for these indices, in Python floats.

    An index takes the steps its brackets or the last pass's counts decide
    on its own; one whose midpoint they do not decide waits, and once every
    unfinished index waits, one pass counts them all.  A numpy pass also
    counts, for each waiting index, the next midpoint to need a count in
    each half of its bracket, so whichever half the count picks goes on
    without waiting.

    At glo = -ghi and an all-zero diagonal, the partner n - 1 - j of an
    index j that indices lack takes [-hi_j, -lo_j]: its pivots at -x are
    j's at x negated, so count(-x) = n - count(x) and its midpoints are
    j's negated, unless a pivot is tiny.  A count of j's that met a tiny
    pivot puts the partner in the replay at j's bracket negated, and from
    there it bisects on its own; before it, j's bracket certificate (one
    with no tiny pivot, see `_seed_brackets`) negated decides the
    partner's steps that j decided without a count.  Returns lo, hi and
    the passes.
    """
    n = T.n
    lo, hi, left = [glo] * n, [ghi] * n, [steps] * n
    todo = list(indices)
    mirrored = set(todo).difference(n - 1 - j for j in todo)
    counted, tiny = {}, set()  # shift -> count, and the tiny-pivot shifts, of the last pass
    passes = 0
    while True:
        waiting, shifts = [], []
        for j in todo:
            aj, bj = a[j], b[j]
            l, h, s = _advance(lo[j], hi[j], left[j], aj, bj)
            while s > 0 and (c := counted.get(m := 0.5 * (l + h))) is not None:
                if m in tiny and j in mirrored:
                    mirrored.remove(j)
                    p = n - 1 - j
                    lo[p], hi[p], left[p], a[p], b[p] = -h, -l, s, -bj, -aj
                    todo.append(p)
                if c > j:  # at least j+1 eigenvalues below m
                    l, h, s = _advance(l, m, s - 1, aj, bj)
                else:
                    l, h, s = _advance(m, h, s - 1, aj, bj)
            lo[j], hi[j], left[j] = l, h, s
            if s > 0:
                waiting.append(j)
                shifts.append(m)
        if not waiting:
            for j in mirrored:
                lo[n - 1 - j], hi[n - 1 - j] = -hi[j], -lo[j]
            return lo, hi, passes
        if len(waiting) > _SCALAR_SHIFTS:  # amortize the pass's numpy steps
            for j, m in zip(waiting, shifts[: len(waiting)]):
                for l, h in ((lo[j], m), (m, hi[j])):
                    l, h, s = _advance(l, h, left[j] - 1, a[j], b[j])
                    if s > 0:
                        shifts.append(0.5 * (l + h))
        xs = np.array(shifts)
        counts, flags = _sturm_counts(T, xs)
        counted, tiny = dict(zip(shifts, counts.tolist())), set(xs[flags].tolist())
        passes += 1
        todo = waiting


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
    if not math.isfinite(tol):
        raise ValueError(f"spectra.eigenvalues_bisect: tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"spectra.eigenvalues_bisect: tol must be > 0, got {tol}")
    n = T.n
    _refuse_overflowing_squares(T, "eigenvalues_bisect")
    glo, ghi = T.gershgorin()
    span = max(ghi - glo, tol)
    glo -= 1e-3 * span
    ghi += 1e-3 * span
    width = ghi - glo  # 0 where the widening is below the spacing at a 1 x 1 diagonal
    ratio = width / tol
    if math.isinf(ratio):
        raise ValueError(
            f"spectra.eigenvalues_bisect: tol {tol!r} is too small for the Gershgorin "
            f"width {width!r}: width / tol overflows binary64"
        )
    iterations = int(math.ceil(math.log2(ratio))) + 2 if width > 0 else 0
    # an all-zero diagonal gives S T S = -T with S = diag((-1)^m): the
    # spectrum is symmetric, and only its upper half, the centre included
    # at odd n, is bisected (`_replay` mirrors the rest)
    first = n // 2 if n > 1 and glo == -ghi and not T.diag.any() else 0
    a, b, passes, indices = _seed_brackets(T, tol, width, np.arange(first, n))
    lo, hi, counted = _replay(
        T, glo, ghi, a.tolist(), b.tolist(), iterations, indices.tolist()
    )
    lo, hi = np.array(lo), np.array(hi)
    passes += counted
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
        raise ValueError(f"spectra.extension_sweep: n must be >= 50, got {n}")
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
        raise ValueError("spectra.strict_interlacing: needs sizes n and n+1")
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
        raise ValueError("spectra.spectrum_diagnostics: need at least two reports")

    inside = [rep.eigenvalues[np.abs(rep.eigenvalues) <= window] for rep in reports]
    spacings = [float(np.min(np.diff(np.sort(v)))) for v in inside if len(v) >= 2]
    gaps, inter = [], []
    for (a, a_inside), (brep, _) in itertools.combinations(zip(reports, inside), 2):
        if len(a_inside):
            gaps.append(float(np.min(nearest_distance(brep.eigenvalues, a_inside))))
        if abs(a.n - brep.n) == 1:
            small, large = (a, brep) if a.n < brep.n else (brep, a)
            inter.append((small.n, large.n, strict_interlacing(small.eigenvalues, large.eigenvalues)))
    return SpectrumDiagnostics(
        min_spacing_near_zero=min(spacings, default=None),
        cross_theta_min_gap=min(gaps, default=None),
        interlacing=tuple(inter),
    )
