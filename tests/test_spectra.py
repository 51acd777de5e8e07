"""Sturm counting, bisection eigenvalues, extension sweeps, diagnostics."""

import functools
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from powersqueeze import (
    SectorParams,
    TridiagonalMatrix,
    eigenvalues_bisect,
    extension_sweep,
    nearest_distance,
    solve_recursion,
    spectrum_diagnostics,
    strict_interlacing,
    sturm_count,
)
from powersqueeze import spectra
from powersqueeze.errors import NumericsError
from powersqueeze.spectra import _sturm_counts


def dense(T: TridiagonalMatrix) -> np.ndarray:
    A = np.diag(T.diag)
    if T.n > 1:
        A += np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    return A


def charpoly_sign_changes(T: TridiagonalMatrix, x: float) -> int:
    """Independent count oracle: sign changes along the principal-minor
    sequence 1, D_1(x), ..., D_n(x) of T - xI (the classical Sturm chain)."""
    seq = [1.0]
    d_prev, d = 1.0, T.diag[0] - x
    seq.append(d)
    for i in range(1, T.n):
        d_prev, d = d, (T.diag[i] - x) * d - T.offdiag[i - 1] ** 2 * d_prev
        # renormalize to dodge overflow; only signs matter
        scale = max(abs(d), abs(d_prev), 1.0)
        if scale > 1e100:
            d /= scale
            d_prev /= scale
        seq.append(d)
    changes = 0
    last = 1.0
    for v in seq[1:]:
        if v == 0:
            v = -last  # zero counts as a change (eigenvalue of a minor)
        if (v < 0) != (last < 0):
            changes += 1
        last = v
    return changes


def reference_sturm_counts(T: TridiagonalMatrix, xs: np.ndarray) -> np.ndarray:
    """Verbatim copy of the numpy Sturm pass `spectra._sturm_counts` ran
    before it counted small shift sets in Python floats; the oracle for
    the counts and for the bisection bits."""
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


def plain_bisection_midpoints(T: TridiagonalMatrix, tols) -> dict:
    """{tol: midpoints} of the unseeded full-range bisection loop, which
    counts all n midpoints at every step.  The loop's state after i steps
    depends on tol only through the starting range, so tols that share a
    range share one run, snapshotted at each tol's step count."""
    n = T.n
    glo0, ghi0 = T.gershgorin()
    runs = {}
    for tol in tols:
        span = max(ghi0 - glo0, tol)
        glo, ghi = glo0 - 1e-3 * span, ghi0 + 1e-3 * span
        steps = int(math.ceil(math.log2((ghi - glo) / tol))) + 2 if ghi > glo else 0
        runs.setdefault((glo, ghi), {}).setdefault(max(steps, 0), []).append(tol)
    ranks = np.arange(1, n + 1)
    out = {}
    for (glo, ghi), tols_at in runs.items():
        lo = np.full(n, glo)
        hi = np.full(n, ghi)
        for step in range(max(tols_at) + 1):
            for tol in tols_at.get(step, ()):
                out[tol] = 0.5 * (lo + hi)
            mid = 0.5 * (lo + hi)
            go_down = reference_sturm_counts(T, mid) >= ranks
            hi = np.where(go_down, mid, hi)
            lo = np.where(go_down, lo, mid)
    return out


IDENTITY_SIZES = (1, 2, 5, 41, 44, 200, 401)
IDENTITY_THETAS = (0.0, -0.7, 0.5)
IDENTITY_TOLS = (1e-9, 1e-10, 1e-12)


@functools.lru_cache(maxsize=None)
def plain_midpoints(sector: SectorParams, n: int, theta: float) -> dict:
    """plain_bisection_midpoints over IDENTITY_TOLS, shared by every test
    that bisects the same truncation."""
    T = TridiagonalMatrix.truncation(sector, n, theta=theta)
    return plain_bisection_midpoints(T, IDENTITY_TOLS)


def assert_bits_match_plain_bisection(sector: SectorParams, sizes, thetas, tols):
    for n in sizes:
        for theta in thetas:
            T = TridiagonalMatrix.truncation(sector, n, theta=theta)
            plain = plain_midpoints(sector, n, theta)
            for tol in tols:
                got = eigenvalues_bisect(T, tol).eigenvalues
                assert np.array_equal(got, plain[tol]), (sector, n, theta, tol)


def hermite_roots_by_bisection(n: int) -> np.ndarray:
    """Positive roots of H_n by sign bisection on the raw Hermite recursion."""

    def h(x: float) -> float:
        h_prev, hv = 1.0, 2.0 * x
        for m in range(1, n):
            h_prev, hv = hv, 2.0 * x * hv - 2.0 * m * h_prev
        return hv if n >= 1 else 1.0

    roots = []
    grid = np.linspace(1e-9, math.sqrt(2.0 * n + 1.0), 4001)
    vals = [h(x) for x in grid]
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if h(lo) * h(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestSturmCount:
    def test_two_by_two(self):
        b0 = off = 1.7
        T = TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[off])
        assert sturm_count(T, -2 * b0) == 0
        assert sturm_count(T, 0.0) == 1
        assert sturm_count(T, 2 * b0) == 2

    def test_below_gershgorin_is_zero(self):
        T = TridiagonalMatrix.truncation(SectorParams(3, 1), 25)
        lo, hi = T.gershgorin()
        assert sturm_count(T, lo - 1.0) == 0
        assert sturm_count(T, hi + 1.0) == 25

    def test_gershgorin_with_boundary_diagonal(self):
        # nonzero last diagonal entry still bounded by max|diag| + 2 max offdiag
        T = TridiagonalMatrix.truncation(SectorParams(2, 0), 30, theta=0.8)
        bound = float(np.max(np.abs(T.diag)) + 2.0 * np.max(T.offdiag))
        assert sturm_count(T, -bound - 1.0) == 0
        assert sturm_count(T, bound + 1.0) == 30

    def test_monotone_and_matches_charpoly_oracle(self):
        T = TridiagonalMatrix.truncation(SectorParams(2, 0), 6)
        xs = np.linspace(-12, 12, 41)
        counts = [sturm_count(T, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        for x, c in zip(xs, counts):
            assert c == charpoly_sign_changes(T, float(x))

    def test_spectral_symmetry_of_counts(self):
        # zero diagonal: count(x) = n - count(-x) when x avoids the spectrum
        T = TridiagonalMatrix.truncation(SectorParams(2, 1), 30)
        for x in (0.37, 1.9, 14.2, 55.0):
            assert sturm_count(T, x) == 30 - sturm_count(T, -x)

    @pytest.mark.parametrize("k, n", [(80, 300), (200, 3)])
    def test_overflowing_off_diagonal_square_is_refused(self, k, n):
        # with b_m^2 = inf, k = 200, n = 3 (eigenvalues about -9.0e246, 0
        # and 9.0e246) counted 1 at -1e250, 0, 1 and 1e250, and k = 80,
        # n = 300 counted 90 at 1e300, with only a RuntimeWarning
        T = TridiagonalMatrix.truncation(SectorParams(k, 0), n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-1e250, 0.0, 1.0, 1e250, 1e300):
                with pytest.raises(
                    NumericsError, match=r"^spectra\.sturm_count: off-diagonal entry "
                ):
                    sturm_count(T, x)

    def test_largest_off_diagonal_whose_square_is_finite(self):
        top = math.sqrt(sys.float_info.max)
        below = math.nextafter(top, 0.0)
        T = TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[below])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [sturm_count(T, x) for x in (-1.5 * below, 0.0, 1.5 * below)] == [0, 1, 2]
        with pytest.raises(NumericsError, match=r"^spectra\.sturm_count: "):
            sturm_count(TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[top]), 0.0)


SHIFT_CASES = dict(
    k=st.integers(1, 6),
    kappa_frac=st.floats(0.0, 1.0, exclude_max=True),
    n=st.integers(1, 90),
    theta=st.floats(-1.0, 1.0),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(-6, 6)), min_size=1, max_size=12
    ),
    spread=st.floats(0.0, 1.0),
)


def shifts_near_eigenvalues(k, kappa_frac, n, theta, picks, spread):
    """A truncation and sorted shifts, each within a few ulps of one of its
    eigenvalues or anywhere in its Gershgorin range."""
    T = TridiagonalMatrix.truncation(SectorParams(k, int(kappa_frac * k)), n, theta=theta)
    ev = np.linalg.eigvalsh(dense(T))
    lo, hi = T.gershgorin()
    xs = []
    for index, ulps in picks:
        x = float(ev[index % n])
        step = np.inf if ulps > 0 else -np.inf
        for _ in range(abs(ulps)):
            x = float(np.nextafter(x, step))
        xs.append(x)
        xs.append(lo + (hi - lo) * ((index % 997) / 996.0) * spread)
    return T, np.sort(np.array(xs))


@st.composite
def random_tridiagonal(draw):
    """Entries log-uniform over 16 decades, signed on the diagonal, or an
    all-zero diagonal (seeded from the bidiagonal half's singular values);
    n up to 120, so that more than _SCALAR_SHIFTS indices wait on some
    passes."""
    n = draw(st.integers(1, 120))
    magnitudes = st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)
    # half the draws in principle; in the 40 derandomized examples of the
    # bisection test st.booleans() drew 3 zero diagonals, this draws 19
    # (n from 2 to 100, odd and even)
    if draw(st.integers(0, 3)) >= 2:
        diag = [0.0] * n
    else:
        signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
        diag = [sign * 10.0**e for sign, e in zip(signs, draw(magnitudes))]
    offdiag = [10.0**e for e in draw(magnitudes)[1:]]
    return TridiagonalMatrix(diag=diag, offdiag=offdiag)


class TestSturmMonotone:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**SHIFT_CASES)
    def test_counts_monotone_in_shift(self, k, kappa_frac, n, theta, picks, spread):
        # the seeded bisection decides a midpoint without a count only
        # because the floating-point count never decreases as the shift grows;
        # shifts sit within a few ulps of eigenvalues and anywhere in range
        T, xs = shifts_near_eigenvalues(k, kappa_frac, n, theta, picks, spread)
        counts = reference_sturm_counts(T, xs)
        assert np.all(np.diff(counts) >= 0)
        assert np.array_equal(_sturm_counts(T, xs)[0], counts)
        assert np.array_equal(counts, [sturm_count(T, float(x)) for x in xs])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**SHIFT_CASES)
    def test_scalar_and_vector_paths_agree(self, k, kappa_frac, n, theta, picks, spread):
        # a shift's count must not depend on how many shifts share its pass:
        # the replay counts each index in whatever pass it waits for
        T, xs = shifts_near_eigenvalues(k, kappa_frac, n, theta, picks, spread)
        alone = [int(_sturm_counts(T, xs[i : i + 1])[0][0]) for i in range(len(xs))]
        lo, hi = T.gershgorin()
        batch = np.concatenate([xs, np.linspace(lo, hi, spectra._SCALAR_SHIFTS + 1)])
        assert len(batch) > spectra._SCALAR_SHIFTS
        batched = _sturm_counts(T, batch)[0][: len(xs)]
        reference = reference_sturm_counts(T, xs)
        assert np.array_equal(alone, reference)
        assert np.array_equal(batched, reference)

    def test_paths_agree_on_extreme_pivots(self):
        # off-diagonal squares that overflow (pivmin = inf) or underflow to 0,
        # exact zero pivots and infinite shifts
        cases = [
            TridiagonalMatrix(diag=[0.0, 0.0, 0.0], offdiag=[1e160, 1.0]),
            TridiagonalMatrix(diag=[1.0, -2.0, 0.5], offdiag=[1e-200, 3.0]),
            TridiagonalMatrix(diag=[0.0, 0.0, 0.0, 0.0], offdiag=[1.0, 1e154, 1.0]),
            TridiagonalMatrix.truncation(SectorParams(40, 0), 300),
        ]
        for T in cases:
            xs = np.concatenate([T.diag, [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, np.inf, -np.inf]])
            xs = np.concatenate([xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf)])
            batch = np.concatenate([xs, np.zeros(spectra._SCALAR_SHIFTS + 1)])
            with np.errstate(over="ignore", invalid="ignore"):
                reference = reference_sturm_counts(T, xs)
                alone = [int(_sturm_counts(T, xs[i : i + 1])[0][0]) for i in range(len(xs))]
                batched = _sturm_counts(T, batch)[0][: len(xs)]
            assert np.array_equal(alone, reference)
            assert np.array_equal(batched, reference)


def wide_batch(T: TridiagonalMatrix, width: int, rng) -> np.ndarray:
    """width shifts in random order: each eigenvalue and its neighbouring
    doubles, every diagonal entry, 0, -0, +/-inf, NaN and +/-1e300, and
    uniform draws over the Gershgorin range for the rest."""
    ev = np.linalg.eigvalsh(dense(T))
    special = np.concatenate([
        ev, np.nextafter(ev, np.inf), np.nextafter(ev, -np.inf), T.diag,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
    ])
    lo, hi = T.gershgorin()
    xs = np.concatenate([special, rng.uniform(lo, hi, max(width - len(special), 0))])
    rng.shuffle(xs)
    return xs


def blocked_counts(T: TridiagonalMatrix, xs: np.ndarray, rows: int) -> np.ndarray:
    """`_sturm_counts` with blocks of `rows` rows (at most n)."""
    with mock.patch.object(spectra, "_BLOCK_BYTES", 8 * rows * len(xs)):
        return _sturm_counts(T, xs)[0]


def reference_counts(T: TridiagonalMatrix, xs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_sturm_counts(T, xs)


class TestBlockedPass:
    """A pass over many shifts forms a block of rows before it counts and
    tests their pivots, and recounts in Python floats every shift that met
    a tiny pivot; every block height gives the reference counts."""

    @pytest.mark.parametrize("rows", [1, 7, 8, 41, 64])  # 41 = 5 * 8 + 1 = 5 * 7 + 6 rows
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_block_heights(self, rows, theta):
        T = TridiagonalMatrix.truncation(SectorParams(3, 1), 41, theta=theta)
        xs = wide_batch(T, 2048, np.random.default_rng(rows))
        assert np.array_equal(blocked_counts(T, xs, rows), reference_counts(T, xs))

    @pytest.mark.parametrize("at", [0, 7, 8, 15, 40])
    def test_zero_pivot_at_block_edges(self, at):
        # with blocks of 8 rows over n = 41: the first and last row of the
        # first two blocks, and the one row of the last block.  At shift 0
        # the pivots of diag (1, 2, 2, ...) and off-diagonal 1 are all 1
        # until a diagonal 1 makes one exactly 0 (a diagonal 0 at row 0)
        n = 41
        diag = np.full(n, 2.0)
        diag[0], diag[at] = 1.0, (0.0 if at == 0 else 1.0)
        T = TridiagonalMatrix(diag=diag, offdiag=np.ones(n - 1))
        d = diag[0]
        for i in range(1, at + 1):
            d = diag[i] - 1.0 / d
        assert d == 0.0
        xs = wide_batch(T, 2000, np.random.default_rng(at))
        xs[[0, 999, 1999]] = 0.0
        counts = blocked_counts(T, xs, 8)
        assert np.array_equal(counts, reference_counts(T, xs))
        assert counts[0] == sturm_count(T, 0.0)

    def test_non_finite_shifts_in_a_wide_batch(self):
        rng = np.random.default_rng(7)
        for T in (
            TridiagonalMatrix.truncation(SectorParams(4, 0), 308),
            TridiagonalMatrix.truncation(SectorParams(2, 1), 100, theta=-0.7),
        ):
            xs = wide_batch(T, 2500, rng)
            xs[[0, 1, 2, 1250, 2499]] = [np.nan, np.inf, -np.inf, np.nan, np.inf]
            counts = _sturm_counts(T, xs)[0]
            assert np.array_equal(counts, reference_counts(T, xs))
            assert counts[1] == counts[2499] == T.n and counts[2] == 0
            assert counts[0] == counts[1250] == 0

    def test_overflowing_off_diagonal_squares(self):
        # an off-diagonal square overflows, so pivmin = inf and every
        # column is recounted in Python floats
        T = TridiagonalMatrix(diag=np.zeros(30), offdiag=[1.0] * 14 + [1e160] + [1.0] * 14)
        xs = wide_batch(T, 2100, np.random.default_rng(3))
        with np.errstate(over="ignore"):
            assert np.array_equal(blocked_counts(T, xs, 8), reference_counts(T, xs))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        T=random_tridiagonal(),
        rows=st.sampled_from([1, 2, 3, 8, 1000]),
        width=st.integers(2001, 2600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_matrices_in_wide_batches(self, T, rows, width, seed):
        xs = wide_batch(T, width, np.random.default_rng(seed))
        assert np.array_equal(blocked_counts(T, xs, rows), reference_counts(T, xs))

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_peak_memory_of_a_wide_pass(self, theta):
        # at 4e5 shifts a block is one row, and the pass holds 25 bytes per
        # shift (26 bounds it): the row, 8 of shared scratch, the counts and
        # the flags; one more shift-length float array, 8 bytes per shift,
        # breaks the bound
        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 20, theta=theta)
        lo, hi = T.gershgorin()
        xs = np.linspace(lo, hi, 400_000)
        tracemalloc.start()
        try:
            counts = _sturm_counts(T, xs)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * len(xs)
        assert np.array_equal(counts[::997], reference_counts(T, xs[::997]))


class TestEigenvaluesBisect:
    def test_k1_n5_hermite_roots(self):
        T = TridiagonalMatrix.truncation(SectorParams(1, 0), 5)
        report = eigenvalues_bisect(T, 1e-10)
        pos = math.sqrt(2.0) * hermite_roots_by_bisection(5)
        expected = np.sort(np.concatenate([-pos, [0.0], pos]))
        assert np.allclose(report.eigenvalues, expected, atol=1e-9)

    def test_against_lapack_oracle(self):
        for k, kappa, n in ((2, 0, 40), (3, 2, 25), (1, 0, 12)):
            T = TridiagonalMatrix.truncation(SectorParams(k, kappa), n)
            report = eigenvalues_bisect(T, 1e-10)
            oracle = np.linalg.eigvalsh(dense(T))
            assert np.allclose(report.eigenvalues, oracle, atol=1e-9)

    def test_symmetric_spectrum_zero_diagonal(self):
        T = TridiagonalMatrix.truncation(SectorParams(2, 0), 40)
        ev = eigenvalues_bisect(T, 1e-10).eigenvalues
        assert np.allclose(ev, -ev[::-1], atol=2e-10)

    def test_bracket_certificates(self):
        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 12)
        tol = 1e-10
        report = eigenvalues_bisect(T, tol)
        for j, ev in enumerate(report.eigenvalues):
            assert sturm_count(T, ev - 2 * tol) == j
            assert sturm_count(T, ev + 2 * tol) == j + 1

    def test_zeros_of_polynomial_solution(self):
        # eigenvalues of the n x n truncation coincide with zeros of f_n
        sector = SectorParams(3, 0)
        n = 12
        T = TridiagonalMatrix.truncation(sector, n)
        ev = eigenvalues_bisect(T, 1e-12).eigenvalues

        def f_n(x: float) -> float:
            return solve_recursion(sector, x, n).value(n).real

        for root in ev:
            lo, hi = root - 1e-3, root + 1e-3
            flo = f_n(lo)
            assert flo * f_n(hi) < 0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if flo * f_n(mid) <= 0:
                    hi = mid
                else:
                    lo, flo = mid, f_n(mid)
            assert 0.5 * (lo + hi) == pytest.approx(root, abs=1e-8)

    def test_boundary_theta_recorded(self):
        from powersqueeze import off_diagonal

        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 60, theta=0.4)
        report = eigenvalues_bisect(T, 1e-9, boundary_theta=0.4)
        assert report.boundary_theta == 0.4
        assert T.diag[-1] == pytest.approx(
            0.4 * off_diagonal(SectorParams(3, 0), 59), rel=1e-15
        )

    def test_unreduced_eigenvalues_are_simple(self):
        # strictly positive off-diagonals force distinct eigenvalues
        for k, kappa, n in ((1, 0, 30), (2, 1, 41)):
            T = TridiagonalMatrix.truncation(SectorParams(k, kappa), n)
            ev = eigenvalues_bisect(T, 1e-11).eigenvalues
            assert float(np.min(np.diff(ev))) > 1e-6

    @pytest.mark.parametrize(
        "diag, offdiag, name",
        [
            ([0.0, 0.0, 0.0], [1.0, np.nan], "off-diagonal"),
            ([0.0, 0.0, 0.0], [np.inf, 1.0], "off-diagonal"),
            ([0.0, np.nan, 0.0], [1.0, 1.0], "diagonal"),
            ([0.0, 0.0, -np.inf], [1.0, 1.0], "diagonal"),
        ],
    )
    def test_non_finite_entries_are_refused(self, diag, offdiag, name):
        with pytest.raises(ValueError, match=rf"^spectra\.TridiagonalMatrix: non-finite {name} entry$"):
            TridiagonalMatrix(diag=diag, offdiag=offdiag)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[1.0, 1.0]),
             "TridiagonalMatrix: offdiag must have length n-1"),
            (lambda: TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[0.0]),
             "TridiagonalMatrix: off-diagonal entries must be strictly positive"),
            (lambda: TridiagonalMatrix.truncation(SectorParams(3, 0), 0),
             "TridiagonalMatrix.truncation: n must be >= 1, got 0"),
            (lambda: eigenvalues_bisect(TridiagonalMatrix(diag=[0.0], offdiag=[]), -1.0),
             "eigenvalues_bisect: tol must be > 0, got -1.0"),
            (lambda: extension_sweep(SectorParams(3, 0), 10, [0.0], 1e-9),
             "extension_sweep: n must be >= 50, got 10"),
            (lambda: strict_interlacing(np.zeros(2), np.zeros(2)),
             "strict_interlacing: needs sizes n and n+1"),
            (lambda: spectrum_diagnostics([], window=1.0),
             "spectrum_diagnostics: need at least two reports"),
        ],
        ids=["length", "positivity", "truncation-n", "tol", "sweep-n", "interlacing",
             "diagnostics"],
    )
    def test_errors_name_the_module(self, call, message):
        with pytest.raises(ValueError, match=r"^spectra\.") as excinfo:
            call()
        assert str(excinfo.value) == f"spectra.{message}"

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_is_refused(self, tol):
        message = rf"^spectra\.eigenvalues_bisect: tol must be finite, got {tol}$"
        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 12)
        with pytest.raises(ValueError, match=message):
            eigenvalues_bisect(T, tol)
        with pytest.raises(ValueError, match=message):
            extension_sweep(SectorParams(3, 0), 60, [0.5], tol)

    def test_tol_whose_step_count_overflows_is_refused(self):
        # the step count reads width / tol, which overflows binary64 at
        # tol = 5e-324; at 1e-300 it is finite (about 1e305 here), and the
        # bisection keeps its step count and the plain loop's bits
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 50)
        message = r"^spectra\.eigenvalues_bisect: tol 5e-324 is too small for the Gershgorin width "
        with pytest.raises(ValueError, match=message):
            eigenvalues_bisect(T, 5e-324)
        with pytest.raises(ValueError, match=message):
            extension_sweep(SectorParams(3, 0), 60, [0.5], 5e-324)
        plain = plain_bisection_midpoints(T, (1e-300,))[1e-300]
        assert np.array_equal(eigenvalues_bisect(T, 1e-300).eigenvalues, plain)

    @pytest.mark.parametrize("k, n", [(80, 300), (200, 3)])
    def test_overflowing_off_diagonal_square_is_refused(self, k, n):
        # b_m^2 overflowed in the Sturm recurrence: k = 80, n = 300 put the
        # middle eigenvalue at 2.5e175 (a scaled eigvalsh gives 2.7e59), and
        # k = 200, n = 3 returned [-9.03e246, 9.03e246, 9.03e246]
        T = TridiagonalMatrix.truncation(SectorParams(k, 0), n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericsError, match=r"^spectra\.eigenvalues_bisect: off-diagonal entry "
            ):
                eigenvalues_bisect(T, 1e-9)

    def test_largest_off_diagonal_whose_square_is_finite(self):
        top = math.sqrt(sys.float_info.max)
        below = math.nextafter(top, 0.0)
        T = TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[below])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = eigenvalues_bisect(T, 1e-9).eigenvalues
        assert np.allclose(ev, [-below, below], rtol=4 * np.finfo(np.float64).eps)
        with pytest.raises(NumericsError, match=r"^spectra\.eigenvalues_bisect: "):
            eigenvalues_bisect(TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[top]), 1e-9)

    def test_one_by_one_matrix(self):
        T = TridiagonalMatrix(diag=[2.5], offdiag=[])
        report = eigenvalues_bisect(T, 1e-12)
        assert report.eigenvalues[0] == pytest.approx(2.5, abs=1e-12)
        # here the starting range d -/+ 1e-3 tol rounds to d itself
        T = TridiagonalMatrix(diag=[-20.28792744466521], offdiag=[])
        assert eigenvalues_bisect(T, 1e-12).eigenvalues[0] == T.diag[0]


SEED_ROUTES = ("dsterf", "scipy", "dlasq1")


def hide_bundled_lapack(monkeypatch, library=None) -> None:
    """Make the lookup of numpy's bundled OpenBLAS find `library` (a path,
    or None for none), behind a cache of its own."""
    monkeypatch.setattr(spectra, "_bundled_library", lambda: library)
    monkeypatch.setattr(
        spectra, "_bundled_lapack", functools.cache(spectra._bundled_lapack.__wrapped__)
    )


def select_seed_route(monkeypatch, route: str) -> None:
    """Seeds come from the bundled dsterf, with the bidiagonal seed turned
    off; or, with the bundled library hidden, from scipy's dsterf; or, as
    this module runs by default, from the bundled dlasq1 at an all-zero
    diagonal and from the bundled dsterf at any other."""
    if route == "dsterf":
        monkeypatch.setattr(spectra, "_bidiagonal_seed", lambda offdiag: None)
    elif route == "scipy":
        hide_bundled_lapack(monkeypatch)


def fake_lapack(monkeypatch, routine: str, wrong_seed) -> list:
    """Make `routine`, the bundled "dsterf" or "dlasq1" or "scipy"'s
    dsterf, return wrong_seed(its output) -> (seed, info): eigenvalues, or
    dlasq1's singular values; info != 0 is the routine's failure.  Returns
    the list of the sizes it is called with (B's order for dlasq1)."""
    owner, name = {
        "dsterf": (spectra, "_dsterf"),
        "dlasq1": (spectra, "_dlasq1"),
        "scipy": (scipy.linalg.lapack, "dsterf"),
    }[routine]
    real, calls = getattr(owner, name), []

    def fake(d, e):
        calls.append(len(d))
        return wrong_seed(real(d, e)[0])

    monkeypatch.setattr(owner, name, fake)
    return calls


def seed_by(route: str, T: TridiagonalMatrix) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        select_seed_route(mp, route)
        return spectra._lapack_seed(T)[0]


def bisected_to_adjacent_doubles(T: TridiagonalMatrix) -> np.ndarray:
    """Eigenvalues bisected until no double lies inside their brackets; at
    a zero diagonal the Sturm count is relatively accurate (Demmel & Kahan
    1990), so these are within a few eps |lambda_j| of the exact ones."""
    return eigenvalues_bisect(T, 1e-290 * float(np.max(T.offdiag))).eigenvalues


WRONG_SEEDS = pytest.mark.parametrize(
    "wrong_seed",
    [
        lambda ev: (ev[::-1] + 1.0, 0),  # some certify after widening, some never
        lambda ev: (np.full_like(ev, np.nan), 0),  # never certifies
        lambda ev: (ev + 1.0, 1),  # LAPACK reports failure
    ],
    ids=["reversed-shifted", "nan", "lapack-error"],
)


class TestSeededBisection:
    """The LAPACK seed only skips counts: the midpoints keep their bits."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bits_match_plain_bisection(self, k):
        for kappa in range(k):
            assert_bits_match_plain_bisection(
                SectorParams(k, kappa), IDENTITY_SIZES, IDENTITY_THETAS, IDENTITY_TOLS
            )

    @staticmethod
    def assert_bits_survive(monkeypatch, route, wrong_seed):
        select_seed_route(monkeypatch, route)
        calls = fake_lapack(monkeypatch, route, wrong_seed)
        for k in (1, 2, 3, 4):
            for kappa in range(k):
                assert_bits_match_plain_bisection(
                    SectorParams(k, kappa), (2, 5, 41, 44), IDENTITY_THETAS, (1e-10,)
                )
        assert calls  # the seed really came from the fake

    @WRONG_SEEDS
    def test_bits_survive_a_wrong_seed(self, monkeypatch, wrong_seed):
        self.assert_bits_survive(monkeypatch, "dsterf", wrong_seed)

    @WRONG_SEEDS
    def test_bits_survive_a_wrong_scipy_seed(self, monkeypatch, wrong_seed):
        # where numpy bundles no LAPACK every seed, theta = 0 included, is
        # scipy's dsterf
        self.assert_bits_survive(monkeypatch, "scipy", wrong_seed)

    @WRONG_SEEDS
    def test_bits_survive_a_wrong_bidiagonal_seed(self, monkeypatch, wrong_seed):
        # theta = 0 seeds from the fake; a NaN or info != 0 falls back to
        # dsterf's seed
        self.assert_bits_survive(monkeypatch, "dlasq1", wrong_seed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(T=random_tridiagonal())
    def test_bits_match_plain_bisection_on_random_matrices(self, T):
        # well beyond sector truncations: clustered and widely graded
        # spectra; the last tol is below the spacing of the largest doubles
        lo, hi = T.gershgorin()
        tols = (1e-9, 1e-12, 0.25 * math.ulp(max(-lo, hi)))
        plain = plain_bisection_midpoints(T, tols)
        for tol in tols:
            assert np.array_equal(eigenvalues_bisect(T, tol).eigenvalues, plain[tol]), tol

    @staticmethod
    def assert_failure_seeds_nothing(monkeypatch, route, routines, theta):
        select_seed_route(monkeypatch, route)
        calls = [
            fake_lapack(monkeypatch, routine, lambda ev: (ev + 1.0, 1)) for routine in routines
        ]
        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 44, theta=theta)
        a, b, passes, indices = spectra._seed_brackets(T, 1e-10, 1e3, np.arange(44))
        assert np.all(a == -np.inf) and np.all(b == np.inf) and passes == 0
        assert np.array_equal(indices, np.arange(44))
        return calls

    def test_lapack_failure_seeds_nothing(self, monkeypatch):
        # info != 0 leaves every index the whole range and spends no pass;
        # theta = 0.5 puts a nonzero entry on the diagonal, so the seed is
        # dsterf's
        calls = self.assert_failure_seeds_nothing(monkeypatch, "dsterf", ["dsterf"], 0.5)
        assert calls == [[44]]

    def test_scipy_seed_failure_seeds_nothing(self, monkeypatch):
        # so does scipy's, which seeds theta = 0 too where numpy bundles no
        # LAPACK
        calls = self.assert_failure_seeds_nothing(monkeypatch, "scipy", ["scipy"], 0.0)
        assert calls == [[44]]

    def test_bidiagonal_and_sterf_failures_seed_nothing(self, monkeypatch):
        # at theta = 0 a dlasq1 failure falls back to dsterf, and only when
        # that fails too is there no seed
        calls = self.assert_failure_seeds_nothing(
            monkeypatch, "dlasq1", ["dlasq1", "dsterf"], 0.0
        )
        assert calls == [[22], [44]]  # B is 22 x 22

    @pytest.mark.parametrize(
        "wrong_seed",
        [lambda sv: (sv, 1), lambda sv: (np.where(sv == sv.max(), np.inf, sv), 0)],
        ids=["lapack-error", "non-finite"],
    )
    def test_bidiagonal_failure_falls_back_to_sterf(self, monkeypatch, wrong_seed):
        calls = fake_lapack(monkeypatch, "dlasq1", wrong_seed)
        for n in (44, 45):
            T = TridiagonalMatrix.truncation(SectorParams(3, 0), n)
            seed, width = spectra._lapack_seed(T)
            sterf, info = spectra._dsterf(T.diag, T.offdiag)
            assert info == 0 and np.array_equal(seed, sterf)
            assert width == spectra._STERF_WIDTH
        assert calls == [22, 23]

    @pytest.mark.parametrize(
        "library",
        [None, scipy.linalg._flapack.__file__, __file__],
        ids=["no-library", "no-64-symbols", "not-a-library"],
    )
    def test_missing_bundled_lapack_seeds_from_scipy(self, monkeypatch, library):
        # where the lookup finds no library, one whose LAPACK takes 32-bit
        # integers (scipy's, with no `_64_` symbols) or a file that does not
        # load, scipy's dsterf seeds every matrix, theta = 0 included, at
        # dsterf's start width, and the eigenvalue bits do not move
        cases = [(n, theta) for n in (2, 44, 45) for theta in (0.0, 0.5)]
        bundled = [
            eigenvalues_bisect(TridiagonalMatrix.truncation(SectorParams(3, 0), n, theta), 1e-10)
            for n, theta in cases
        ]
        hide_bundled_lapack(monkeypatch, library)
        assert spectra._bundled_lapack() is None
        sterf = scipy.linalg.lapack.dsterf
        calls = fake_lapack(monkeypatch, "scipy", lambda ev: (ev, 0))
        for (n, theta), report in zip(cases, bundled):
            T = TridiagonalMatrix.truncation(SectorParams(3, 0), n, theta)
            seed, width = spectra._lapack_seed(T)
            assert np.array_equal(seed, sterf(T.diag, T.offdiag)[0])
            assert width == spectra._STERF_WIDTH
            fallback = eigenvalues_bisect(T, 1e-10).eigenvalues
            assert fallback.tobytes() == report.eigenvalues.tobytes(), (n, theta)
        assert calls == [n for n, _ in cases for _ in range(2)]  # seed, then bisection

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seed_routes_agree(self, k):
        # every route within 2 n eps max|lambda| of the bundled dsterf, the
        # order of dsterf's own error; dlasq1 seeds only at theta = 0,
        # where the largest gap measured was 0.19 n eps max|lambda|
        # (k = 1..40, n = 41..1601)
        eps = np.finfo(np.float64).eps
        for kappa in range(k):
            for theta in (0.0, 0.5):
                for n in (2, 41, 512):
                    T = TridiagonalMatrix.truncation(SectorParams(k, kappa), n, theta=theta)
                    sterf, scipy_seed, bidiagonal = (seed_by(route, T) for route in SEED_ROUTES)
                    bound = 2 * n * eps * float(np.max(np.abs(sterf)))
                    assert float(np.max(np.abs(scipy_seed - sterf))) <= bound, (k, kappa, theta, n)
                    assert float(np.max(np.abs(bidiagonal - sterf))) <= bound, (k, kappa, theta, n)

    @pytest.mark.parametrize("k, n", [(1, 2), (2, 3), (3, 41), (4, 512), (3, 513), (40, 300)])
    def test_bidiagonal_seeds_are_relatively_accurate(self, k, n):
        # dlasq1's seeds were up to 32 eps |lambda_j| off (k = 1..40, n up
        # to 1601), dsterf's up to 104 eps, and only eps max|lambda| near 0;
        # at odd n the padded zero column gives the zero eigenvalue exactly
        T = TridiagonalMatrix.truncation(SectorParams(k, 0), n)
        seed, width = spectra._lapack_seed(T)
        assert width == spectra._BIDIAGONAL_WIDTH
        exact = bisected_to_adjacent_doubles(T)
        if n % 2:
            assert seed[n // 2] == 0.0
            seed, exact = np.delete(seed, n // 2), np.delete(exact, n // 2)
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(seed - exact) <= 64 * eps * np.abs(exact)), (k, n)

    def test_seed_routes_give_the_same_bits(self, monkeypatch):
        cases = [
            (k, kappa, n, theta)
            for k in (1, 2, 3, 4)
            for kappa in range(k)
            for n in (2, 41, 200, 512)
            for theta in IDENTITY_THETAS
        ]

        def bisect_all(route):
            with pytest.MonkeyPatch.context() as mp:
                calls = {r: fake_lapack(mp, r, lambda ev: (ev, 0)) for r in SEED_ROUTES}
                select_seed_route(mp, route)
                bits = [
                    eigenvalues_bisect(
                        TridiagonalMatrix.truncation(SectorParams(k, kappa), n, theta=theta),
                        1e-10,
                    ).eigenvalues.tobytes()
                    for k, kappa, n, theta in cases
                ]
            return bits, {r: len(c) for r, c in calls.items()}

        at_zero = sum(theta == 0.0 for *_, theta in cases)
        sterf, sterf_calls = bisect_all("dsterf")
        assert sterf_calls == {"dsterf": len(cases), "scipy": 0, "dlasq1": 0}
        for route, route_calls in (
            ("scipy", {"dsterf": 0, "scipy": len(cases), "dlasq1": 0}),
            ("dlasq1", {"dsterf": len(cases) - at_zero, "scipy": 0, "dlasq1": at_zero}),
        ):
            bits, calls = bisect_all(route)
            assert bits == sterf, route
            assert calls == route_calls, route

    def test_certificate_skips_passes(self):
        T = TridiagonalMatrix.truncation(SectorParams(2, 0), 41)
        report = eigenvalues_bisect(T, 1e-9)
        assert 1 <= report.sturm_passes <= 4
        assert report.max_bracket <= 1e-9

    def test_brackets_start_at_float_spacing(self):
        # |lambda| reaches ~1e66 at k = 40, where a tol/2 half-width rounds
        # to a point; widening from there took 66 of 191 passes, counting
        # each index at its own step took the rest down to 10, and the
        # lookahead midpoints to 6
        T = TridiagonalMatrix.truncation(SectorParams(40, 0), 300)
        report = eigenvalues_bisect(T, 1e-10)
        assert report.sturm_passes <= 6

    def test_replay_passes_at_large_lambda(self):
        # k = 4, n = 1315 took 30 passes when every step that needed a count
        # made one; counted per index it takes 12, and 7 when a numpy pass
        # also counts each waiting index's next midpoint in both halves
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 1315)
        assert eigenvalues_bisect(T, 1e-10).sturm_passes <= 7

    def test_bidiagonal_seed_passes(self):
        # k = 3, n = 3200 took 10 passes from dsterf's seeds at a start
        # half-width of 32 eps |seed_j|, and takes 6 from dlasq1's, which
        # start at 8 eps
        T = TridiagonalMatrix.truncation(SectorParams(3, 0), 3200)
        assert eigenvalues_bisect(T, 1e-9).sturm_passes <= 6

    def test_tol_below_float_spacing_returns(self):
        # |lambda| reaches 5.4e7, where adjacent doubles are 7.5e-9 > tol apart
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 1315)
        tol = 1e-10
        report = eigenvalues_bisect(T, tol)
        oracle = np.linalg.eigvalsh(dense(T))
        scale = float(np.max(np.abs(oracle)))
        bound = 2 * T.n * np.finfo(np.float64).eps * scale
        assert float(np.max(np.abs(report.eigenvalues - oracle))) <= bound
        assert report.max_bracket > tol
        assert report.max_bracket <= 2 * math.ulp(scale)


@st.composite
def zero_diagonal_tridiagonal(draw):
    """An all-zero diagonal, at odd and even n from 2 to 121, under
    off-diagonals log-uniform over 16 decades or growing as (m + 1)^p, the
    sector truncations' shape."""
    n = 2 * draw(st.integers(1, 60)) + draw(st.sampled_from((0, 1)))
    if draw(st.booleans()):
        magnitudes = st.lists(st.floats(-8.0, 8.0), min_size=n - 1, max_size=n - 1)
        offdiag = [10.0**e for e in draw(magnitudes)]
    else:
        offdiag = np.arange(1.0, n) ** draw(st.sampled_from((0.5, 1.0, 1.5, 2.0)))
    return TridiagonalMatrix(diag=np.zeros(n), offdiag=offdiag)


def counted_shifts(monkeypatch) -> list:
    """Record every pass of `_sturm_counts` as (shifts, tiny flags)."""
    real, passes = spectra._sturm_counts, []

    def record(T, xs):
        counts, tiny = real(T, xs)
        passes.append((xs.copy(), tiny.copy()))
        return counts, tiny

    monkeypatch.setattr(spectra, "_sturm_counts", record)
    return passes


# at (k, kappa, n) = (4, 0, 41) the last pivot is exactly 0 at this shift,
# the top eigenvalue to tol 1e-10 and a midpoint of its bisection, so
# count(x) + count(-x) = n + 1 there
TINY_PIVOT_SHIFT = 41712.79616257827


class TestMirroredHalf:
    """At an all-zero diagonal only the upper half of the spectrum is
    bisected and the rest mirrored, unless a tiny pivot breaks the
    symmetry of the counts: the bits stay those of plain bisection."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(T=zero_diagonal_tridiagonal())
    def test_bits_match_plain_bisection(self, T):
        lo, hi = T.gershgorin()
        tols = (1e-9, 1e-12, 0.25 * math.ulp(max(-lo, hi)))
        plain = plain_bisection_midpoints(T, tols)
        for tol in tols:
            got = eigenvalues_bisect(T, tol).eigenvalues
            assert got.tobytes() == plain[tol].tobytes(), (T.n, tol)

    def test_plain_negation_is_wrong_at_a_tiny_pivot(self):
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 41)
        diag, off_sq = T.diag.tolist(), (T.offdiag**2).tolist()
        pivmin = float(np.finfo(np.float64).tiny) * max(off_sq)
        x = TINY_PIVOT_SHIFT
        assert spectra._sturm_count_scalar(diag, off_sq, pivmin, x) == (41, True)
        assert spectra._sturm_count_scalar(diag, off_sq, pivmin, -x) == (1, True)
        plain = plain_bisection_midpoints(T, (1e-10,))[1e-10]
        assert plain[0] != -plain[40]
        got = eigenvalues_bisect(T, 1e-10).eigenvalues
        assert got.tobytes() == plain.tobytes()

    def test_partner_of_a_tiny_pivot_path_is_bisected(self, monkeypatch):
        # index 40 counts the tiny-pivot shift on its path, so index 0
        # goes on from there on its own, counting its negation; before it
        # no shift below the centre's bracket is counted
        passes = counted_shifts(monkeypatch)
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 41)
        got = eigenvalues_bisect(T, 1e-10).eigenvalues
        x = TINY_PIVOT_SHIFT
        at = next(i for i, (xs, tiny) in enumerate(passes) if x in xs[tiny].tolist())
        assert all(np.min(xs) > -1.0 for xs, _ in passes[: at + 1])
        assert any(-x in xs.tolist() for xs, _ in passes[at + 1 :])
        assert got.tobytes() == plain_midpoints(SectorParams(4, 0), 41, 0.0)[1e-10].tobytes()

    def test_no_tiny_pivot_leaves_the_lower_half_uncounted(self, monkeypatch):
        passes = counted_shifts(monkeypatch)
        for n in (40, 41):
            T = TridiagonalMatrix.truncation(SectorParams(2, 0), n)
            passes.clear()
            got = eigenvalues_bisect(T, 1e-9).eigenvalues
            assert not any(tiny[xs != 0.0].any() for xs, tiny in passes)
            assert all(np.min(xs) > -1.0 for xs, _ in passes)
            assert got.tobytes() == plain_midpoints(SectorParams(2, 0), n, 0.0)[1e-9].tobytes()

    def test_partner_of_a_tiny_pivot_certificate_is_certified(self, monkeypatch):
        # a seed whose upper bracket end is the tiny-pivot shift: index 40
        # then decides that midpoint by its bracket, with no count, and
        # index 0 cannot take the bracket negated (count(-x) = 1 > 0), so
        # it is certified around its own seed and bisected
        T = TridiagonalMatrix.truncation(SectorParams(4, 0), 41)
        seed = spectra._lapack_seed(T)[0].copy()
        # start width 0: every half-width is min(tol / 2, 8 eps max|seed|)
        half = min(0.5e-10, 8 * np.finfo(np.float64).eps * float(np.max(np.abs(seed))))
        seed[40] = TINY_PIVOT_SHIFT - half
        assert seed[40] + half == TINY_PIVOT_SHIFT
        monkeypatch.setattr(spectra, "_lapack_seed", lambda T: (seed, 0))
        passes = counted_shifts(monkeypatch)
        got = eigenvalues_bisect(T, 1e-10).eigenvalues
        first, second = passes[0][0], passes[1][0]
        assert TINY_PIVOT_SHIFT in first.tolist() and np.min(first) > -1.0
        assert np.array_equal(second, [seed[0] - half, seed[0] + half])
        assert got.tobytes() == plain_midpoints(SectorParams(4, 0), 41, 0.0)[1e-10].tobytes()


class TestTruncationInterlacing:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, k - 1), st.integers(1, 150))))
    def test_n_and_n_plus_1_interlace_strictly(self, case):
        k, kappa, n = case
        sector = SectorParams(k, kappa)
        small, large = (
            eigenvalues_bisect(TridiagonalMatrix.truncation(sector, size), 1e-9).eigenvalues
            for size in (n, n + 1)
        )
        assert strict_interlacing(small, large)


class TestExtensionSweep:
    def test_theta_zero_is_plain_truncation(self):
        sector = SectorParams(3, 0)
        reports = extension_sweep(sector, 60, [0.0], 1e-9)
        plain = eigenvalues_bisect(TridiagonalMatrix.truncation(sector, 60), 1e-9)
        assert np.allclose(reports[0].eigenvalues, plain.eigenvalues, atol=1e-12)

    def test_identical_theta_gives_zero_cross_gap(self):
        sector = SectorParams(3, 0)
        reports = extension_sweep(sector, 60, [0.3, 0.3], 1e-9)
        diag = spectrum_diagnostics(reports, window=20.0)
        assert diag.cross_theta_min_gap == pytest.approx(0.0, abs=1e-12)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            extension_sweep(SectorParams(3, 0), 10, [0.0], 1e-9)


class TestDiagnostics:
    def test_interlacing_consecutive_sizes(self):
        sector = SectorParams(3, 0)
        for n in (10, 50, 120, 199):
            small = eigenvalues_bisect(TridiagonalMatrix.truncation(sector, n), 1e-10)
            large = eigenvalues_bisect(TridiagonalMatrix.truncation(sector, n + 1), 1e-10)
            assert strict_interlacing(small.eigenvalues, large.eigenvalues)
            diag = spectrum_diagnostics([small, large], window=10.0)
            assert diag.interlacing == ((n, n + 1, True),)

    def test_nearest_distance(self):
        values = np.array([0.0, 1.0, 4.0])
        targets = np.array([-0.5, 2.2, 4.0])
        assert np.allclose(nearest_distance(values, targets), [0.5, 1.2, 0.0])

    def test_needs_two_reports(self):
        sector = SectorParams(2, 0)
        rep = eigenvalues_bisect(TridiagonalMatrix.truncation(sector, 60), 1e-9)
        with pytest.raises(ValueError):
            spectrum_diagnostics([rep], window=1.0)

    def test_min_spacing_near_zero(self):
        sector = SectorParams(2, 0)
        reps = [
            eigenvalues_bisect(TridiagonalMatrix.truncation(sector, n), 1e-10)
            for n in (60, 61)
        ]
        diag = spectrum_diagnostics(reps, window=5.0)
        assert diag.min_spacing_near_zero is not None
        assert 0 < diag.min_spacing_near_zero < 5.0


class TestContinuousSpectrumSignature:
    def test_k2_near_zero_spacing_shrinks_with_n(self):
        # the local spacing near 0 contracts as the truncation grows, the
        # finite-size trace of spectrum filling the whole line
        spacings = []
        for n in (100, 200, 400):
            ev = eigenvalues_bisect(
                TridiagonalMatrix.truncation(SectorParams(2, 0), n), 1e-10
            ).eigenvalues
            inside = ev[np.abs(ev) <= 4.0]
            spacings.append(float(np.min(np.diff(inside))))
        assert spacings[0] > spacings[1] > spacings[2]


class TestSectorDegeneracyTrend:
    def test_k2_sectors_approach_double_coverage(self):
        # merged even/odd-sector spectra: the distance from each central
        # even-sector eigenvalue to the odd-sector spectrum shrinks with n
        window = 2.0
        gaps = []
        for n in (100, 200, 400):
            even = eigenvalues_bisect(
                TridiagonalMatrix.truncation(SectorParams(2, 0), n), 1e-10
            ).eigenvalues
            odd = eigenvalues_bisect(
                TridiagonalMatrix.truncation(SectorParams(2, 1), n), 1e-10
            ).eigenvalues
            central = even[np.abs(even) <= window]
            assert len(central) > 0
            gaps.append(float(np.max(nearest_distance(odd, central))))
        assert gaps[0] > gaps[1] > gaps[2]
