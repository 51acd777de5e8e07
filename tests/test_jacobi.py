"""Off-diagonals, commutator weights, and the three-term recursion solver."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powersqueeze import (
    InitialKind,
    NumericsError,
    OffDiagonalSequence,
    SectorParams,
    commutator_weight,
    growth_profile,
    hermite_identity_check,
    log_off_diagonal,
    off_diagonal,
    off_diagonal_squared,
    solve_recursion,
)
from powersqueeze import jacobi
from powersqueeze.jacobi import envelope_fit, log_partial_sums_of_squares

from mp_recurrence import mp_recurrence


class TestSectorParams:
    def test_validation(self):
        SectorParams(1, 0)
        SectorParams(5, 4)
        with pytest.raises(ValueError):
            SectorParams(0, 0)
        with pytest.raises(ValueError):
            SectorParams(2, 2)
        with pytest.raises(ValueError):
            SectorParams(2, -1)


class TestOffDiagonal:
    def test_k2_kappa0_m0(self):
        assert off_diagonal(SectorParams(2, 0), 0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_k2_kappa1_m0(self):
        assert off_diagonal(SectorParams(2, 1), 0) == pytest.approx(math.sqrt(6), rel=1e-15)

    def test_k1_factorial_ratio_oracle(self):
        # single-factor product; oracle is the direct factorial ratio (m+1)!/m!
        sector = SectorParams(1, 0)
        for m in range(11):
            oracle = math.factorial(m + 1) // math.factorial(m)
            assert off_diagonal(sector, m) == pytest.approx(math.sqrt(oracle), rel=1e-15)

    def test_square_equals_integer_product(self):
        for k, kappa in ((1, 0), (2, 1), (3, 2), (5, 3)):
            sector = SectorParams(k, kappa)
            for m in (0, 1, 7, 100):
                exact = off_diagonal_squared(sector, m)
                n0 = m * k + kappa + 1
                assert exact == math.prod(range(n0, n0 + k))
                assert off_diagonal(sector, m) ** 2 == pytest.approx(exact, rel=1e-14)

    def test_strictly_increasing(self):
        seq = OffDiagonalSequence.build(SectorParams(3, 1), 500).values
        assert np.all(np.diff(seq) > 0)

    @pytest.mark.parametrize("m", [1000, 10000])
    def test_asymptotic_scaling(self, m):
        for k, kappa in ((1, 0), (2, 1), (3, 0)):
            value = off_diagonal(SectorParams(k, kappa), m)
            assert value / m ** (k / 2) == pytest.approx(k ** (k / 2), rel=1e-2)

    def test_k3_large_m_example(self):
        value = off_diagonal(SectorParams(3, 0), 1000)
        assert value / 1000**1.5 == pytest.approx(3**1.5, rel=1e-2)

    def test_array_matches_scalar(self):
        sector = SectorParams(4, 2)
        seq = OffDiagonalSequence.build(sector, 50).values
        for m in range(50):
            assert seq[m] == pytest.approx(off_diagonal(sector, m), rel=1e-14)

    def test_log_domain_switch(self):
        # beyond the integer-to-float conversion range but still representable
        sector = SectorParams(5, 0)
        m = 10**60
        value = off_diagonal(sector, m)
        assert math.isfinite(value)
        assert math.log(value) == pytest.approx(log_off_diagonal(sector, m), rel=1e-12)

    def test_overflow_reports_index(self):
        with pytest.raises(OverflowError, match="m=1000000"):
            off_diagonal(SectorParams(5, 0), 10**0 * 1000000 * 10**117)

    def test_sequence_products_past_binary64(self):
        # k = 100: b_m^2 overflows binary64 from m = 12 on, b_m itself does not.
        # Those entries get off_diagonal's log-domain value, without a
        # warning; the entries below keep the float product's bits.
        sector = SectorParams(100, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = OffDiagonalSequence.build(sector, 200).values
        m = np.arange(200, dtype=np.float64)
        prod = np.ones(200)
        with np.errstate(over="ignore"):
            for p in range(100):
                prod *= m * 100 + 7 + 1 + p
        finite = np.isfinite(prod)
        assert 0 < finite.sum() < 200
        assert np.array_equal(values[finite], np.sqrt(prod[finite]))
        assert [values[j] for j in np.flatnonzero(~finite)] == [
            off_diagonal(sector, int(j)) for j in np.flatnonzero(~finite)
        ]

    def test_sequence_overflow_names_build(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"^jacobi\.OffDiagonalSequence\.build: .*m = 399"):
                OffDiagonalSequence.build(SectorParams(250, 0), 400)


def reference_build(sector: SectorParams, length: int) -> np.ndarray:
    """b_0..b_{length-1} by the formula `OffDiagonalSequence.build` had
    before it became one in-place route: a ones array times each factor
    m k + kappa + 1 + p, the square root, and `off_diagonal` for every
    overflowed product, with the same refusal when b_{length-1} overflows."""
    m = np.arange(length, dtype=np.float64)
    prod = np.ones(length)
    with np.errstate(over="ignore"):
        for p in range(sector.k):
            prod *= m * sector.k + sector.kappa + 1 + p
    values = np.sqrt(prod)
    if math.isinf(values[-1]):
        if log_off_diagonal(sector, length - 1) > math.log(np.finfo(np.float64).max):
            raise NumericsError(
                f"jacobi.OffDiagonalSequence.build: b_m overflows binary64 at "
                f"m = {length - 1} (sector k={sector.k}, kappa={sector.kappa})"
            )
        for j in np.flatnonzero(np.isinf(prod)).tolist():
            values[j] = off_diagonal(sector, j)
    return values


class TestOffDiagonalSequenceRoute:
    """`OffDiagonalSequence.build` multiplies the exact factors in place and
    sends overflowed entries straight to the log sum; its bits and its
    refusals are those of reference_build."""

    # from k = 100 on the float products of the top entries overflow and
    # take the log sum (at k = 250 already b_0's); b_m itself overflows, and
    # both refuse, at k = 100 for length 1e5 and at k = 250 from length 2 on
    # (kappa = 249: length 1), (250, 0, 400) included
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 10, 20, 40, 100, 250])
    def test_bits_match_reference(self, k):
        for kappa in sorted({0, k // 2, k - 1}):
            sector = SectorParams(k, kappa)
            for length in (1, 2, 7, 255, 256, 257, 400, 4097, 100_000):
                try:
                    expected = reference_build(sector, length)
                except NumericsError as exc:
                    with pytest.raises(NumericsError, match=f"^{re.escape(str(exc))}$"):
                        OffDiagonalSequence.build(sector, length)
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = OffDiagonalSequence.build(sector, length).values
                assert np.array_equal(got, expected), (k, kappa, length)

    @pytest.mark.parametrize("k, kappa", [(1, 0), (3, 2), (100, 0), (100, 99)])
    def test_any_shape_of_indices(self, k, kappa):
        # a pass of the positive recursion at lambda' = i fills a 2-D array
        # of indices, in any order: each entry gets the bits that build
        # gives its index, the log-sum entries of k = 100 included
        sector = SectorParams(k, kappa)
        m = np.random.default_rng(7).permutation(5000).reshape(50, 100)
        got = jacobi._fill_off_diagonal(sector, m.astype(np.float64))
        assert np.array_equal(got, OffDiagonalSequence.build(sector, 5000).values[m])

    def test_any_shape_overflow_names_the_largest_index(self):
        # as build names m = length - 1, the largest overflowing index
        # is named wherever it sits
        indices = np.array([[5.0, 99_999.0], [70_000.0, 3.0]])
        with pytest.raises(NumericsError, match=r"^jacobi\.OffDiagonalSequence\.build: .*m = 99999 "):
            jacobi._fill_off_diagonal(SectorParams(100, 50), indices)

    @pytest.mark.parametrize(("k", "N", "arrays"), [(1, 2_000_000, 1.1), (2, 1_250_000, 2.1)])
    def test_peak_memory(self, k, N, arrays):
        # one float64 N-array for the product, and at k >= 2 the factor of
        # one chunk of 2^17 entries (1.105 at N = 1.25e6; the classify test
        # at the cap bounds the chunk); an index array, a ones array or a
        # temporary per factor breaks the bound
        tracemalloc.start()
        try:
            OffDiagonalSequence.build(SectorParams(k, 0), N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * N


class TestCommutatorWeight:
    def test_k1_is_one(self):
        for n in (0, 1, 5, 40):
            assert commutator_weight(1, n) == 1

    def test_k2_example(self):
        # linear form 4N + 2 at N = 3
        assert commutator_weight(2, 3) == 14

    def test_k3_at_zero(self):
        # factorial-difference oracle: 3!/0! - 0
        assert commutator_weight(3, 0) == 6

    def test_factorial_difference_oracle(self):
        for k in (1, 2, 3, 4):
            for n in range(0, 12):
                rising = math.factorial(n + k) // math.factorial(n)
                falling = 0 if n < k else math.factorial(n) // math.factorial(n - k)
                assert commutator_weight(k, n) == rising - falling

    def test_k3_quadratic_form(self):
        # direct expansion of the defining difference is 9N^2 + 9N + 6
        for n in range(0, 20):
            assert commutator_weight(3, n) == 9 * n * n + 9 * n + 6

    def test_strictly_increasing_for_k_ge_2(self):
        for k in (2, 3, 5):
            values = [commutator_weight(k, n) for n in range(30)]
            assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)


class TestSolveRecursion:
    def test_k1_single_step(self):
        # b_0 = 1 forces f_1 = lambda'
        for lam in (0.7, -2.0, 1 + 2j):
            sol = solve_recursion(SectorParams(1, 0), lam, 1)
            assert sol.value(1) == pytest.approx(lam, rel=1e-15)

    def test_hand_unrolled_k2(self):
        # b_0 = sqrt(2), b_1 = sqrt(12): f_1 = 0, f_2 = -1/sqrt(6)
        sol = solve_recursion(SectorParams(2, 0), 0.0, 2)
        assert sol.value(0) == 1.0
        assert sol.value(1) == 0.0
        assert sol.value(2).real == pytest.approx(-1.0 / math.sqrt(6), rel=1e-15)

    def test_second_kind_initial_data(self):
        sector = SectorParams(3, 1)
        sol = solve_recursion(sector, 1.3 - 0.4j, 10, InitialKind.SECOND)
        assert sol.value(0) == 0.0
        assert sol.value(1) == pytest.approx(1.0 / off_diagonal(sector, 0), rel=1e-15)

    @pytest.mark.parametrize("kind", [InitialKind.POLYNOMIAL, InitialKind.SECOND])
    @pytest.mark.parametrize("lam", [0.0, 2.5, -1.0 + 0.3j, 1j, 17.0])
    def test_residual_invariant(self, kind, lam):
        for k, kappa in ((1, 0), (2, 1), (4, 2), (5, 3)):
            sol = solve_recursion(SectorParams(k, kappa), lam, 500, kind)
            assert sol.max_residual <= 1e-12

    def test_no_overflow_at_cutoff_cap(self):
        # growing k=1 solution at a non-real point: plain values exceed the
        # binary64 range near m ~ 6e4, the scaled storage does not
        sol = solve_recursion(SectorParams(1, 0), 3j, 100_000)
        assert not np.any(np.isnan(sol.log_abs))
        assert not np.any(np.isposinf(sol.log_abs))
        assert sol.log_abs[-1] > 800.0  # exp would overflow
        assert sol.max_residual <= 1e-12

    def test_decaying_cap_run(self):
        sol = solve_recursion(SectorParams(5, 3), 3 + 2j, 100_000)
        assert not np.any(np.isnan(sol.log_abs))
        assert sol.max_residual <= 1e-12

    def test_real_lambda_gives_real_solution(self):
        sol = solve_recursion(SectorParams(2, 0), -3.7, 100)
        values = sol.values()
        assert np.all(values.imag == 0.0)

    def test_conjugation_symmetry(self):
        sector = SectorParams(3, 0)
        lam = 1.2 + 0.7j
        a = solve_recursion(sector, lam, 60).values()
        b = solve_recursion(sector, lam.conjugate(), 60).values()
        assert np.allclose(a.conjugate(), b, rtol=1e-13, atol=0)

    def test_polynomial_degree_property(self):
        # f_m is a degree-m polynomial in lambda': interpolation through m+1
        # nodes must reproduce it at fresh points
        sector = SectorParams(2, 1)
        for m in range(1, 11):
            nodes = np.linspace(-2.0, 2.0, m + 1)
            samples = np.array(
                [solve_recursion(sector, x, m).value(m).real for x in nodes]
            )
            for probe in (-0.37, 2.11):
                # barycentric Lagrange evaluation
                weights = np.array(
                    [1.0 / np.prod(nodes[i] - np.delete(nodes, i)) for i in range(m + 1)]
                )
                numer = np.sum(weights * samples / (probe - nodes))
                denom = np.sum(weights / (probe - nodes))
                direct = solve_recursion(sector, probe, m).value(m).real
                assert numer / denom == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_wronskian_constant(self):
        # b_m (f_{m+1} g_m - f_m g_{m+1}) is m-independent; equals -1 for the
        # fundamental pair by the initial data.  Constancy is relative to the
        # size of the two products: for growing solutions the -1 emerges from
        # cancellation of huge terms, so only that relative scale is meaningful.
        for lam in (0.9, -2.2 + 1.1j):
            for k, kappa in ((1, 0), (3, 2)):
                sector = SectorParams(k, kappa)
                f = solve_recursion(sector, lam, 200, InitialKind.POLYNOMIAL).values()
                g = solve_recursion(sector, lam, 200, InitialKind.SECOND).values()
                b = OffDiagonalSequence.build(sector, 200).values
                left = b[:199] * f[1:200] * g[:199]
                right = b[:199] * f[:199] * g[1:200]
                scale = np.maximum(1.0, np.abs(left) + np.abs(right))
                assert np.all(np.abs(left - right + 1.0) / scale <= 1e-10)


class TestSolveRecursionOracle:
    """solve_recursion at the points of acceptance criteria 1 (k = 2,
    lambda' = 4 ell, M = 30, tolerance 1e-9) and 2 (k = 1, M = 20,
    tolerance 1e-10) against the 40-digit recurrence on the same float b_m.
    The compensated kernel measured 2.4e-14 and 3.3e-15 there; a kernel
    that replaces it must pass the same tolerances."""

    @staticmethod
    def worst_relative_error(sector, lam, M):
        b = OffDiagonalSequence.build(sector, M).values
        with mpmath.workdps(40):
            exact = mp_recurrence(b, lam, 1, mpmath.mpf(lam) / mpmath.mpf(float(b[0])), 40)
            got = solve_recursion(sector, lam, M).values()
            worst = 0.0
            for g, e in zip(got, exact):
                if g == 0 and e == 0:
                    continue  # exact nodes, e.g. odd m at lambda' = 0
                worst = max(worst, float(abs(g - e) / max(abs(e), abs(g))))
        return worst

    @pytest.mark.parametrize("kappa", [0, 1])
    @pytest.mark.parametrize("ell", [0.0, 0.5, -0.5, 2.0, -2.0])
    def test_criterion_1_points(self, kappa, ell):
        assert self.worst_relative_error(SectorParams(2, kappa), 4.0 * ell, 30) <= 1e-9

    @pytest.mark.parametrize("lam", [0.6, -1.3])
    def test_criterion_2_points(self, lam):
        assert self.worst_relative_error(SectorParams(1, 0), lam, 20) <= 1e-10


class TestHermiteIdentity:
    def test_lambda_zero_parity(self):
        # odd coefficients are identically zero on both sides
        assert hermite_identity_check(0.0, 40) <= 1e-12

    @pytest.mark.parametrize("lam", [0.6, -1.3])
    def test_real_arguments(self, lam):
        assert hermite_identity_check(lam, 20) <= 1e-10

    def test_longer_run_in_log_domain(self):
        assert hermite_identity_check(0.6, 100) <= 1e-9

    def test_complex_argument(self):
        assert hermite_identity_check(0.4 + 0.8j, 60) <= 1e-9


class TestGrowthProfile:
    def test_limit_circle_decay_k3(self):
        prof = growth_profile(SectorParams(3, 0), 0.0, 5000)
        assert prof.fit_ok
        assert prof.exponent == pytest.approx(-0.75, abs=0.1)
        # partial sums converge
        assert prof.cauchy_ratio() < 0.01

    def test_divergent_growth_k1(self):
        prof = growth_profile(SectorParams(1, 0), 0.5, 5000)
        ratio = prof.partial_sum(5000) / math.sqrt(5000)
        assert 0.5 <= ratio <= 2.0
        # unbounded: the second half contributes a fixed fraction
        assert prof.cauchy_ratio() > 0.25

    def test_hand_unrolled_partial_sum(self):
        # S_2 = 1 + 0 + 1/6 for the k=2 solution at lambda' = 0
        sol = solve_recursion(SectorParams(2, 0), 0.0, 2)
        sums = log_partial_sums_of_squares(sol.log_abs)
        assert math.exp(sums[2]) == pytest.approx(1.0 + 1.0 / 6.0, rel=1e-14)

    def test_envelope_fit_rejects_tiny_windows(self):
        # the final decade of f_0..f_20 is [2, 20], 19 points
        sol = solve_recursion(SectorParams(2, 0), 1.5, 20)
        slope, count = envelope_fit(sol.log_abs)
        assert count < 20

    def test_min_m(self):
        with pytest.raises(ValueError):
            growth_profile(SectorParams(1, 0), 0.0, 50)


_NEG_INF = float("-inf")


def reference_envelope_fit(log_abs: np.ndarray, lo: int, hi: int):
    """Copy of `jacobi.envelope_fit` as it was when it selected the local
    maxima in a Python loop and fitted them with `np.polyfit`; the oracle
    for the array-mask selection and the closed-form slope.  Returns
    (slope, number of points, the points)."""
    lo = max(lo, 1)
    idx = []
    for i in range(lo, hi + 1):
        v = log_abs[i]
        if v == _NEG_INF:
            continue
        left = log_abs[i - 1]
        right = log_abs[i + 1] if i + 1 < len(log_abs) else _NEG_INF
        if v >= left and v >= right:
            idx.append(i)
    if len(idx) < 20:
        idx = [i for i in range(lo, hi + 1) if log_abs[i] != _NEG_INF]
    if len(idx) < 2:
        return None, len(idx), idx
    xs = np.log(np.array(idx, dtype=np.float64))
    ys = log_abs[idx]
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope), len(idx), idx


@st.composite
def envelope_arrays(draw):
    """A log|f| array with -inf holes, ties and plateaus (few distinct
    values)."""
    # Hypothesis draws short lists unless told a size: long ones are
    # needed for 20 maxima in the final decade
    n = draw(st.one_of(st.integers(1, 30), st.integers(40, 200)))
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([_NEG_INF, -1.0, 0.0, 0.5, 2.0]),
                st.floats(-40.0, 40.0),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(values)


class TestEnvelopeFitSelection:
    """The array-mask maxima selection and the closed-form slope give the
    loop's count and its `np.polyfit` slope over the final decade."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(envelope_arrays())
    # plateau: every point is a maximum; zigzags: 18, 19, 20 and 37 maxima
    # in the final decade, the last one at the end of the array; a plateau
    # of ties at every peak; -inf holes between 28 maxima; monotone and all
    # -inf: the fallbacks, to every point of the window and to none
    @example(np.zeros(50))
    @example(np.tile([0.0, 1.0], 19))
    @example(np.tile([0.0, 1.0], 20))
    @example(np.tile([0.0, 1.0], 22))
    @example(np.tile([0.0, 1.0], 40))
    @example(np.tile([0.0, 1.0, 1.0, 0.5], 12))
    @example(np.tile([1.0, _NEG_INF, 0.5], 30))
    @example(np.linspace(-5.0, 5.0, 60))
    @example(np.full(30, _NEG_INF))
    def test_bits_match_loop(self, log_abs):
        M = len(log_abs) - 1
        slope, count = envelope_fit(log_abs)
        ref, ref_count, points = reference_envelope_fit(log_abs, M // 10, M)
        assert count == ref_count and (slope is None) == (ref is None)
        if ref is not None:
            # rounding x = log m and y = log|f| moves a least-squares slope
            # by about eps (|slope| max|x| + max|y|) / ptp(x); these windows
            # reach ptp(x) = 1e-3, where no fit keeps 1e-14 relative
            x, y = np.log(np.array(points, dtype=np.float64)), log_abs[points]
            scale = (abs(ref) * np.max(np.abs(x)) + np.max(np.abs(y))) / np.ptp(x)
            assert abs(slope - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("k, kappa, lam", [(1, 0, 1j), (2, 1, 1j), (3, 0, 1j), (2, 0, 1.5)])
    def test_bits_match_loop_on_solutions(self, k, kappa, lam):
        for kind in InitialKind:
            log_abs = solve_recursion(SectorParams(k, kappa), lam, 5000, kind).log_abs
            slope, count = envelope_fit(log_abs)
            ref, ref_count, _ = reference_envelope_fit(log_abs, 500, 5000)
            assert count == ref_count
            assert slope == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestErrorsNameTheModule:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SectorParams(0, 0), "jacobi.SectorParams: k must be >= 1, got 0"),
            (lambda: SectorParams(2, 2), "jacobi.SectorParams: kappa must lie in [0, 1], got 2"),
            (lambda: off_diagonal_squared(SectorParams(1, 0), -1),
             "jacobi.off_diagonal_squared: m must be >= 0, got -1"),
            (lambda: OffDiagonalSequence.build(SectorParams(1, 0), 0),
             "jacobi.OffDiagonalSequence.build: length must be >= 1, got 0"),
            (lambda: commutator_weight(0, 3), "jacobi.commutator_weight: k must be >= 1, got 0"),
            (lambda: commutator_weight(2, -1), "jacobi.commutator_weight: n must be >= 0, got -1"),
            (lambda: solve_recursion(SectorParams(1, 0), 0.5, 0),
             "jacobi.solve_recursion: M must be >= 1, got 0"),
            (lambda: growth_profile(SectorParams(1, 0), 0.5, 50),
             "jacobi.growth_profile: M must be >= 100, got 50"),
        ],
        ids=["k", "kappa", "squared-m", "build-length", "commutator-k", "commutator-n",
             "recursion-M", "growth-M"],
    )
    def test_errors_name_the_module(self, call, message):
        with pytest.raises(ValueError, match=r"^jacobi\.[\w.]+: ") as excinfo:
            call()
        assert str(excinfo.value) == message
