"""Quadrature, moments, Hankel positivity, coefficient recovery, determinacy."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from powersqueeze import (
    JacobiRecoveryError,
    QuadratureError,
    SectorParams,
    Verdict,
    classify_determinacy,
    hankel_positive,
    integrate_weighted,
    moments,
    moments_to_jacobi,
    off_diagonal,
    pollaczek_table,
    weight_rho,
)
from powersqueeze.moments import (
    _CACHED_PANELS,
    _GL_ORDER,
    _MAX_REFINEMENTS,
    _cached_panel_grid,
    _choose_cutoff,
    _tail_bound,
)
from powersqueeze.jacobi import off_diagonal_squared


def exact_moment(b: float, order: int) -> Fraction:
    """Closed-walk oracle: s_order = sum over +-1 walks 0 -> 0 with an
    up-step into height j carrying weight c_j^2 = j (j + 2b - 1) / 4.

    Each edge of a closed walk is crossed up and down equally often, so
    attaching the full c^2 to the up-crossing reproduces the product of
    recurrence coefficients exactly; everything stays rational.
    """
    bf = Fraction(b)
    state = {0: Fraction(1)}
    for _ in range(order):
        new: dict[int, Fraction] = {}
        for pos, w in state.items():
            up = pos + 1
            new[up] = new.get(up, Fraction(0)) + w * (Fraction(up) * (up + 2 * bf - 1) / 4)
            if pos > 0:
                new[pos - 1] = new.get(pos - 1, Fraction(0)) + w
        state = new
    return state.get(0, Fraction(0))


def reference_integrate_weighted(f, b: float, tol: float, degree: int = 0) -> tuple[float, float]:
    """Verbatim copy of `moments.integrate_weighted` as it was before it
    kept the Gauss-Legendre rule and the (b, X, panels) grids: every call
    builds both anew.  The oracle for the cached version's bits."""
    if b <= 0:
        raise ValueError(f"b must be > 0, got {b}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    probe = np.linspace(-64.0, 64.0, 513)
    denom = np.maximum(1.0, np.abs(probe) ** degree)
    coeff = 2.0 * float(np.max(np.abs(np.asarray(f(probe), dtype=np.float64)) / denom))
    coeff = max(coeff, 1e-12)
    X = _choose_cutoff(b, degree, coeff, tol)
    tail = _tail_bound(b, degree, X, coeff)

    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)

    def composite(panels: int) -> tuple[float, float]:
        """The composite rule and its sum of |contributions| (~ int |f| rho)."""
        edges = np.linspace(-X, X, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid[:, None] + half * nodes[None, :]).ravel()
        vals = np.asarray(f(pts), dtype=np.float64) * weight_rho(b, pts)
        contrib = (half * (vals.reshape(panels, _GL_ORDER) * weights[None, :])).ravel()
        # fixed summation order for byte-reproducible results; the
        # magnitude only scales a roundoff floor and needs no exact sum
        return math.fsum(contrib.tolist()), float(np.sum(np.abs(contrib)))

    panels = max(8, int(math.ceil(X / 2.0)))
    current, _ = composite(panels)
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        previous = current
        current, magnitude = composite(panels)
        delta = abs(current - previous)
        # roundoff of the sum scales with int |f| rho, which for an odd
        # integrand is far above the (vanishing) result itself
        floor = 1e-14 * magnitude
        if delta <= 0.5 * tol + floor:
            return current, delta + tail + floor
    raise QuadratureError(
        f"moments.integrate_weighted: no convergence to {tol:g} after "
        f"{_MAX_REFINEMENTS} refinements (last two estimates {previous!r}, "
        f"{current!r})",
        (previous, current),
    )


def _orthonormality_integrands(b: float, degree: int):
    """(f, degree) for P_i P_j, i <= j <= degree, as a table is checked."""

    def product(i, j):
        def f(x):
            rows = pollaczek_table(j, x, b)
            return rows[i] * rows[j]

        return f

    return [(product(i, j), i + j) for i in range(degree + 1) for j in range(i, degree + 1)]


class TestGridCache:
    """Kept grids give the uncached rule's bits, stay bounded and read-only."""

    @pytest.mark.parametrize("b", [0.25, 0.75])
    def test_bits_match_uncached_rule(self, b):
        cases = [(lambda x, m=m: x**m, m) for m in range(25)]
        cases += _orthonormality_integrands(b, 6)
        cases += [(lambda x: np.cos(3.0 * x), 0), (lambda x: np.exp(-x * x) * x**3, 3)]
        expected = [reference_integrate_weighted(f, b, tol, degree=d) for f, d in cases for tol in (1e-8, 1e-10)]
        _cached_panel_grid.cache_clear()
        for _ in range(2):  # cold, then warm
            got = [integrate_weighted(f, b, tol, degree=d) for f, d in cases for tol in (1e-8, 1e-10)]
            assert got == expected
        assert _cached_panel_grid.cache_info().hits > 0

    def test_failure_matches_uncached_rule_and_keeps_cache_bounded(self, monkeypatch):
        # a refinement run to the cap: the same QuadratureError as the
        # uncached rule, and at most 8 kept grids, none of them above
        # _CACHED_PANELS panels; larger grids are built and dropped
        def rough(x):
            return 1.0 / (1e-8 + x * x)

        moments_module = importlib.import_module("powersqueeze.moments")
        uncached = []
        original = moments_module._panel_grid

        def recording(b, X, panels):
            uncached.append(panels)
            return original(b, X, panels)

        with pytest.raises(QuadratureError) as ref:
            reference_integrate_weighted(rough, 0.25, 1e-13)
        monkeypatch.setattr(moments_module, "_panel_grid", recording)
        _cached_panel_grid.cache_clear()
        with pytest.raises(QuadratureError) as got:
            integrate_weighted(rough, 0.25, 1e-13)
        assert str(got.value) == str(ref.value)
        assert got.value.last_estimates == ref.value.last_estimates
        info = _cached_panel_grid.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8
        assert uncached and min(uncached) > _CACHED_PANELS
        assert info.misses + len(uncached) == _MAX_REFINEMENTS + 1

    def test_grid_arrays_are_read_only(self):
        pts, half, rho = _cached_panel_grid(0.25, 20.0, 16)
        assert pts.shape == rho.shape == (16 * _GL_ORDER,)
        assert half == pytest.approx(20.0 / 16)
        for array in (pts, rho):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert np.array_equal(rho, weight_rho(0.25, pts))


class TestIntegrateWeighted:
    def test_normalization(self):
        value, err = integrate_weighted(lambda x: np.ones_like(x), 0.25, 1e-8)
        assert abs(value - 1.0) <= 1e-8
        assert err <= 1e-7

    def test_normalization_against_trapezoid(self):
        # independent oracle: wide-interval trapezoid at high resolution
        xs = np.linspace(-50.0, 50.0, 200_001)
        w = weight_rho(0.25, xs)
        dx = xs[1] - xs[0]
        oracle = float(dx * (0.5 * w[0] + np.sum(w[1:-1]) + 0.5 * w[-1]))
        value, _ = integrate_weighted(lambda x: np.ones_like(x), 0.25, 1e-8)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_degree_two_orthonormality(self):
        def f(x):
            return pollaczek_table(2, x, 0.25)[2] ** 2

        value, _ = integrate_weighted(f, 0.25, 1e-8, degree=4)
        assert abs(value - 1.0) <= 1e-8

    def test_odd_integrand_vanishes(self):
        value, _ = integrate_weighted(lambda x: x, 0.25, 1e-8, degree=1)
        assert abs(value) <= 1e-10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integrate_weighted(lambda x: x, -1.0, 1e-8)
        with pytest.raises(ValueError):
            integrate_weighted(lambda x: x, 0.5, 0.0)

    @pytest.mark.parametrize(("b", "tol"), [(1e-4, 1e-4), (1e-4, 1e-5), (3e-4, 1e-10)])
    def test_unit_mass_at_the_b_floor(self, b, tol):
        # just above the floor the spike at x = 0 is resolved, and s_0 = 1
        # lies within the returned error
        value, err = integrate_weighted(lambda x: np.ones_like(x), b, tol)
        assert abs(value - 1.0) <= err

    def test_refuses_b_just_below_the_floor(self):
        with pytest.raises(ValueError, match=r"b must be >= 0\.0001, got 9\.99e-05"):
            integrate_weighted(lambda x: np.ones_like(x), 9.99e-5, 1e-4)

    def test_no_convergence_carries_last_estimates(self):
        from powersqueeze import QuadratureError

        def rough(x):
            # needle of width 1e-4, far below the panel width at the cap
            return 1.0 / (1e-8 + x * x)

        with pytest.raises(QuadratureError) as info:
            integrate_weighted(rough, 0.25, 1e-13, degree=0)
        assert len(info.value.last_estimates) == 2
        assert all(math.isfinite(v) for v in info.value.last_estimates)
        previous, current = info.value.last_estimates
        assert previous != current


class TestMoments:
    def test_first_moments(self):
        seq = moments(0.25, 4, 1e-10)
        assert seq.values[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(seq.values[1]) <= 1e-10
        assert seq.values[2] == pytest.approx(0.125, abs=1e-8)

    def test_b_three_quarters_variance(self):
        # c_1^2 = 1 * (2b) / 4
        seq = moments(0.75, 2, 1e-10)
        assert seq.values[2] == pytest.approx(0.375, abs=1e-8)

    @pytest.mark.parametrize("b", [0.25, 0.75])
    def test_exact_walk_oracle(self, b):
        seq = moments(b, 10, 1e-11)
        for m in range(11):
            expected = float(exact_moment(b, m))
            assert seq.values[m] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_odd_moments_within_budget(self):
        for b in (0.25, 0.75):
            seq = moments(b, 23, 1e-10)
            odd = seq.values[1::2]
            assert np.all(np.abs(odd) <= np.maximum(seq.quad_error[1::2], 1e-10))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            moments(0.25, 25, 1e-8)


class TestHankelPositive:
    def test_weight_moments_positive(self):
        seq = moments(0.25, 10, 1e-10)
        check = hankel_positive(seq)
        assert check.positive
        assert check.failing_order is None

    def test_point_mass_fails_at_two(self):
        check = hankel_positive([1.0, 0.0, 0.0, 0.0, 0.0])
        assert not check.positive
        assert check.failing_order == 2

    def test_negative_variance_fails_at_two(self):
        check = hankel_positive([1.0, 0.0, -1.0])
        assert not check.positive
        assert check.failing_order == 2

    def test_failure_is_monotone_in_order(self):
        # once a minor fails, every larger minor fails too
        vals = [1.0, 0.0, 0.0, 0.0, 0.0]
        for order in (2, 3):
            H = np.array([[vals[i + j] for j in range(order)] for i in range(order)])
            assert float(np.linalg.eigvalsh(H)[0]) <= 0.0


class TestMomentsToJacobi:
    @pytest.mark.parametrize("b,kappa", [(0.25, 0), (0.75, 1)])
    def test_roundtrip_to_quarter_offdiagonals(self, b, kappa):
        seq = moments(b, 18, 1e-10)
        rec = moments_to_jacobi(seq, 8)
        sector = SectorParams(2, kappa)
        for m in range(1, 9):
            target = off_diagonal(sector, m - 1) / 4.0
            assert rec.offdiag[m - 1] == pytest.approx(target, abs=1e-6)
            assert rec.offdiag[m - 1] == pytest.approx(
                math.sqrt(m * (m + 2 * b - 1)) / 2.0, abs=1e-6
            )
        assert np.max(np.abs(rec.diag)) <= 1e-6

    def test_two_point_measure_terminates(self):
        # (delta_{-1} + delta_{+1})/2 has a 2x2 Jacobi matrix; recovery stops
        s = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        with pytest.raises(JacobiRecoveryError) as info:
            moments_to_jacobi(s, 2)
        assert info.value.order == 2
        assert info.value.offdiag == pytest.approx([1.0])

    def test_needs_enough_moments(self):
        with pytest.raises(ValueError):
            moments_to_jacobi([1.0, 0.0, 1.0], 3)


def log_concave_from_exact(k: int, kappa: int, M: int) -> int | None:
    """The smallest index from which p_{m-1} p_{m+1} < p_m^2 holds for
    every m up to M, with p_m = b_m^2 the exact integers of
    `off_diagonal_squared`; None when it fails at m = M.  The oracle for
    the proof behind `DeterminacyVerdict.log_concave_from`."""
    sector = SectorParams(k, kappa)
    p = [off_diagonal_squared(sector, m) for m in range(M + 2)]
    failing = [m for m in range(1, M + 1) if p[m - 1] * p[m + 1] >= p[m] * p[m]]
    if not failing:
        return 1
    return failing[-1] + 1 if failing[-1] < M else None


class TestLogConcaveSweep:
    """b_{m-1} b_{m+1} < b_m^2 for every m >= 1 is proven, not swept, in
    `classify_determinacy`; an exact integer sweep here checks the proof."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sector_products_are_log_concave(self, k):
        for kappa in range(k):
            assert log_concave_from_exact(k, kappa, 20000) == 1
            assert classify_determinacy(k, kappa, 1000).log_concave_from == 1

    def test_workload_sector_to_1e5(self):
        assert log_concave_from_exact(5, 2, 100_000) == 1
        assert classify_determinacy(5, 2, 100_000).log_concave_from == 1


class TestClassifyDeterminacy:
    @pytest.mark.parametrize("M", [1000, 10000])
    def test_verdicts(self, M):
        assert classify_determinacy(1, 0, M).verdict is Verdict.DETERMINED
        assert classify_determinacy(2, 0, M).verdict is Verdict.DETERMINED
        assert classify_determinacy(3, 0, M).verdict is Verdict.LIMIT_CIRCLE
        assert classify_determinacy(5, 0, M).verdict is Verdict.LIMIT_CIRCLE

    def test_divergence_certificate(self):
        v = classify_determinacy(2, 0, 10000)
        assert math.isinf(v.tail_upper)
        assert v.lower_bound > 0
        assert v.partial_sum >= v.lower_bound
        # the lower bound integral grows without bound
        assert classify_determinacy(2, 0, 100000).lower_bound > v.lower_bound

    def test_convergence_certificate(self):
        v = classify_determinacy(3, 0, 10000)
        assert math.isfinite(v.tail_upper)
        assert v.tail_upper < 1e-2
        assert v.log_concave_from == 1
        # total sum is certified finite and stable in M
        w = classify_determinacy(3, 0, 1000)
        assert abs((v.partial_sum + v.tail_upper) - (w.partial_sum + w.tail_upper)) < 1e-2

    def test_log_concavity_reported(self):
        v = classify_determinacy(4, 1, 1000)
        assert v.log_concave_from == 1

    def test_minimum_m(self):
        with pytest.raises(ValueError):
            classify_determinacy(3, 0, 500)

    def test_peak_memory_at_the_cap(self):
        # b_m and, while it is built, the factor copy of one chunk of 2^17
        # entries: 1.066 M-arrays of float64 (a factor copy of the whole
        # array: 2.00).  1/b is taken in place and summed straight from
        # the array; a list of the M floats adds 4 (a pointer and a float
        # object per entry), as the route through .tolist() did: 6.00
        M = 2_000_000
        tracemalloc.start()
        try:
            classify_determinacy(5, 0, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.08 * 8 * M


class TestErrorsNameTheModule:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: moments(-1.0, 4, 1e-8), "moments.integrate_weighted: b must be > 0, got -1.0"),
            (lambda: moments(1e-16, 2, 1e-4),
             "moments.integrate_weighted: b must be >= 0.0001, got 1e-16: below it the mass "
             "of rho_b sits in a spike at x = 0 between the quadrature nodes"),
            (lambda: integrate_weighted(np.cos, 0.25, 0.0),
             "moments.integrate_weighted: tol must be > 0, got 0.0"),
            (lambda: moments(0.25, 25, 1e-8), "moments.moments: up_to must be in [0, 24], got 25"),
            (lambda: moments_to_jacobi(np.ones(30), 9),
             "moments.moments_to_jacobi: n must be in [1, 8], got 9"),
            (lambda: moments_to_jacobi(np.ones(5), 2),
             "moments.moments_to_jacobi: need moments through order 6, got only 4"),
            (lambda: classify_determinacy(3, 0, 500),
             "moments.classify_determinacy: M must be >= 1000, got 500"),
        ],
        ids=["b", "b-floor", "tol", "up-to", "jacobi-n", "jacobi-order", "classify-M"],
    )
    def test_errors_name_the_module(self, call, message):
        with pytest.raises(ValueError, match=r"^moments\.\w+: ") as excinfo:
            call()
        assert str(excinfo.value) == message
