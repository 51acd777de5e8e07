"""Hermite, the orthonormal polynomial family, and the weight."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersqueeze import (
    gamma_abs_sq,
    hermite,
    pollaczek,
    pollaczek_table,
    weight_rho,
)
from powersqueeze.errors import NumericsError
from powersqueeze.polynomials import _log_gamma_b_ix, _pollaczek_series_exact


class TestHermite:
    def test_degree_zero(self):
        for x in (-3.0, 0.0, 11.5):
            assert hermite(0, x) == 1.0

    def test_h2_at_one(self):
        # H_2(x) = 4x^2 - 2
        assert hermite(2, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_odd_parity_at_zero(self):
        assert hermite(3, 0.0) == 0.0
        assert hermite(11, 0.0) == 0.0

    def test_h4_closed_form(self):
        for x in [*np.linspace(-2, 2, 9), 0.3 + 0.7j]:
            assert hermite(4, x) == pytest.approx(16 * x**4 - 48 * x**2 + 12, rel=1e-12, abs=1e-9)

    def test_large_degree_stays_finite(self):
        assert math.isfinite(hermite(200, 1.3))


class TestPollaczek:
    def test_degree_zero(self):
        assert pollaczek(0, 2.4, 0.25) == 1.0

    def test_degree_one_quarter(self):
        # hand expansion of the m=1 series gives 2 sqrt(2) x
        for x in (0.0, 0.7, -1.9):
            assert pollaczek(1, x, 0.25) == pytest.approx(2 * math.sqrt(2) * x, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("x", [0.3, 1.7])
    @pytest.mark.parametrize("b", [0.25, 0.75])
    def test_parity(self, x, b):
        for m in range(21):
            assert pollaczek(m, -x, b) == pytest.approx(
                (-1) ** m * pollaczek(m, x, b), rel=1e-12, abs=1e-13
            )

    def test_series_route_matches_recursion(self):
        # the cross-check inside pollaczek() enforces 1e-8; here we pin the
        # two routes much tighter on a grid
        for b in (0.25, 0.75, 1.5):
            for m in (0, 1, 5, 17, 30):
                for x in (-2.0, 0.4, 3.3):
                    series = _pollaczek_series_exact(m, x, b)
                    assert pollaczek(m, x, b) == pytest.approx(series, rel=1e-11, abs=1e-12)

    def test_leading_coefficient_positive(self):
        x = 1e3
        for b in (0.25, 0.75):
            for m in range(9):
                assert pollaczek(m, x, b) / x**m > 0

    def test_zeros_real_simple_interlacing(self):
        # count sign changes on a fine grid: degree m polynomial with m real
        # simple zeros, interlacing with degree m+1
        b = 0.25
        grid = np.linspace(-12.0, 12.0, 20001)
        table = pollaczek_table(13, grid, b)

        def zero_crossings(values):
            signs = np.sign(values)
            keep = signs != 0
            signs = signs[keep]
            return np.nonzero(signs[1:] != signs[:-1])[0], keep

        for m in range(1, 13):
            idx_m, _ = zero_crossings(table[m])
            idx_next, _ = zero_crossings(table[m + 1])
            assert len(idx_m) == m
            assert len(idx_next) == m + 1
            # strict interlacing of the crossing positions
            assert np.all(idx_next[:-1] < idx_m) and np.all(idx_m < idx_next[1:])

    @pytest.mark.parametrize("b", [1e-300, 1e-17, 1e-16])
    def test_first_coefficient_at_tiny_b(self, b):
        # c_1 = sqrt(2b)/2; evaluated as (1 + 2b) - 1 it rounds to 0 (or is
        # off by up to 10% near b = 1e-16)
        expected = 0.5 / (math.sqrt(2.0 * b) / 2.0)
        assert pollaczek(1, 0.5, b) == expected
        assert pollaczek_table(1, np.array([0.5]), b)[1, 0] == expected

    def test_series_overflow_names_the_operation(self):
        with pytest.raises(NumericsError) as excinfo:
            pollaczek(2, 1e300, 0.25)
        assert str(excinfo.value) == (
            "polynomials.pollaczek: the exact series overflows binary64 "
            "at m=2, x=1e+300, b=0.25"
        )

    def test_table_matches_scalar(self):
        # one recursion loop serves both routes, so every entry has the bits
        xs = np.array([-1.1, 0.0, 0.37, 2.9])
        table = pollaczek_table(12, xs, 0.75)
        for m in range(13):
            for j, x in enumerate(xs):
                assert _same_bits(table[m, j], pollaczek(m, float(x), 0.75))


def reference_series_coefficient(b: float, m: int) -> float:
    """Verbatim copy of `polynomials._series_coefficient` as it was in
    Fraction arithmetic; the oracle for the integer version's bits."""
    q = Fraction(1)
    bb = Fraction(b)
    for j in range(m):
        q *= (2 * bb + j) / (j + 1)
    return math.sqrt(float(q))


def reference_series_exact(m: int, x: float, b: float) -> float:
    """Verbatim copy of `polynomials._pollaczek_series_exact` as it was in
    Fraction arithmetic (term by term, a gcd at every step)."""
    xf, bf = Fraction(x), Fraction(b)
    sum_re, sum_im = Fraction(1), Fraction(0)
    term_re, term_im = Fraction(1), Fraction(0)
    for j in range(m):
        # term *= (-m + j)(b + ix + j) * 2 / ((2b + j)(j + 1))
        fac = Fraction(j - m)
        pr, pi = fac * (bf + j), fac * xf
        den = (2 * bf + j) * (j + 1)
        term_re, term_im = (
            (term_re * pr - term_im * pi) * 2 / den,
            (term_re * pi + term_im * pr) * 2 / den,
        )
        sum_re += term_re
        sum_im += term_im
    rot = m % 4  # multiply by i^m
    if rot == 0:
        re, im = sum_re, sum_im
    elif rot == 1:
        re, im = -sum_im, sum_re
    elif rot == 2:
        re, im = -sum_re, -sum_im
    else:
        re, im = sum_im, -sum_re
    if im != 0:
        raise NumericsError(
            f"polynomials.pollaczek: series imaginary part not identically zero "
            f"at m={m}, x={x!r}, b={b!r}"
        )
    return float(re) * reference_series_coefficient(b, m)


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SERIES_CASES = dict(
    m=st.integers(0, 30),
    x=st.one_of(
        st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False),
        st.floats(-1e-6, 1e-6, allow_nan=False, allow_infinity=False),
    ),
    # dyadic b = n / 2^e in (0, 64]
    b=st.builds(lambda n, e: n / 2.0**e, st.integers(1, 2**20), st.integers(0, 20)),
)


class TestIntegerSeries:
    """The integer Horner form of the series gives the Fraction form's bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**SERIES_CASES)
    def test_bits_match_fraction_series(self, m, x, b):
        assert _same_bits(_pollaczek_series_exact(m, x, b), reference_series_exact(m, x, b))

    @pytest.mark.parametrize("b", [0.25, 0.75, 1 / 3])
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.37, -1.5, 2.75, 10.0, 1e-300])
    def test_bits_on_a_grid(self, x, b):
        # 1/3 is a binary float too, with a 2^54 denominator
        for m in range(31):
            assert _same_bits(_pollaczek_series_exact(m, x, b), reference_series_exact(m, x, b))

    @pytest.mark.parametrize("b", [0.25, 0.75])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 12, 20, 29, 30])
    def test_matches_mpmath_hypergeometric(self, m, b):
        # P_m = i^m sqrt((2b)_m / m!) 2F1(-m, b + ix; 2b; 2) at 40 digits;
        # the integer route rounds twice and multiplies once, a few ulp
        if m % 2:  # odd in x; mpmath cannot pin an exact zero relatively
            assert _same_bits(_pollaczek_series_exact(m, 0.0, b), 0.0)
        with mpmath.workdps(40):
            for x in (0.37, -1.5, 2.75, 10.0) if m % 2 else (0.0, 0.37, -1.5, 2.75, 10.0):
                f = mpmath.hyp2f1(-m, b + 1j * x, 2 * b, 2)
                coeff = mpmath.sqrt(mpmath.rf(2 * b, m) / mpmath.factorial(m))
                expected = mpmath.re(1j**m * coeff * f)
                value = _pollaczek_series_exact(m, x, b)
                assert abs(value - expected) <= 4e-16 * abs(expected) + mpmath.mpf(10) ** -35


def _product_formula_half(x: float, terms: int = 200_000) -> float:
    """|Gamma(1/2 + ix)|^2 by the convergent product pi * prod (1 + x^2/(n+1/2)^2)^-1.

    The log-tail beyond N is sum_{n>N} log(1 + x^2/(n+1/2)^2) ~ x^2 * psi'(N+3/2),
    approximated by its asymptotic expansion.
    """
    n = np.arange(terms, dtype=np.float64)
    log_sum = float(np.sum(np.log1p(x * x / (n + 0.5) ** 2)))
    y = terms + 1.5
    psi1 = 1.0 / y + 1.0 / (2.0 * y * y) + 1.0 / (6.0 * y**3)
    return math.pi * math.exp(-(log_sum + x * x * psi1))


class TestLogGamma:
    @pytest.mark.parametrize("z", [0.3 + 2j, 4.5 - 7j, 12 + 0.5j])
    def test_matches_mpmath(self, z):
        expected = complex(mpmath.loggamma(z))
        got = complex(_log_gamma_b_ix(z.real, z.imag))
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestGammaAbsSq:
    def test_at_one(self):
        assert gamma_abs_sq(1.0, 0.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
    def test_half_line_closed_form(self, x):
        expected = math.pi / math.cosh(math.pi * x)
        assert gamma_abs_sq(0.5, x) == pytest.approx(expected, rel=1e-12)
        # independent oracle: truncated infinite product with tail correction
        assert _product_formula_half(x) == pytest.approx(expected, rel=1e-8)

    def test_functional_equation(self):
        for b in (0.25, 0.75, 1.3, 4.5):
            for x in (0.0, 0.5, 2.0, 10.0, 50.0):
                lhs = gamma_abs_sq(b + 1.0, x)
                rhs = (b * b + x * x) * gamma_abs_sq(b, x)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_asymptotic_envelope(self):
        # |Gamma(b+ix)|^2 ~ 2 pi |x|^(2b-1) e^(-pi |x|)
        b, x = 0.25, 10.0
        value = gamma_abs_sq(b, x)
        assert value > 0
        asymptotic = 2 * math.pi * x ** (2 * b - 1) * math.exp(-math.pi * x)
        assert math.log(value) == pytest.approx(math.log(asymptotic), rel=0.01)


class TestWeight:
    def test_half_at_zero(self):
        assert weight_rho(0.5, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 2.5])
    def test_exact_evenness(self, x):
        for b in (0.25, 0.75, 2.0):
            assert weight_rho(b, x) == weight_rho(b, -x)

    def test_strictly_positive(self):
        xs = np.linspace(-40, 40, 401)
        assert np.all(weight_rho(0.25, xs) > 0)
        assert np.all(weight_rho(0.75, xs) > 0)

    def test_array_route_matches_scalar_route(self):
        # numpy may pick different SIMD kernels per array size, so agreement
        # is to a few ulps, not bitwise
        xs = np.array([-7.3, -0.5, 0.0, 1.1, 24.0])
        for b in (0.25, 1.0, 3.7):
            arr = gamma_abs_sq(b, xs)
            for x, v in zip(xs, arr):
                assert v == pytest.approx(gamma_abs_sq(b, float(x)), rel=1e-13)


class TestErrorsNameTheModule:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: pollaczek(-1, 0.5, 0.25), "polynomials.pollaczek: m must be >= 0, got -1"),
            (lambda: pollaczek(3, 0.5, 0.0), "polynomials.pollaczek: b must be > 0, got 0.0"),
            (lambda: hermite(-1, 0.5), "polynomials.hermite: n must be >= 0, got -1"),
            (lambda: gamma_abs_sq(-0.5, 1.0), "polynomials.gamma_abs_sq: b must be > 0, got -0.5"),
        ],
        ids=["pollaczek-m", "pollaczek-b", "hermite", "gamma-abs-sq"],
    )
    def test_errors_name_the_module(self, call, message):
        with pytest.raises(ValueError, match=r"^polynomials\.\w+: ") as excinfo:
            call()
        assert str(excinfo.value) == message
