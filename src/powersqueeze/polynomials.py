"""Closed forms for the k <= 2 sectors: Hermite polynomials, the b = 1/4
and 3/4 orthonormal polynomial family, and its weight
2^(2b-1) |Gamma(b+ix)|^2 / (pi Gamma(2b)).

The degree-m family member P_m(x, b) is evaluated two ways:

  (i)   the terminating hypergeometric sum
        i^m sqrt((2b)_m / m!) 2F1(-m, b+ix; 2b; 2),
        carried out in exact rational complex arithmetic because the
        z = 2 argument cancels ~ 3^m before settling (double precision
        is out of digits near m = 20).  The rationals are held as Python
        integers: x and b over one power-of-two denominator, the sum by
        Horner's rule as a Gaussian-integer numerator over an integer
        denominator, rounded to binary64 once at the end;
  (ii)  the orthonormal three-term recursion
        x P_m = c_{m+1} P_{m+1} + c_m P_{m-1},
        c_m = sqrt(m (m - 1 + 2b)) / 2,

with (ii) the production route and (i) the oracle; for m <= 30 every call
cross-checks the two to 1e-8 and a disagreement is a hard error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_CROSS_CHECK_LIMIT = 30
_CROSS_CHECK_TOL = 1e-8


def hermite(n: int, x: complex) -> complex:
    """Physicists' Hermite polynomial H_n(x), for real or complex x.

    Recursion H_{n+1} = 2x H_n - 2n H_{n-1} with power-of-two rescaling,
    so values stay exact relative to the plain recursion while n up to
    ~200 (and beyond, until the final value itself overflows, which raises
    OverflowError) is safe.  Real x gives a float.
    """
    if n < 0:
        raise ValueError(f"polynomials.hermite: n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * x
    exp2 = 0
    for m in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * m * h_prev
        if max(abs(h), abs(h_prev)) > 2.0**512:
            h = _ldexp(h, -512)
            h_prev = _ldexp(h_prev, -512)
            exp2 += 512
    return _ldexp(h, exp2)


def _ldexp(z: complex, exp2: int) -> complex:
    """z * 2**exp2, exact on the real and imaginary parts."""
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, exp2), math.ldexp(z.imag, exp2))
    return math.ldexp(z, exp2)


def _pollaczek_series_exact(m: int, x: float, b: float) -> float:
    """Route (i): exact evaluation of the terminating sum in integers.

    The inputs are binary floats, hence x = X/D and b = B/D over one
    power-of-two D.  The term ratio 2(j-m)(b+ix+j) / ((2b+j)(j+1)) is then
    n_j/d_j with the Gaussian integer n_j = 2(j-m)(B+jD+iX) and the
    positive integer d_j = (2B+jD)(j+1), and Horner's rule from the top,
    T <- 1 + (n_j/d_j) T, keeps T = P/Q over Gaussian-integer P and integer
    Q without a gcd.  The identity "i^m times the sum is real" holds
    exactly, so the imaginary numerator must vanish identically and is
    asserted, not discarded; the real part is rounded once, by the
    correctly rounded int division.  Q = prod (2B + jD)(j + 1) also gives
    the coefficient exactly: (2b)_m / m! = Q / (D^m (m!)^2), rounded once
    before its square root.
    """
    (X, x_den), (B, b_den) = x.as_integer_ratio(), float(b).as_integer_ratio()
    D = math.lcm(x_den, b_den)
    X *= D // x_den
    B *= D // b_den
    p_re, p_im, q = 1, 0, 1
    for j in range(m - 1, -1, -1):
        s = 2 * (j - m)
        n_re, n_im = s * (B + j * D), s * X
        d = (2 * B + j * D) * (j + 1)
        p_re, p_im = d * q + n_re * p_re - n_im * p_im, n_re * p_im + n_im * p_re
        q *= d
    rot = m % 4  # multiply by i^m
    if rot == 0:
        re, im = p_re, p_im
    elif rot == 1:
        re, im = -p_im, p_re
    elif rot == 2:
        re, im = -p_re, -p_im
    else:
        re, im = p_im, -p_re
    if im != 0:
        raise NumericsError(
            f"polynomials.pollaczek: series imaginary part not identically zero "
            f"at m={m}, x={x!r}, b={b!r}"
        )
    try:
        return re / q * math.sqrt(q / (D**m * math.factorial(m) ** 2))
    except OverflowError:
        raise NumericsError(
            f"polynomials.pollaczek: the exact series overflows binary64 "
            f"at m={m}, x={x!r}, b={b!r}"
        ) from None


def _pollaczek_rows(max_degree: int, x, b: float):
    """P_0, P_1, .., P_max_degree at x, a float or an array, by route (ii)
    from P_{-1} = 0 and c_0 = 0; each value is yielded as it is formed."""
    p_prev, p, c = 0.0, 1.0, 0.0
    yield p
    for j in range(max_degree):
        # c_{j+1}, with j = m - 1 added first: (1 + 2b) - 1 rounds to 0 once
        # 2b is below half an ulp of 1
        c_next = math.sqrt((j + 1) * (j + 2.0 * b)) / 2.0
        p_prev, p, c = p, (x * p - c * p_prev) / c_next, c_next
        yield p


def pollaczek(m: int, x: float, b: float) -> float:
    """P_m(x, b), real for real x, degree m, positive leading coefficient.

    Production value comes from the recursion route; for m <= 30 the exact
    series is also evaluated and a relative disagreement above 1e-8 raises
    NumericsError (it would signal an implementation bug, not bad data).
    """
    if m < 0:
        raise ValueError(f"polynomials.pollaczek: m must be >= 0, got {m}")
    if b <= 0:
        raise ValueError(f"polynomials.pollaczek: b must be > 0, got {b}")
    for value in _pollaczek_rows(m, float(x), b):
        pass
    if m <= _CROSS_CHECK_LIMIT:
        oracle = _pollaczek_series_exact(m, float(x), b)
        if abs(value - oracle) > _CROSS_CHECK_TOL * max(1.0, abs(oracle)):
            raise NumericsError(
                f"polynomials.pollaczek: recursion/series cross-check failed at "
                f"m={m}, x={x!r}, b={b!r}: {value!r} vs {oracle!r}"
            )
    return value


def pollaczek_table(max_degree: int, x: np.ndarray, b: float) -> np.ndarray:
    """P_0..P_max_degree at an array of points, shape (max_degree+1, len(x)).

    The recursion route of pollaczek() on the whole array, without the
    cross-check, so each entry has pollaczek()'s bits; quadrature uses this.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((max_degree + 1, x.size))
    for j, row in enumerate(_pollaczek_rows(max_degree, x, b)):
        out[j] = row
    return out


# ---------------------------------------------------------------------------
# |Gamma(b + ix)|^2 and the orthogonality weight

# B_2, B_4, ..., B_24 as (numerator, denominator), each over (2j)(2j-1):
# the 12-term asymptotic tail, each term rounded once by an int division
_STIRLING_COEFFS = [
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
]
_STIRLING_TERMS = [
    num / (den * (2 * j) * (2 * j - 1)) for j, (num, den) in enumerate(_STIRLING_COEFFS, start=1)
]
_SHIFT_THRESHOLD = 10.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_b_ix(b: float, x) -> np.ndarray:
    """Vectorized log Gamma(b + ix) for fixed b > 0 and real (array) x.

    Shifts to Re z >= 10, then Stirling: 12 asymptotic terms at |z| >= 10
    leave a truncation error near 1e-19, comfortably inside the 1e-12
    relative target on b in (0, 5], |x| <= 50.
    """
    z = b + 1j * np.asarray(x, dtype=np.float64)
    shifts = max(0, math.ceil(_SHIFT_THRESHOLD - b))
    acc = np.zeros_like(z)
    for j in range(shifts):
        acc += np.log(z + j)
    w = z + shifts
    s = (w - 0.5) * np.log(w) - w + _HALF_LOG_TWO_PI
    wpow = w.copy()
    wsq = w * w
    for coeff in _STIRLING_TERMS:
        s += coeff / wpow
        wpow *= wsq
    return s - acc


def gamma_abs_sq(b: float, x):
    """|Gamma(b + ix)|^2 = exp(2 Re log Gamma(b + ix)); scalar or array x."""
    if b <= 0:
        raise ValueError(f"polynomials.gamma_abs_sq: b must be > 0, got {b}")
    arr = np.asarray(x, dtype=np.float64)
    out = np.exp(2.0 * _log_gamma_b_ix(b, arr).real)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def weight_rho(b: float, x):
    """Orthogonality weight 2^(2b-1) |Gamma(b+ix)|^2 / (pi Gamma(2b)).

    Even in x, strictly positive, total mass one.
    """
    scale = 2.0 ** (2.0 * b - 1.0) / (math.pi * math.gamma(2.0 * b))
    return scale * gamma_abs_sq(b, x)


def weight_tail_coefficient(b: float) -> float:
    """K_b with rho_b(x) <= K_b |x|^(2b-1) exp(-pi |x|) for |x| >= max(1, b).

    Asymptotic constant 2^(2b)/Gamma(2b) doubled as a safety factor.
    """
    try:
        return 2.0 * 2.0 ** (2.0 * b) / math.gamma(2.0 * b)
    except OverflowError:
        raise NumericsError(
            f"polynomials.weight_tail_coefficient: Gamma(2b) overflows "
            f"binary64 at b = {b!r}"
        ) from None
