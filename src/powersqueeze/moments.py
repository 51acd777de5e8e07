"""Integration against the weight rho_b, Hamburger moments, Hankel
positivity, recurrence-coefficient recovery, and the determinacy
classifier for the sector Jacobi matrices.

The weight decays like |x|^(2b-1) exp(-pi |x|), so a finite window
[-X, X] with an analytic tail bound plus composite Gauss-Legendre panels
integrates polynomially bounded functions to near machine accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import JacobiRecoveryError, QuadratureError
from .jacobi import OffDiagonalSequence, SectorParams
from .polynomials import weight_rho, weight_tail_coefficient

_GL_ORDER = 16
_MAX_REFINEMENTS = 12
# Grids that do not depend on the integrand are kept for reuse: a moment
# table or an orthonormality table integrates many functions on the same
# (b, X, panels) grids.  Only grids up to _CACHED_PANELS panels are kept
# (256 KiB each, 2 MiB in all), so a refinement run that climbs to
# millions of points pins no memory.
_GRID_CACHE_SIZE = 8
_CACHED_PANELS = 1024
_MOMENT_ORDER_CAP = 24  # Hankel conditioning cliff; see moments()
# Below this b nearly all of rho_b's unit mass sits in a spike of width ~b
# at x = 0 that no Gauss node reaches, so every sampled value is far below
# tol and two grids agree on a wrong integral (s_0 = 2.8e-14 at b = 1e-16).
# A sweep of b from 1e-300 to 5 and tol from 1e-12 to 1e-4 returned wrong
# values at b <= 2.8e-7 only, raised QuadratureError from there to 7e-5,
# and from 7.3e-5 up returned every accepted s_0 within its error of 1
_B_FLOOR = 1e-4


def _tail_bound(b: float, degree: int, X: float, coeff: float) -> float:
    """Upper bound for 2 * integral_X^inf coeff * x^degree * rho_b(x) dx.

    Uses rho_b <= K_b x^(2b-1) e^(-pi x) and the geometric-style bound
    int_X^inf x^p e^(-pi x) dx <= X^p e^(-pi X) / (pi (1 - p/(pi X))),
    valid for pi X > p.
    """
    p = degree + 2.0 * b - 1.0
    if math.pi * X <= p + 1.0:
        return math.inf
    log_main = p * math.log(X) - math.pi * X if X > 0 else -math.pi * X
    main = math.exp(log_main) / math.pi / (1.0 - p / (math.pi * X))
    return 2.0 * coeff * weight_tail_coefficient(b) * main


def _choose_cutoff(b: float, degree: int, coeff: float, tol: float) -> float:
    X = 10.0
    while X <= 200.0:
        if _tail_bound(b, degree, X, coeff) <= 0.5 * tol:
            return X
        X += 5.0
    raise QuadratureError(
        f"moments.integrate_weighted: no cutoff below X=200 reaches tail {tol/2:g} "
        f"(degree {degree}, b={b})",
        (math.inf, math.inf),
    )


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_grid(b: float, X: float, panels: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Composite Gauss-Legendre points on [-X, X], the half panel width and
    rho_b at the points; the arrays are read-only."""
    nodes, _ = _gauss_legendre()
    edges = np.linspace(-X, X, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    rho = weight_rho(b, pts)
    pts.setflags(write=False)
    rho.setflags(write=False)
    return pts, half, rho


_cached_panel_grid = functools.lru_cache(maxsize=_GRID_CACHE_SIZE)(_panel_grid)


def integrate_weighted(f, b: float, tol: float, degree: int = 0) -> tuple[float, float]:
    """Integral of f(x) rho_b(x) dx over the real line, with error estimate.

    f must accept an ndarray and be bounded by A * max(1, |x|^degree); A is
    estimated from a probe grid and enters the tail bound.  Panels are
    halved until two successive composite rules agree to tol/2 plus a
    roundoff floor of 1e-14 int |f| rho; the returned error is that
    difference plus the floor plus the tail bound.  Refinement beyond the
    documented cap raises QuadratureError carrying the last two estimates.
    b below _B_FLOOR = 1e-4 is refused: the rule cannot see the weight's
    spike at x = 0 there (see _B_FLOOR).
    """
    if b <= 0:
        raise ValueError(f"moments.integrate_weighted: b must be > 0, got {b}")
    if b < _B_FLOOR:
        raise ValueError(
            f"moments.integrate_weighted: b must be >= {_B_FLOOR:g}, got {b}: below it "
            f"the mass of rho_b sits in a spike at x = 0 between the quadrature nodes"
        )
    if tol <= 0:
        raise ValueError(f"moments.integrate_weighted: tol must be > 0, got {tol}")

    probe = np.linspace(-64.0, 64.0, 513)
    denom = np.maximum(1.0, np.abs(probe) ** degree)
    coeff = 2.0 * float(np.max(np.abs(np.asarray(f(probe), dtype=np.float64)) / denom))
    coeff = max(coeff, 1e-12)
    X = _choose_cutoff(b, degree, coeff, tol)
    tail = _tail_bound(b, degree, X, coeff)

    _, weights = _gauss_legendre()

    def composite(panels: int) -> tuple[float, float]:
        """The composite rule and its sum of |contributions| (~ int |f| rho)."""
        grid = _cached_panel_grid if panels <= _CACHED_PANELS else _panel_grid
        pts, half, rho = grid(b, X, panels)
        vals = np.asarray(f(pts), dtype=np.float64) * rho
        contrib = (half * (vals.reshape(panels, _GL_ORDER) * weights[None, :])).ravel()
        # an exact sum, read straight from the array, for byte-reproducible
        # results; the magnitude only scales a roundoff floor and needs none
        return math.fsum(memoryview(contrib)), float(np.sum(np.abs(contrib)))

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


@dataclass(frozen=True)
class MomentSequence:
    """s_0..s_n of rho_b with per-moment quadrature error estimates."""

    b: float
    values: np.ndarray
    quad_error: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def moments(b: float, up_to: int, tol: float) -> MomentSequence:
    """Power moments s_m = int x^m rho_b dx for m = 0..up_to.

    up_to is capped at 24: past that the Hankel matrices needed by any
    consumer are too ill-conditioned for double precision anyway, so the
    cap fails loudly instead of silently losing digits.
    """
    if not 0 <= up_to <= _MOMENT_ORDER_CAP:
        raise ValueError(
            f"moments.moments: up_to must be in [0, {_MOMENT_ORDER_CAP}], got {up_to}"
        )
    vals = np.empty(up_to + 1)
    errs = np.empty(up_to + 1)
    for m in range(up_to + 1):
        vals[m], errs[m] = integrate_weighted(lambda x, m=m: x**m, b, tol, degree=m)
    return MomentSequence(b, vals, errs)


@dataclass(frozen=True)
class HankelCheck:
    positive: bool
    failing_order: int | None  # smallest Hankel size whose minor is not PD
    margin: float  # min over tested orders of (smallest eigenvalue - budget)


def _as_moment_arrays(s) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(s, MomentSequence):
        return s.values, s.quad_error
    vals = np.asarray(s, dtype=np.float64)
    return vals, np.zeros_like(vals)


def _hankel(vals: np.ndarray, order: int) -> np.ndarray:
    """The order x order Hankel matrix [s_{i+j}]."""
    idx = np.arange(order)
    return vals[idx[:, None] + idx[None, :]]


def hankel_positive(s) -> HankelCheck:
    """Positive-definiteness of the Hankel minors [s_{i+j}] at every order.

    Orders (matrix sizes) 1 .. floor(n/2)+1 are attempted by Cholesky;
    the first failure is reported as data, not an error.  margin compares
    the smallest eigenvalue at each order against the moment error budget
    (order * max entry error, a Gershgorin-style perturbation bound).
    """
    vals, errs = _as_moment_arrays(s)
    max_order = (len(vals) - 1) // 2 + 1
    margin = math.inf
    for order in range(1, max_order + 1):
        H = _hankel(vals, order)
        budget = order * float(np.max(errs[: 2 * order - 1])) if len(errs) else 0.0
        margin = min(margin, float(np.linalg.eigvalsh(H)[0]) - budget)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            return HankelCheck(False, order, margin)
    return HankelCheck(True, None, margin)


@dataclass(frozen=True)
class JacobiCoefficients:
    """Recurrence coefficients of the orthonormal polynomials of a measure."""

    offdiag: np.ndarray  # c_1..c_n
    diag: np.ndarray  # a_0..a_n


def moments_to_jacobi(s, n: int) -> JacobiCoefficients:
    """Recover c_1..c_n and a_0..a_n from moments by Hankel Cholesky.

    With H = R^T R (R upper triangular), the classical identities are
    c_j = r_jj / r_{j-1,j-1} and a_j = r_{j,j+1}/r_jj - r_{j-1,j}/r_{j-1,j-1};
    this is the symmetric-factorization equivalent of the quotient-difference
    route.  Needs moments through order 2n+2 and positive Hankel minors
    through size n+2; n is capped at 8 in working precision.  A singular
    minor raises JacobiRecoveryError naming the largest recovered order and
    carrying the partial coefficients (finitely supported measures end this
    way by construction).
    """
    if not 1 <= n <= 8:
        raise ValueError(f"moments.moments_to_jacobi: n must be in [1, 8], got {n}")
    vals, _ = _as_moment_arrays(s)
    size = n + 2
    if len(vals) < 2 * size - 1:
        raise ValueError(
            f"moments.moments_to_jacobi: need moments through order {2 * size - 2}, "
            f"got only {len(vals) - 1}"
        )
    R = np.zeros((0, 0))
    for order in range(1, size + 1):
        try:
            R = np.linalg.cholesky(_hankel(vals, order)).T
        except np.linalg.LinAlgError:
            got = len(R)  # largest PD minor = largest recovered Jacobi block
            c, a = _recurrence_coefficients(R)
            raise JacobiRecoveryError(
                f"moments.moments_to_jacobi: Hankel minor of size {order} is "
                f"singular; recovered Jacobi block of order {got}",
                order=got,
                offdiag=c,
                diag=a,
            ) from None
    c, a = _recurrence_coefficients(R)
    return JacobiCoefficients(offdiag=c[:n], diag=a)


def _recurrence_coefficients(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_1..c_{s-1} and a_0..a_{s-2} from the s x s Cholesky factor R."""
    d = np.diag(R)
    q = np.diag(R, 1) / d[:-1]  # r_{j,j+1} / r_jj
    return d[1:] / d[:-1], q - np.concatenate(([0.0], q[:-1]))


# ---------------------------------------------------------------------------
# determinacy of the sector moment problem


class Verdict(Enum):
    DETERMINED = "determined"
    LIMIT_CIRCLE = "limit_circle"


@dataclass(frozen=True)
class DeterminacyVerdict:
    """Classification with explicit certificates.

    partial_sum is sum_{m<=M} 1/b_m.  For k >= 3, tail_upper bounds the
    remainder via b_m >= (mk)^(k/2) and integral comparison, certifying
    convergence.  For k <= 2, lower_bound is a closed-form divergent lower
    bound for the partial sums (from b_m <= ((m+2)k)^(k/2)), certifying
    divergence; tail_upper is then infinite.

    log_concave_from is the smallest index from which b_{m-1} b_{m+1} <
    b_m^2 holds for every m, and it is 1 in every sector, by proof rather
    than by a sweep.  p_m = b_m^2 is the product of the k factors
    f_j(m) = mk + kappa + j, j = 1..k, each linear in m with slope k, so
    f_j(m-1) f_j(m+1) = f_j(m)^2 - k^2 < f_j(m)^2.  For m >= 1 every
    factor is at least f_j(0) = kappa + j >= 1, so the k inequalities
    multiply to p_{m-1} p_{m+1} < p_m^2.  For k >= 3 the limit-circle
    verdict is then Berezanskii's criterion: log-concave off-diagonals with
    a convergent sum of 1/b_m and a bounded (here zero) diagonal make the
    Jacobi matrix limit-circle and the moment problem indeterminate
    (Yu. M. Berezanskii, Expansions in Eigenfunctions of Selfadjoint
    Operators, AMS 1968, ch. VII).
    """

    k: int
    kappa: int
    M: int
    verdict: Verdict
    partial_sum: float
    tail_upper: float
    lower_bound: float
    log_concave_from: int


def classify_determinacy(k: int, kappa: int, M: int) -> DeterminacyVerdict:
    """Determined vs limit-circle for the sector Jacobi matrix.

    The reciprocal off-diagonal sum converges iff k/2 > 1 by integral
    comparison against (mk)^(-k/2) from above and ((m+2)k)^(-k/2) from
    below; k = 1, 2 are certified divergent (determined), k >= 3 certified
    convergent, which together with the proven log-concavity gives the
    limit-circle verdict (Berezanskii's criterion; see DeterminacyVerdict).
    Certificates are recomputed at the given M; verdicts are M-stable by
    construction.
    """
    sector = SectorParams(k, kappa)
    if M < 1000:
        raise ValueError(f"moments.classify_determinacy: M must be >= 1000, got {M}")

    b = OffDiagonalSequence.build(sector, M + 1).values
    partial = math.fsum(memoryview(np.divide(1.0, b, out=b)))  # 1/b_m in place

    if k >= 3:
        # sum_{m>M} 1/b_m <= k^(-k/2) * M^(1-k/2) / (k/2 - 1)
        tail_upper = k ** (-k / 2.0) * M ** (1.0 - k / 2.0) / (k / 2.0 - 1.0)
        lower = 0.0
    else:
        tail_upper = math.inf
        # b_m <= ((m+2)k)^(k/2), so the partial sum dominates the divergent
        # integral k^(-k/2) int_2^{M+3} u^(-k/2) du
        if k == 1:
            lower = 2.0 * (math.sqrt(M + 3.0) - math.sqrt(2.0))
        else:
            lower = 0.5 * math.log((M + 3.0) / 2.0)
        if partial < lower * (1.0 - 1e-12):
            raise AssertionError("divergence lower bound exceeded the partial sum")

    return DeterminacyVerdict(
        k=k,
        kappa=kappa,
        M=M,
        verdict=Verdict.LIMIT_CIRCLE if k >= 3 else Verdict.DETERMINED,
        partial_sum=partial,
        tail_upper=tail_upper,
        lower_bound=lower,
        log_concave_from=1,  # proven; see DeterminacyVerdict
    )
