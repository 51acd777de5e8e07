"""State construction, ladder actions, uncertainty reports, residuals,
and the square-summable solution count."""

import cmath
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powersqueeze import cli, jacobi, states
from powersqueeze.jacobi import InitialKind, envelope_fit, log_partial_sums_of_squares
from powersqueeze import (
    FockVector,
    SectorParams,
    SqueezeParams,
    apply_power_lowering,
    apply_power_raising,
    build_power_coherent,
    NumericsError,
    build_state,
    commutator_weight,
    deficiency_evidence,
    OffDiagonalSequence,
    off_diagonal,
    pollaczek,
    residual_check,
    solve_recursion,
    sr_report,
)

from mp_recurrence import mp_positive_recurrence, mp_recurrence


def basis_vector(sector: SectorParams, m: int) -> FockVector:
    c = np.zeros(m + 1, dtype=np.complex128)
    c[m] = 1.0
    return FockVector(sector, c, 0.0)


class TestSqueezeParams:
    def test_hyperbolic_identity(self):
        for nu in (0.3, -0.9j, 0.5 + 0.5j, 2.0):
            p = SqueezeParams(SectorParams(1, 0), nu, 0.0)
            assert abs(p.mu**2 - abs(nu) ** 2 - 1.0) <= 1e-14

    def test_lambda_prime_consistency(self):
        p = SqueezeParams(SectorParams(2, 0), 0.5, 4.0)
        t = p.branch_t()
        assert p.mu * t * p.lambda_prime() == pytest.approx(4.0, rel=1e-14)

    def test_nu_zero_has_no_branch(self):
        p = SqueezeParams(SectorParams(1, 0), 0.0, 1.0)
        with pytest.raises(ValueError):
            p.lambda_prime()


class TestBuildState:
    def test_parity_k2_lambda_zero(self):
        params = SqueezeParams(SectorParams(2, 0), 0.5, 0.0)
        vec = build_state(params, 1e-10)
        assert np.all(np.abs(vec.coefficients[1::2]) <= 1e-10)
        assert vec.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert vec.coefficients[0].real > 0
        assert vec.coefficients[0].imag == 0

    def test_coefficients_follow_polynomial_family(self):
        params = SqueezeParams(SectorParams(2, 0), 0.5, 0.0)
        vec = build_state(params, 1e-12)
        t = params.branch_t()
        c = vec.coefficients
        for m in (2, 4, 6, 8):
            expected = t**m * pollaczek(m, 0.0, 0.25)
            assert c[m] / c[0] == pytest.approx(expected, rel=1e-11)

    def test_k1_squeezed_vacuum(self):
        nu = 0.4
        params = SqueezeParams(SectorParams(1, 0), nu, 0.0)
        vec = build_state(params, 1e-12)
        c = vec.coefficients
        assert np.all(np.abs(c[1::2]) == 0.0)
        # c_2/c_0 = t^2 H_2(0)/sqrt(8) = -(nu/mu)/sqrt(2)
        assert c[2] / c[0] == pytest.approx(-(nu / params.mu) / math.sqrt(2), rel=1e-12)

    def test_branch_invariance(self):
        # the other square-root branch gives the same state after phase fixing
        sector = SectorParams(3, 0)
        params = SqueezeParams(sector, 0.3, 1.0 + 1.0j)
        vec = build_state(params, 1e-11)
        t2 = -params.branch_t()
        lam2 = params.lam / (params.mu * t2)
        sol = solve_recursion(sector, lam2, vec.cutoff)
        other = sol.values() * t2 ** np.arange(vec.cutoff + 1)
        other /= np.linalg.norm(other)
        other *= (other[0] / abs(other[0])).conjugate()
        assert np.allclose(other, vec.coefficients, atol=1e-10)

    def test_norm_and_tail_invariants(self):
        params = SqueezeParams(SectorParams(2, 1), 0.5j, 1.0 + 1.0j)
        vec = build_state(params, 1e-10)
        assert vec.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < vec.tail_estimate < 1e-10

    def test_cutoff_refinement_stability(self):
        # tightening the tolerance (larger cutoff) leaves retained
        # coefficients within the original construction tolerance
        params = SqueezeParams(SectorParams(2, 0), 0.6, 2.0)
        coarse = build_state(params, 1e-6)
        fine = build_state(params, 1e-12)
        n = len(coarse.coefficients)
        assert np.max(np.abs(coarse.coefficients - fine.coefficients[:n])) <= 1e-6

    @pytest.mark.parametrize("k", [1, 2])
    def test_unit_t_fails_fast_for_k_at_most_2(self, k):
        # mu = sqrt(1 + 1e16) rounds to 1e8, so |t| = 1 and the k <= 2 tail
        # never falls below tol; the cutoff doubling to the cap took seconds
        params = SqueezeParams(SectorParams(k, 0), 1e8, 0.0)
        start = time.perf_counter()
        with pytest.raises(NumericsError, match=r"^states\.build_state: \|t\|"):
            build_state(params, 1e-10)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("k", [1, 3])
    def test_growth_to_cap_fails_fast(self, k):
        sector = SectorParams(k, 0)
        params = SqueezeParams(sector, 0.5, 1e300)
        start = time.perf_counter()
        with pytest.raises(NumericsError, match=r"^states\.build_state: \|lambda\|/mu"):
            build_state(params, 1e-10)
        assert time.perf_counter() - start < 0.5
        # the condition sits at 3 b_cap: just below it nothing is refused
        threshold = 3.0 * off_diagonal(sector, states._MAX_CUTOFF) * params.mu
        assert states._grows_to_cap(SqueezeParams(sector, 0.5, threshold * 1.001))
        assert not states._grows_to_cap(SqueezeParams(sector, 0.5, threshold * 0.999))
        assert not states._grows_to_cap(SqueezeParams(sector, 0.5, 6.0))

    def test_growth_condition_is_sufficient(self):
        # k = 1, nu = 0.5: |lambda| = 1100 lies just above 3 b_cap mu ~ 1061,
        # and every ratio |c_{m+1}/c_m| of the recursion up to the cap is
        # at least 2, as the proof in _grows_to_cap says
        sector = SectorParams(1, 0)
        params = SqueezeParams(sector, 0.5, 1100j)
        assert states._grows_to_cap(params)
        M = 100_000
        sol = solve_recursion(sector, params.lambda_prime(), M)
        log_c = sol.log_abs + np.arange(M + 1) * math.log(abs(params.branch_t()))
        assert np.min(np.diff(log_c)) >= math.log(2.0)

    def test_mu_overflow_raises(self):
        params = SqueezeParams(SectorParams(3, 0), 1e200, 1.0)
        with pytest.raises(NumericsError, match=r"^states\.build_state: mu"):
            build_state(params, 1e-10)

    def test_rejects_bad_tol(self):
        for nu in (0.0, 0.5):
            with pytest.raises(ValueError, match=r"^states\.build_state: tol"):
                build_state(SqueezeParams(SectorParams(1, 0), nu, 1.0), 1e-3)

    @pytest.mark.parametrize("lam", [0.0, 1.3 - 0.4j])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nu_zero_is_the_power_coherent_state(self, k, lam):
        sector = SectorParams(k, k - 1)
        vec = build_state(SqueezeParams(sector, 0.0, lam), 1e-12)
        ref = build_power_coherent(sector, lam, 1e-12)
        assert vec.coefficients.tobytes() == ref.coefficients.tobytes()
        assert vec.tail_estimate == ref.tail_estimate


@st.composite
def squeeze_params(draw) -> tuple[SqueezeParams, float]:
    """k 1..4, every kappa, |nu| <= 3 (0 included) and |lambda| <= 2 at any
    phase, tol 1e-10 or 1e-12."""
    k = draw(st.integers(1, 4))
    sector = SectorParams(k, draw(st.integers(0, k - 1)))
    phases = st.floats(0.0, 2.0 * math.pi)
    nu = draw(st.just(0.0) | st.floats(0.0, 3.0)) * cmath.exp(1j * draw(phases))
    lam = draw(st.floats(0.0, 2.0)) * cmath.exp(1j * draw(phases))
    return SqueezeParams(sector, nu, lam), draw(st.sampled_from([1e-10, 1e-12]))


class TestStateProperties:
    """Built states are eigenstates that meet the uncertainty bound with
    equality, and a state file hands verify-sr the built bits."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(squeeze_params())
    def test_residual_and_uncertainty_equality(self, case):
        # worst on a grid of 176 such states: residual 0.054 tol, |gap|/rhs 8e-13
        params, tol = case
        vec = build_state(params, tol)
        assert residual_check(vec, params) <= 10.0 * tol
        report = sr_report(vec, params.sector.k)
        assert abs(report.gap) <= 1e-6 * report.rhs

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(squeeze_params())
    # c_10 underflows to a zero with a negative imaginary part, printed "-0"
    @example((SqueezeParams(SectorParams(1, 0), 0.0, 7.6e-46 + 1.2e-45j), 1e-10))
    def test_state_file_round_trip(self, case):
        params, tol = case
        sector = params.sector
        flags = ["--k", str(sector.k), "--kappa", str(sector.kappa), "--tol", repr(tol),
                 f"--nu={params.nu.real!r}{params.nu.imag:+.17g}i",
                 f"--lambda={params.lam.real!r}{params.lam.imag:+.17g}i"]
        with tempfile.TemporaryDirectory() as tmp:
            state_json, sr_json = Path(tmp, "state.json"), Path(tmp, "sr.json")
            assert cli.main(["state", *flags, "--format", "json", "--out", str(state_json)]) == 0
            read, read_params = cli._load_state_json(str(state_json))
            assert cli.main(["verify-sr", str(state_json), "--format", "json",
                             "--out", str(sr_json)]) == 0
            printed = json.loads(sr_json.read_text())["results"]
        vec = build_state(read_params, tol)
        assert read_params == params
        assert read.coefficients.tobytes() == vec.coefficients.tobytes()
        assert read.tail_estimate == vec.tail_estimate
        assert printed["gap"] == sr_report(vec, sector.k).gap


class TestPowerCoherent:
    def test_k1_coherent_ratios(self):
        alpha = 1.3 - 0.7j
        vec = build_power_coherent(SectorParams(1, 0), alpha, 1e-12)
        c = vec.coefficients
        for m in range(6):
            assert c[m + 1] / c[m] == pytest.approx(alpha / math.sqrt(m + 1), rel=1e-12)

    def test_k2_vacuum(self):
        vec = build_power_coherent(SectorParams(2, 0), 0.0, 1e-10)
        assert vec.cutoff == 0
        assert vec.coefficients[0] == 1.0
        assert vec.tail_estimate == 0.0

    def test_k3_kappa2_first_ratio(self):
        vec = build_power_coherent(SectorParams(3, 2), 1.0, 1e-12)
        c = vec.coefficients
        assert c[1] / c[0] == pytest.approx(1.0 / math.sqrt(60.0), rel=1e-12)

    def test_exact_eigenvector_residual(self):
        sector = SectorParams(2, 1)
        lam = 0.8 + 0.2j
        vec = build_power_coherent(sector, lam, 1e-12)
        params = SqueezeParams(sector, 0.0, lam)
        assert residual_check(vec, params) <= 1e-12

    def test_vacuum_residual_is_finite(self):
        sector = SectorParams(2, 0)
        vec = build_power_coherent(sector, 0.0, 1e-10)
        value = residual_check(vec, SqueezeParams(sector, 0.0, 0.0))
        assert value == 0.0

    @pytest.mark.parametrize("lam", [28.0, 32 + 8j, 36j])
    def test_k1_large_lambda(self, lam):
        # mean photon number 800..1300: lam^m / sqrt(m!) leaves binary64
        # long before the tail is reached, so the vector is built in log form
        sector = SectorParams(1, 0)
        vec = build_power_coherent(sector, lam, 1e-10)
        c0 = vec.coefficients[0]
        assert abs(vec.norm_sq() - 1.0) <= 1e-12
        assert c0.real > 0.0 and c0.imag == 0.0
        assert residual_check(vec, SqueezeParams(sector, 0.0, lam)) <= 1e-10
        report = sr_report(vec, 1)
        assert abs(report.gap) <= 1e-6 * report.rhs

    def test_k1_c0_underflow_raises(self):
        # normalized c_0 = exp(-|lam|^2 / 2) is below the normal range
        with pytest.raises(NumericsError, match="states.build_power_coherent: c_0"):
            build_power_coherent(SectorParams(1, 0), 40.0, 1e-10)


class TestLadders:
    def test_lowering_annihilates_bottom(self):
        sector = SectorParams(3, 1)
        out = apply_power_lowering(basis_vector(sector, 0), 3)
        assert np.all(out.coefficients == 0.0)

    def test_raise_then_lower(self):
        for sector in (SectorParams(1, 0), SectorParams(3, 2)):
            for m in (0, 1, 4):
                v = basis_vector(sector, m)
                w = apply_power_lowering(apply_power_raising(v, sector.k), sector.k)
                assert w.coefficients[m].real == pytest.approx(
                    off_diagonal(sector, m) ** 2, rel=1e-14
                )

    def test_lower_then_raise_and_commutator(self):
        sector = SectorParams(2, 1)
        for m in (1, 3, 6):
            v = basis_vector(sector, m)
            down_up = apply_power_raising(apply_power_lowering(v, 2), 2)
            up_down = apply_power_lowering(apply_power_raising(v, 2), 2)
            diff = up_down.coefficients[m] - down_up.coefficients[m]
            assert diff.real == pytest.approx(
                commutator_weight(2, 2 * m + 1), rel=1e-13
            )

    def test_power_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_power_raising(basis_vector(SectorParams(2, 0), 0), 3)


class TestSRReport:
    def test_vacuum_k1(self):
        rep = sr_report(basis_vector(SectorParams(1, 0), 0), 1)
        assert rep.var_a == pytest.approx(0.25, abs=1e-15)
        assert rep.var_b == pytest.approx(0.25, abs=1e-15)
        assert rep.cov_ab == pytest.approx(0.0, abs=1e-15)
        assert rep.rhs == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert abs(rep.gap) <= 1e-14

    def test_number_state_control(self):
        rep = sr_report(basis_vector(SectorParams(1, 0), 1), 1)
        assert rep.var_a == pytest.approx(0.75, abs=1e-14)
        assert rep.var_b == pytest.approx(0.75, abs=1e-14)
        assert rep.gap == pytest.approx(0.5, abs=1e-10)

    def test_constructed_state_reaches_equality(self):
        params = SqueezeParams(SectorParams(2, 0), 0.5j, 1.0 + 1.0j)
        vec = build_state(params, 1e-12)
        rep = sr_report(vec, 2)
        assert rep.rhs > 0
        assert abs(rep.gap) / rep.rhs <= 1e-6
        assert rep.gap >= -1e-10

    @pytest.mark.parametrize(
        "k,kappa,nu,lam",
        [
            (4, 3, 0.3, 2.0 - 1.0j),
            (2, 1, 0.9, 0.5),
            (1, 0, 0.2 + 0.7j, -1.0 + 2.0j),
            (3, 1, -0.4j, 1.0),
        ],
    )
    def test_equality_across_parameter_grid(self, k, kappa, nu, lam):
        params = SqueezeParams(SectorParams(k, kappa), nu, lam)
        vec = build_state(params, 1e-12)
        rep = sr_report(vec, k)
        assert abs(rep.gap) / rep.rhs <= 1e-6
        assert residual_check(vec, params) <= 1e-11

    def test_commutator_expectation_positive(self):
        for vec, k in (
            (basis_vector(SectorParams(2, 0), 3), 2),
            (build_power_coherent(SectorParams(3, 1), 0.7, 1e-10), 3),
        ):
            rep = sr_report(vec, k)
            assert rep.commutator_expectation > 0.0

    def test_gap_never_negative(self):
        for m in range(4):
            rep = sr_report(basis_vector(SectorParams(2, 1), m), 2)
            assert rep.gap >= -1e-10


class TestResidualCheck:
    @pytest.mark.parametrize(
        "k,kappa,nu,lam",
        [
            (1, 0, 0.3, 1 + 1j),
            (2, 0, 0.5j, 1 + 1j),
            (3, 0, 0.3, 0.0),
        ],
    )
    def test_constructed_states_pass(self, k, kappa, nu, lam):
        params = SqueezeParams(SectorParams(k, kappa), nu, lam)
        vec = build_state(params, 1e-10)
        assert residual_check(vec, params) <= 1e-9

    def test_perturbation_is_detected(self):
        params = SqueezeParams(SectorParams(1, 0), 0.3, 1 + 1j)
        vec = build_state(params, 1e-10)
        c = vec.coefficients.copy()
        c[5] += 1e-3
        assert residual_check(FockVector(vec.sector, c, vec.tail_estimate), params) > 1e-4


def reference_minimal_solution_profile(sector: SectorParams, M: int, N: int):
    """Verbatim copy of `states._minimal_solution_profile` as it was when it
    built the (3, N) band for `scipy.linalg.solve_banded((1, 1), ...)`
    (N was then computed inside as min(100 M, 2e6)); an oracle for the
    positive recursion that replaced the LAPACK solves."""
    import scipy.linalg

    b = OffDiagonalSequence.build(sector, N).values
    ab = np.zeros((3, N), dtype=np.complex128)
    ab[0, 1:] = b[: N - 1]
    ab[1, :] = -1j
    ab[2, :-1] = b[: N - 1]
    rhs = np.zeros(N, dtype=np.complex128)
    rhs[0] = 1.0
    u = scipy.linalg.solve_banded((1, 1), ab, rhs)
    mag = np.abs(u[: M + 1])
    with np.errstate(divide="ignore"):
        log_abs = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -np.inf)
    exponent, count = envelope_fit(log_abs)
    sums = np.cumsum(mag**2)
    cauchy = (sums[M] - sums[M // 2]) / sums[M] < states._CAUCHY_WINDOW
    return exponent, cauchy, count


def reference_zgtsv_profile(sector: SectorParams, M: int, N: int):
    """Verbatim copy of `states._minimal_solution_profile` as it was when it
    called LAPACK zgtsv on the complex system (T_N - i) u = e_0; an oracle
    for the positive recursion that replaced the LAPACK solves."""
    from scipy.linalg import lapack

    b = OffDiagonalSequence.build(sector, N).values[: N - 1]
    if not np.isfinite(b).all():
        raise NumericsError(
            f"states.deficiency_evidence: non-finite off-diagonal in the "
            f"banded system (N = {N})"
        )
    dl = b.astype(np.complex128)
    du = dl.copy()
    d = np.full(N, -1j)
    rhs = np.zeros(N, dtype=np.complex128)
    rhs[0] = 1.0
    _, _, _, u, info = lapack.zgtsv(dl, d, du, rhs, True, True, True, True)
    if info != 0:
        raise NumericsError(
            f"states.deficiency_evidence: zgtsv returned info = {info} on the "
            f"banded system (N = {N})"
        )
    mag = np.abs(u[: M + 1])
    with np.errstate(divide="ignore"):
        log_abs = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -np.inf)
    exponent, count = envelope_fit(log_abs)
    sums = np.cumsum(mag**2)
    cauchy = (sums[M] - sums[M // 2]) / sums[M] < states._CAUCHY_WINDOW
    return exponent, cauchy, count


# the row-by-row loop divided y by 2^500, exactly, whenever y passed it
_RESCALE, _LOG_RESCALE = 2.0**500, math.log(2.0**500)


def reference_positive_log_solution(b: np.ndarray, start: int = 0) -> np.ndarray:
    """Verbatim copy of `states._positive_log_solution` as it was when it
    stepped through every row one at a time; an oracle for the block
    transfer products and the block fill."""
    out, prev, cur, b_prev, s = array("d"), 0.0, 1.0, 0.0, 0
    for m, b_m in enumerate(memoryview(b)):
        if m >= start:
            out.append(math.log(cur) + s * _LOG_RESCALE)
        prev, cur, b_prev = cur, (cur + b_prev * prev) / b_m, b_m
        if cur > _RESCALE:
            prev, cur, s = prev / _RESCALE, cur / _RESCALE, s + 1
    out.append(math.log(cur) + s * _LOG_RESCALE)
    return np.frombuffer(out)


# blocks per pass of the array route below
_REFERENCE_BLOCKS_PER_PASS = 2048


def reference_array_positive_log_solution(b: np.ndarray, start: int = 0) -> np.ndarray:
    """Verbatim copy of `states._positive_log_solution` as it was when it
    read each pass of 2048 blocks from an array of b, gathered into a
    transposed copy (module names qualified); an oracle for the rows filled
    in place, a chunk of rows across all blocks at a time."""
    _BLOCK, _block_steps = states._BLOCK, states._block_steps
    L = len(b)
    first, end = start // _BLOCK, L // _BLOCK + 1  # blocks first..end-1 hold rows start..L
    grid = np.empty((end - first, _BLOCK))
    prev, cur, dropped, entries_ok, starts, ends = 0.0, 1.0, 0, True, [], []
    for j0 in range(0, end, _REFERENCE_BLOCKS_PER_PASS):
        j1 = min(j0 + _REFERENCE_BLOCKS_PER_PASS, end)
        lo = j0 * _BLOCK
        full, rest = divmod(min(j1 * _BLOCK, L) - lo, _BLOCK)
        rows = np.full((_BLOCK + 1, j1 - j0), b[-1])
        rows[1:, :full] = b[lo : lo + full * _BLOCK].reshape(-1, _BLOCK).T
        rows[1 : 1 + rest, full : full + 1] = b[lo + full * _BLOCK : lo + full * _BLOCK + rest, None]
        rows[0] = np.concatenate(([b[lo - 1] if lo else b[0]], rows[-1, :-1]))
        blocks = np.stack(_block_steps(rows, *np.eye(2)[:, :, None].repeat(j1 - j0, axis=2)))
        entries_ok &= blocks.min() > 0.0 and blocks.max() < math.inf
        for j, (p0, p1, c0, c1) in enumerate(zip(*blocks.reshape(4, -1).tolist()), j0):
            if j >= first:
                starts.append((prev, cur, dropped))
            prev, cur = p0 * prev + p1 * cur, c0 * prev + c1 * cur
            e = math.frexp(max(prev, cur))[1]
            prev, cur, dropped = math.ldexp(prev, -e), math.ldexp(cur, -e), dropped + e
        if j1 > first:
            f = max(first, j0)  # the first block of the pass that is filled
            pairs = np.array(starts[f - first :])[:, :2].T.copy()
            ends += _block_steps(rows[:, f - j0 :], *pairs, grid[f - first : j1 - first].T)[1].tolist()
        del rows  # before the next pass's copy: two at once raise the peak
    log_y = grid.reshape(-1)[start - first * _BLOCK : L + 1 - first * _BLOCK]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(log_y, out=log_y)
        _, s, d = np.array(starts).T
        gaps = (np.ldexp(ends[:-1], (d[:-1] - d[1:]).astype(int)) - s[1:]) / s[1:]
        grid += ((d - d[0]) * math.log(2.0) + np.cumsum(np.log1p([0.0, *gaps])))[:, None]
    if not (entries_ok and np.isfinite(log_y).all()):
        raise NumericsError(
            f"states.deficiency_evidence: a block transfer or filled entry of the "
            f"positive recursion is non-finite or 0 (rows 0..{L})"
        )
    return log_y


class TestRowsFilledInPlace:
    """Each sweep fills its rows of b in place, a chunk of rows across all
    blocks at a time; the bits are those of the route that read them from
    an array of b, for the three row sources of deficiency_evidence: the
    polynomial kind over b_0..b_{M-1}, the second kind over b_1..b_{M-1},
    and the minimal solution over b_{N-2}..b_0."""

    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("M", [5000, 7777, 20000])
    def test_bits_match_the_array_route(self, monkeypatch, k, kappa, M):
        sector = SectorParams(k, kappa)
        N = min(100 * M, 2_000_000)
        b = OffDiagonalSequence.build(sector, N).values
        sources = {
            (0, M, False, 0): b[:M],
            (1, M - 1, False, 0): b[1:M],
            (0, N - 1, True, N - 1 - M): b[: N - 1][::-1],
        }
        refs = {src: reference_array_positive_log_solution(rows, src[3]) for src, rows in sources.items()}
        log_y = refs[0, N - 1, True, N - 1 - M][::-1]
        log_abs = log_y - np.logaddexp(log_y[0], math.log(b[0]) + log_y[1])
        assert np.array_equal(states._minimal_solution_profile(sector, M, N), log_abs)
        # the default chunks, and one row per chunk
        for budget in (states._CHUNK_BYTES, 1):
            monkeypatch.setattr(states, "_CHUNK_BYTES", budget)
            for src, ref in refs.items():
                assert np.array_equal(states._positive_log_solution(sector, *src), ref), src


class TestBlockTransfer:
    """states._positive_log_solution against its row-by-row reference on
    reversed sector b, as the minimal solution reads it: (1, 0), (2, 1)
    and (40, 39) have the steepest b ratios."""

    B = states._BLOCK

    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 1), (40, 39)])
    @pytest.mark.parametrize("length", [6 * states._BLOCK + 5, 9 * states._BLOCK + 77])
    def test_matches_the_row_by_row_loop(self, k, kappa, length):
        B = self.B
        sector = SectorParams(k, kappa)
        b = OffDiagonalSequence.build(sector, length).values[::-1]
        for start in (0, 1, 2 * B - 1, 2 * B, 2 * B + 1, 5 * B + 7, length - 1):
            got = states._positive_log_solution(sector, 0, length, True, start)
            ref = reference_positive_log_solution(b, start)
            assert len(got) == len(ref) == length + 1 - start
            # the overall scale is free; logs agree up to it
            assert np.max(np.abs((got - got[0]) - (ref - ref[0]))) <= 1e-13, start

    def test_level_follows_the_steps_past_b_1e8(self):
        # at (4, 3), b_m passes 1e8 near m = 2500; a basis state's second
        # parity chain then adds under half an ulp per step, and the
        # transfer products alone drift 2.1e-13 from the loop by M = 5e4
        # (the level taken from each fill: 3.0e-14)
        b = OffDiagonalSequence.build(SectorParams(4, 3), 50_000).values
        got = states._positive_log_solution(SectorParams(4, 3), 0, 50_000)
        assert np.max(np.abs(got - reference_positive_log_solution(b))) <= 1e-13

    def test_chunks_keep_the_bits(self, monkeypatch):
        # each step reads and writes one block's entries, so the rows per
        # chunk move no bit: one row per chunk, about 3 in the transfer
        # sweep (the last chunk short) and the default, for the three row
        # sources, with the fill over every block (start 0) or the last one
        length, sector = 23 * self.B + 11, SectorParams(2, 1)
        calls = [
            (lo, rows, reverse, start)
            for lo, rows, reverse in [(0, length, False), (1, length - 1, False), (0, length, True)]
            for start in (0, rows - 100)
        ]
        default = [states._positive_log_solution(sector, *call) for call in calls]
        for budget in (1, 8 * 4 * 24):
            monkeypatch.setattr(states, "_CHUNK_BYTES", budget)
            for call, bits in zip(calls, default):
                assert np.array_equal(states._positive_log_solution(sector, *call), bits), (budget, call)

    def test_non_finite_block_entry_is_refused(self, monkeypatch):
        # finite b that the non-finite check passes, but with 1/b = 1e300
        # a block's second step overflows
        def tiny(sector, b):
            b[...] = 1e-300
            return b

        monkeypatch.setattr(states, "_fill_off_diagonal", tiny)
        with pytest.raises(NumericsError, match=r"^states\.deficiency_evidence: .*block"):
            states._minimal_solution_profile(SectorParams(1, 0), 100, 10_000)


class TestMinimalSolution:
    # (1, 0, 20000) and (2, 0, 12500) are the certificates benchmark's
    # deficiency points, where undecided evidence would build the minimal
    # solution; the first is the largest system, N = 2e6
    @pytest.mark.parametrize(
        "k, kappa, M",
        [(1, 0, 5000), (2, 1, 5000), (2, 0, 7000), (3, 2, 5000), (1, 0, 20000), (2, 0, 12500)],
    )
    def test_bits_match_solve_banded(self, k, kappa, M):
        # the LAPACK routes are the oracles: the same Cauchy verdict and
        # envelope points, and the exponent within 1e-12 relative (the
        # positive recursion and the elimination round differently)
        sector = SectorParams(k, kappa)
        N = min(100 * M, 2_000_000)
        log_abs = states._minimal_solution_profile(sector, M, N)
        got_exponent, count = envelope_fit(log_abs)
        cauchy = jacobi.cauchy_ratio(log_abs) < states._CAUCHY_WINDOW
        for reference in (reference_minimal_solution_profile, reference_zgtsv_profile):
            exponent, ref_cauchy, ref_count = reference(sector, M, N)
            assert (cauchy, count) == (ref_cauchy, ref_count)
            assert got_exponent == pytest.approx(exponent, rel=1e-12, abs=0.0)

    def test_real_solve_peak_memory(self):
        # no array of b: the recursion keeps only the M + 1 entries it
        # reports, the transfer states of its 7813 blocks and one 1 MiB
        # chunk of rows, filled in place: 0.090 N-arrays in all (2048-block
        # passes: 0.31; with b built as an N-array: 1.29; the complex LAPACK
        # solve peaked near nine).  A second chunk (0.066) or an N-array of
        # b or of the recursion breaks the bound.
        N = 2_000_000
        tracemalloc.start()
        try:
            states._minimal_solution_profile(SectorParams(1, 0), 20_000, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.12 * 8 * N

    def test_non_finite_off_diagonal_is_refused(self, monkeypatch):
        # b = 2 with b_{N-2} = inf, the first row the minimal solution reads
        N = 10_000

        def overflowing(sector, b):
            top = b == N - 2
            b[...] = 2.0
            b[top] = np.inf
            return b

        monkeypatch.setattr(states, "_fill_off_diagonal", overflowing)
        with pytest.raises(NumericsError, match=r"^states\.deficiency_evidence: non-finite"):
            states._minimal_solution_profile(SectorParams(1, 0), 100, N)


class TestMemoryAtTheCap:
    """Traced peaks at the CLI's cap M = 2e6, in M-arrays of float64: one
    more M-array than the route needs breaks each bound."""

    M = 2_000_000

    def traced_peak(self, call) -> float:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / (8 * self.M)
        finally:
            tracemalloc.stop()

    def test_positive_recursion(self):
        # the M + 1 logs, filled in place, the blocks' start pairs and one
        # 1 MiB chunk of rows of b, filled in place: 1.157 (2048-block
        # passes: 1.35; the row-by-row loop's array of logs: 1.06).  A
        # second chunk alive in the fill reads 1.212
        sector = SectorParams(1, 0)
        assert self.traced_peak(lambda: states._positive_log_solution(sector, 0, self.M)) <= 1.18

    @pytest.mark.parametrize("k", [1, 2])
    def test_deficiency_evidence(self, k):
        # one log solution at a time, each dropped once its verdict is
        # made; the envelope fit over every point of the final decade, x
        # from a float range and y a copy, with no index array and its
        # window masks dropped first; the Cauchy ratio from two reductions
        # over half of 2 log|f| each: 2.809 at k = 1 and 2 (the masks alive
        # through the fit and the whole partial-sum array: 3.034; with the
        # int64 indices and a gather: 3.934; as growth profiles, both log
        # solutions and one's partial sums alive: 5.934 and 5.008; earlier,
        # b as an M-array: 6.93, and np.polyfit's Vandermonde matrix and SVD
        # workspace: 13.2).  A second log solution alive adds 1.0, one
        # window mask alive at the fit 0.11, a 1 MiB chunk of rows 0.066
        assert self.traced_peak(lambda: deficiency_evidence(SectorParams(k, 0), self.M)) <= 2.83


def refuse_minimal_solution(sector, M, N):
    raise AssertionError(f"minimal solution built at M = {M}, N = {N}")


@pytest.fixture
def undecided(monkeypatch):
    """Switch off the not-square-summable verdict: at k <= 2 both
    fundamental solutions are then undecided, and deficiency_evidence
    takes the minimal-solution route."""
    monkeypatch.setattr(states, "_NOT_SUMMABLE_EXPONENT", math.inf)


class TestDeficiencyEvidence:
    def test_limit_point_k1(self, monkeypatch):
        # both fundamental solutions grow (exponent 22.16), so Weyl's
        # alternative decides count 1 and no minimal solution is built
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(1, 0), 5000)
        assert ev.conclusive
        assert ev.count == 1
        assert ev.minimal_exponent is None and ev.contamination_bound is None
        assert ev.exponent_polynomial >= states._NOT_SUMMABLE_EXPONENT
        assert ev.exponent_second >= states._NOT_SUMMABLE_EXPONENT

    def test_limit_point_k2_odd_sector(self):
        ev = deficiency_evidence(SectorParams(2, 1), 5000)
        assert ev.conclusive
        assert ev.count == 1
        # fundamental solutions align with the dominant ~ m^(-1/4) behavior
        assert ev.exponent_polynomial == pytest.approx(-0.25, abs=0.1)

    def test_limit_circle_k3(self):
        ev = deficiency_evidence(SectorParams(3, 0), 5000)
        assert ev.conclusive
        assert ev.count == 2
        assert ev.exponent_polynomial == pytest.approx(-0.75, abs=0.1)
        assert ev.exponent_second == pytest.approx(-0.75, abs=0.1)

    @pytest.mark.parametrize("kappa", [0, 99])
    def test_limit_circle_k100(self, kappa):
        # b_m reaches 1e285 at M = 5000, and the positive recursion's
        # blocks stay finite and nonzero
        ev = deficiency_evidence(SectorParams(100, kappa), 5000)
        assert (ev.count, ev.conclusive) == (2, True)

    def test_overflowing_b_is_refused_at_the_top_row(self):
        # at k = 300, b_m overflows binary64 from m = 1 on; the error names
        # the largest row read, m = M - 1, past the first chunk of rows
        with pytest.raises(NumericsError, match=r"^jacobi\.OffDiagonalSequence\.build: .*m = 599999 "):
            deficiency_evidence(SectorParams(300, 0), 600_000)

    def test_minimum_m(self):
        with pytest.raises(ValueError):
            deficiency_evidence(SectorParams(3, 0), 1000)

    def test_contamination_bound(self, monkeypatch):
        # N = min(100 M, 2e6): M = 20000 is the largest M with
        # sqrt(M/N) <= 0.1.  The bound is reported where the minimal
        # solution is built, that is where both fundamental solutions are
        # undecided, and is None where Weyl's alternative or two
        # square-summable flags decide the count
        assert deficiency_evidence(SectorParams(1, 0), 20_000).contamination_bound is None
        assert deficiency_evidence(SectorParams(3, 0), 5000).contamination_bound is None
        monkeypatch.setattr(states, "_NOT_SUMMABLE_EXPONENT", math.inf)
        ev = deficiency_evidence(SectorParams(1, 0), 20_000)
        assert ev.conclusive and ev.count == 1
        assert ev.contamination_bound == 0.1
        assert ev.minimal_exponent is not None and ev.minimal_exponent < -0.6

    def test_contamination_bound_fails_above_m_20000(self, monkeypatch):
        ev = deficiency_evidence(SectorParams(1, 0), 20_001)
        assert (ev.count, ev.conclusive, ev.contamination_bound) == (1, True, None)
        monkeypatch.setattr(states, "_NOT_SUMMABLE_EXPONENT", math.inf)
        ev = deficiency_evidence(SectorParams(1, 0), 20_001)
        assert not ev.conclusive and ev.count is None
        assert ev.contamination_bound == math.sqrt(20_001 / 2_000_000) > 0.1
        assert ev.minimal_exponent is None

    def test_no_minimal_solve_past_the_bound(self, monkeypatch, undecided):
        # past M = 20000 the bound cannot be met, so the 2e6-row system is
        # not solved at all
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(1, 0), 20_001)
        assert ev.minimal_exponent is None and ev.count is None and not ev.conclusive
        assert ev.contamination_bound == math.sqrt(20_001 / 2_000_000)

    def test_fit_window_past_the_minimal_solution_rows(self, monkeypatch, undecided):
        # N = min(100 M, cap) <= M: the window [M/10, M] would read past
        # w[N - 1]; met at M >= 2e6 with the real cap, here at M = 5000
        monkeypatch.setattr(states, "_MAX_MINIMAL_ROWS", 5000)
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(1, 0), 5000)
        assert not ev.conclusive and ev.count is None
        assert ev.minimal_exponent is None and ev.contamination_bound == 1.0
        assert ev.exponent_polynomial is not None


class TestWeylAlternative:
    """At a non-real point the count is 1 (limit point) or 2 (limit
    circle); one fundamental solution that is not square-summable decides
    count 1 without the minimal solution, at every M up to the CLI's cap."""

    @pytest.mark.parametrize("M", [5000, 20_001, 600_000, 2_000_000])
    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 0), (2, 1)])
    def test_limit_point_without_the_minimal_solution(self, monkeypatch, k, kappa, M):
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(k, kappa), M)
        assert (ev.count, ev.conclusive) == (1, True)
        assert (ev.minimal_exponent, ev.contamination_bound) == (None, None)

    @pytest.mark.parametrize(
        "k, kappa", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 3), (100, 0), (100, 50), (100, 99)]
    )
    def test_limit_circle_counts_two(self, monkeypatch, k, kappa):
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(k, kappa), 5000)
        assert (ev.count, ev.conclusive) == (2, True)
        assert (ev.minimal_exponent, ev.contamination_bound) == (None, None)

    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 1)])
    def test_undecided_takes_the_minimal_route(self, monkeypatch, undecided, k, kappa):
        # within the contamination bound the minimal solution decides
        # count 1; past it nothing is built and the count is None
        built, minimal = [], states._minimal_solution_profile

        def record(sector, M, N):
            built.append((M, N))
            return minimal(sector, M, N)

        monkeypatch.setattr(states, "_minimal_solution_profile", record)
        for M in (5000, 20_000):
            ev = deficiency_evidence(SectorParams(k, kappa), M)
            assert (ev.count, ev.conclusive, ev.contamination_bound) == (1, True, 0.1)
            assert ev.minimal_exponent < states._SQUARE_SUMMABLE_EXPONENT
        ev = deficiency_evidence(SectorParams(k, kappa), 20_001)
        assert (ev.count, ev.conclusive, ev.minimal_exponent) == (None, False, None)
        assert built == [(5000, 500_000), (20_000, 2_000_000)]

    @pytest.mark.parametrize(
        "poly, second, count, conclusive",
        [
            (True, True, 2, True),
            (True, None, 2, True),
            (None, True, 2, True),
            (False, False, 1, True),
            (False, None, 1, True),
            (None, False, 1, True),
            # one fundamental solution square-summable makes every solution
            # so, and one that is not rules that out: no count
            (True, False, None, False),
            (False, True, None, False),
        ],
    )
    def test_every_verdict_pair(self, monkeypatch, poly, second, count, conclusive):
        # the second kind is flagged first, then the polynomial kind
        verdicts = iter([second, poly])
        monkeypatch.setattr(states, "_flagged", lambda log_abs: (next(verdicts), -1.0))
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(2, 0), 5000)
        assert (ev.count, ev.conclusive) == (count, conclusive)
        assert (ev.minimal_exponent, ev.contamination_bound) == (None, None)

    def test_second_kind_not_summable_beside_a_summable_polynomial_kind(self, monkeypatch):
        # both kinds are decided whatever the second kind reads: the real
        # _flagged, on readings faked one level below it, reads the second
        # kind (f_0 = 0) as not square-summable and the polynomial kind
        # as square-summable, which contradicts Weyl's alternative
        def fit(log_abs):
            return (0.0 if log_abs[0] == -np.inf else -1.0), len(log_abs)

        def ratio(log_abs):
            return 1.0 if log_abs[0] == -np.inf else 0.0

        monkeypatch.setattr(states, "envelope_fit", fit)
        monkeypatch.setattr(states, "cauchy_ratio", ratio)
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        ev = deficiency_evidence(SectorParams(2, 0), 5000)
        assert (ev.count, ev.conclusive) == (None, False)
        assert (ev.exponent_polynomial, ev.exponent_second) == (-1.0, 0.0)
        assert (ev.minimal_exponent, ev.contamination_bound) == (None, None)

    def test_both_undecided_take_the_minimal_route(self, monkeypatch):
        monkeypatch.setattr(states, "_flagged", lambda log_abs: (None, -1.0))
        monkeypatch.setattr(states, "_minimal_solution_profile", refuse_minimal_solution)
        with pytest.raises(AssertionError, match="minimal solution built at M = 5000"):
            deficiency_evidence(SectorParams(2, 0), 5000)

    @pytest.mark.parametrize("M", [5000, 20_000])
    def test_readings_keep_their_margins(self, monkeypatch, M):
        # the envelope exponent and Cauchy ratio of both fundamental
        # solutions, as _flagged reads them: every k = 2 reading at least
        # 0.1 above the not-square-summable exponent and 0.05 above its
        # ratio, every k = 3 reading at least 0.1 below the square-summable
        # exponent and 0.05 below its ratio.  Measured: k = 2 from -0.261
        # and 0.2928 (M = 5000; closer to -1/4 and 1 - 2^-1/2 as M grows,
        # to 2e6), k = 3 up to -0.748 and 6.4e-3 (M = 5000; smaller as M
        # grows)
        flagged, readings = states._flagged, []

        def record(log_abs):
            readings.append((envelope_fit(log_abs)[0], jacobi.cauchy_ratio(log_abs)))
            return flagged(log_abs)

        monkeypatch.setattr(states, "_flagged", record)
        for k in (2, 3):
            readings.clear()
            for kappa in range(k):
                deficiency_evidence(SectorParams(k, kappa), M)
            assert len(readings) == 2 * k
            for exponent, ratio in readings:
                if k == 2:
                    assert exponent >= states._NOT_SUMMABLE_EXPONENT + 0.1
                    assert ratio >= states._NOT_SUMMABLE_RATIO + 0.05
                else:
                    assert exponent <= states._SQUARE_SUMMABLE_EXPONENT - 0.1
                    assert ratio <= states._CAUCHY_WINDOW - 0.05

    def test_cauchy_ratio_agrees_with_the_partial_sums(self, monkeypatch):
        # the max-shifted sums give the ratio of the accumulated log partial
        # sums at M/2 and M to 1e-13 (3.5e-14 measured), on the same side
        # of both thresholds, for every log|f| that deficiency_evidence
        # tests on its grid (k = 1..4, kappa in {0, k - 1}, M = 5000,
        # 12500, 20001), the minimal solutions (undecided) included
        flagged, tested = states._flagged, []

        def record(log_abs):
            tested.append(log_abs)
            return flagged(log_abs)

        monkeypatch.setattr(states, "_flagged", record)
        monkeypatch.setattr(states, "_NOT_SUMMABLE_EXPONENT", math.inf)
        for k in (1, 2, 3, 4):
            for kappa in sorted({0, k - 1}):
                for M in (5000, 12_500, 20_001):
                    deficiency_evidence(SectorParams(k, kappa), M)
        assert len(tested) == 2 * 7 * 3 + 3 * 2  # 21 fundamental pairs, 6 minimal solutions
        for log_abs in tested:
            sums = log_partial_sums_of_squares(log_abs)
            M = len(log_abs) - 1
            from_sums = 1.0 - math.exp(sums[M // 2] - sums[M])
            ratio = jacobi.cauchy_ratio(log_abs)
            assert abs(ratio - from_sums) <= 1e-13
            for threshold in (states._CAUCHY_WINDOW, states._NOT_SUMMABLE_RATIO):
                assert (ratio < threshold) == (from_sums < threshold)


class TestOneMechanism:
    """deficiency_evidence computes every solution at lambda' = i with
    states._positive_log_solution: no LAPACK, no forward kernel."""

    def test_no_scipy_linalg(self):
        # by Weyl's alternative, and by the minimal-solution route that
        # the undecided evidence takes (the not-square-summable verdict
        # switched off)
        code = (
            "import math, sys\n"
            "from powersqueeze import SectorParams, deficiency_evidence, states\n"
            "ev = deficiency_evidence(SectorParams(1, 0), 5000)\n"
            "assert (ev.count, ev.conclusive, ev.minimal_exponent) == (1, True, None)\n"
            "states._NOT_SUMMABLE_EXPONENT = math.inf\n"
            "ev = deficiency_evidence(SectorParams(1, 0), 5000)\n"
            "assert ev.count == 1 and ev.minimal_exponent is not None\n"
            "assert 'scipy.linalg' not in sys.modules\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "k, kappa, count", [(1, 0, 1), (2, 1, 1), (3, 0, 2)], ids=["k1", "k2", "k3"]
    )
    def test_no_forward_kernel(self, monkeypatch, k, kappa, count):
        def refuse(*args, **kwargs):
            raise AssertionError("the forward kernel was called")

        monkeypatch.setattr(jacobi, "solve_recursion", refuse)
        monkeypatch.setattr(jacobi, "growth_profile", refuse)
        monkeypatch.setattr(states, "solve_recursion", refuse)
        ev = deficiency_evidence(SectorParams(k, kappa), 5000)
        assert (ev.count, ev.conclusive) == (count, True)


def log_abs_mp(values) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([float(mpmath.log(abs(v))) if v != 0 else -np.inf for v in values])


class TestPositiveRecursionAccuracy:
    """log|f| and log|w| at lambda' = i within 1e-13 absolute of the
    30-digit recurrence on the same float b_m (the complex kernel was off
    by up to 4.5e-13 at (1, 0, 20000), dgtsv by 1.8e-13 at (4, 1, 500),
    and the positive recursion stepped through every row by 1.1e-13 at
    (1, 0, 5000) with N = 5e5)."""

    @pytest.mark.parametrize(
        "k, kappa, M", [(1, 0, 20000), (2, 0, 12500), (3, 0, 5000), (4, 1, 5000)]
    )
    def test_fundamental_pair(self, monkeypatch, k, kappa, M):
        # the log|f| that deficiency_evidence hands to _flagged: the second
        # kind first, then the polynomial kind
        flagged, tested = states._flagged, []

        def record(log_abs):
            tested.append(log_abs)
            return flagged(log_abs)

        monkeypatch.setattr(states, "_flagged", record)
        sector = SectorParams(k, kappa)
        deficiency_evidence(sector, M)
        profiled = dict(zip((InitialKind.SECOND, InitialKind.POLYNOMIAL), tested))
        b = OffDiagonalSequence.build(sector, M).values
        b0 = mpmath.mpf(float(b[0]))
        initial = {InitialKind.POLYNOMIAL: (1, 1j / b0), InitialKind.SECOND: (0, 1 / b0)}
        for kind, (f0, f1) in initial.items():
            exact = log_abs_mp(mp_recurrence(b, 1j, f0, f1, 30))
            got = profiled[kind]
            assert np.array_equal(np.isinf(got), np.isinf(exact))
            finite = np.isfinite(exact)
            assert np.max(np.abs(got[finite] - exact[finite])) <= 1e-13

    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 1), (3, 0), (4, 1)])
    def test_minimal_solution(self, k, kappa):
        # the oracle runs the complex recurrence down from u_N = 0,
        # u_{N-1} = 1 and scales u to meet row 0, b_0 u_1 - i u_0 = 1
        M, N = 500, 50_000
        sector = SectorParams(k, kappa)
        b = OffDiagonalSequence.build(sector, N).values
        c = b[: N - 1][::-1]
        v = mp_recurrence(c, 1j, 1, 1j / mpmath.mpf(float(c[0])), 30)
        with mpmath.workdps(30):
            scale = 1 / (mpmath.mpf(float(b[0])) * v[N - 2] - 1j * v[N - 1])
            exact = log_abs_mp([v[N - 1 - m] * scale for m in range(M + 1)])
        got = states._minimal_solution_profile(sector, M, N)
        assert np.max(np.abs(got - exact)) <= 1e-13

    def test_minimal_solution_of_the_deficiency_goldens(self):
        # (1, 0, M = 5000, N = 5e5) is the system that the deficiency
        # goldens' sector builds when its evidence is undecided (the
        # goldens themselves are decided by Weyl's alternative and build
        # none).  The oracle is the real form: |u| is the positive
        # recursion on the reversed b, scaled to meet row 0,
        # b_0 |u_1| + |u_0| = 1; test_minimal_solution ties the real form
        # to the complex one at N = 5e4
        M, N = 5000, 500_000
        sector = SectorParams(1, 0)
        b = OffDiagonalSequence.build(sector, N).values
        c = b[: N - 1][::-1]
        v = mp_positive_recurrence(c, 30)
        with mpmath.workdps(30):
            scale = 1 / (v[N - 1] + mpmath.mpf(float(b[0])) * v[N - 2])
            exact = log_abs_mp([v[N - 1 - m] * scale for m in range(M + 1)])
        got = states._minimal_solution_profile(sector, M, N)
        assert np.max(np.abs(got - exact)) <= 1e-13


class TestErrorsNameTheModule:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: deficiency_evidence(SectorParams(1, 0), 1000),
             "states.deficiency_evidence: M must be >= 5000, got 1000"),
            (lambda: SqueezeParams(SectorParams(1, 0), 0.0, 1.0).lambda_prime(),
             "states.SqueezeParams.lambda_prime: lambda' is singular at nu = 0"),
            (lambda: build_state(SqueezeParams(SectorParams(1, 0), 0.0, 1.0), 0.5),
             "states.build_state: tol must lie in (0, 1e-4], got 0.5"),
            (lambda: build_state(SqueezeParams(SectorParams(1, 0), 0.3, 1.0), 0.5),
             "states.build_state: tol must lie in (0, 1e-4], got 0.5"),
            (lambda: build_power_coherent(SectorParams(1, 0), 1.0, 0.5),
             "states.build_power_coherent: tol must lie in (0, 1e-4], got 0.5"),
            (lambda: apply_power_lowering(basis_vector(SectorParams(2, 0), 3), 3),
             "states.apply_power_lowering: operator power 3 does not match sector k=2"),
            (lambda: apply_power_raising(basis_vector(SectorParams(2, 0), 3), 1),
             "states.apply_power_raising: operator power 1 does not match sector k=2"),
            (lambda: sr_report(basis_vector(SectorParams(2, 0), 3), 4),
             "states.sr_report: operator power 4 does not match sector k=2"),
            (lambda: residual_check(
                basis_vector(SectorParams(2, 0), 3), SqueezeParams(SectorParams(2, 1), 0.3, 1.0)),
             "states.residual_check: params sector does not match the vector sector"),
        ],
        ids=["deficiency-M", "lambda-prime", "nu-zero", "state-tol", "coherent-tol",
             "lowering", "raising", "sr-report", "residual"],
    )
    def test_errors_name_the_module(self, call, message):
        with pytest.raises(ValueError, match=r"^states\.[\w.]+: ") as excinfo:
            call()
        assert str(excinfo.value) == message
