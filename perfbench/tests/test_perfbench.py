"""Tests of the benchmark itself: inputs, tracing and the reference checks.

Run from the repository root with `PYTHONPATH=src python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_ops  # noqa: E402
import bench_oracles  # noqa: E402
from bench_host import REFERENCE_S, speed_scale  # noqa: E402
from bench_inputs import WORKLOADS, make_round  # noqa: E402
from bench_trace import Tracer, layer_metrics  # noqa: E402

SMALL_OPS = [
    {"kind": "squeezed", "k": 2, "kappa": 1, "nu": [0.3, 0.4], "lam": [1.0, -0.5], "tol": 1e-10},
    {"kind": "coherent", "k": 3, "kappa": 2, "nu": [0.0, 0.0], "lam": [1.5, 0.5], "tol": 1e-12},
    {"kind": "bisect", "k": 3, "kappa": 0, "n": 12, "tol": 1e-9},
    {"kind": "ladder", "k": 2, "kappa": 1, "n": 5, "length": 3, "tol": 1e-10, "window": 5.0},
    {"kind": "sweep", "k": 3, "kappa": 0, "n": 60, "thetas": [-0.5, 0.25], "tol": 1e-9, "window": 5.0},
    {"kind": "classify", "k": 4, "kappa": 1, "M": 1000},
    {"kind": "moments", "b": 0.75, "up_to": 8, "tol": 1e-10},
    {"kind": "pollaczek", "b": 0.25, "m_max": 20, "x": 0.7},
    {"kind": "orthonormality", "b": 0.25, "degree": 2, "tol": 1e-10},
]
for _op in SMALL_OPS:
    _op.setdefault("defect", None)


def _run(op):
    try:
        return {"summary": bench_ops.summarize(op, bench_ops.run_library_op(op))}
    except Exception as exc:  # noqa: BLE001 - compared as data
        return bench_ops.failure(exc)


def _cli_op(argv, expect, defect=None):
    return {"kind": "cli", "argv": argv, "expect": expect, "defect": defect, "files": {}, "out": None}


SPECTRUM_CLI = _cli_op(
    ["spectrum", "--k", "1", "--n", "5", "--format", "json"],
    {"exit": [0], "schema": "spectrum", "format": "json"},
)


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert make_round(workload, 7, 0) == make_round(workload, 7, 0)
    assert make_round(workload, 7, 3) == make_round(workload, 7, 3)
    assert make_round(workload, 7, 0) != make_round(workload, 8, 0)
    assert make_round(workload, 7, 0) != make_round(workload, 7, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_has_the_same_structure(workload):
    def shape(ops):
        return [(op["kind"], op.get("k"), op.get("n"), op.get("tol"), op["defect"]) for op in ops]

    first = shape(make_round(workload, 1, 0))
    assert all(shape(make_round(workload, seed, r)) == first for seed in (2, 3) for r in (0, 5))


def test_k1_states_keep_lambda_squared_over_nu_real_and_positive():
    # the k = 1 cutoff, and so the cost, follows the phase of lambda^2 / nu
    squeezed = [op for op in make_round("states", 4, 2) if op["kind"] == "squeezed" and op["k"] == 1]
    fixed = {"kind": "squeezed", "k": 1, "nu": [10.0, 0.0], "lam": [0.0, 1.0]}
    drawn = [op for op in squeezed if any(op[key] != value for key, value in fixed.items())]
    assert len(squeezed) == 5 and len(drawn) == 4
    for op in drawn:
        ratio = complex(*op["lam"]) ** 2 / complex(*op["nu"])
        assert ratio.real >= 0.0 and abs(ratio.imag) <= 1e-12 * abs(ratio)


def test_speed_scale_follows_the_median_calibration():
    # one outlying sample does not move it
    assert speed_scale([2 * REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 40 * REFERENCE_S]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# tracing


def test_traced_and_untraced_runs_give_identical_results():
    import powersqueeze.jacobi
    import powersqueeze.states

    originals = (powersqueeze.states.solve_recursion, powersqueeze.jacobi.OffDiagonalSequence.__dict__["build"])
    plain = [_run(op) for op in SMALL_OPS] + [bench_ops.run_cli_inprocess(SPECTRUM_CLI["argv"])]
    with Tracer() as tracer:
        traced = [_run(op) for op in SMALL_OPS] + [bench_ops.run_cli_inprocess(SPECTRUM_CLI["argv"])]
    assert all(bench_ops.same_result(bench_ops.comparable(a), bench_ops.comparable(b)) for a, b in zip(plain, traced))
    assert all("summary" in outcome for outcome in plain[:-1])
    # every wrapper is removed again
    assert (powersqueeze.states.solve_recursion, powersqueeze.jacobi.OffDiagonalSequence.__dict__["build"]) == originals
    names = {span[0] for span in tracer.spans}
    assert {"states.build_state", "jacobi.solve_recursion", "spectra.eigenvalues_bisect", "cli.main",
            "moments.integrate_weighted", "polynomials.weight_rho"} <= names


def test_self_time_subtracts_children():
    # name, start, end, parent, op, work, failed
    spans = [
        ["states.build_state", 0.0, 10.0, -1, "0.0", None, False],
        ["jacobi.solve_recursion", 1.0, 3.0, 0, "0.0", 32, False],
        ["jacobi.solve_recursion", 4.0, 8.0, 0, "0.0", 64, False],
        ["spectra.eigenvalues_bisect", 11.0, 12.0, -1, "0.1", 50, True],
    ]
    m = layer_metrics(spans, {})
    assert m["states.build_state.self_s"][0] == pytest.approx(4.0)
    assert m["jacobi.solve_recursion.self_s"][0] == pytest.approx(6.0)
    assert m["jacobi.solve_recursion.steps"][0] == 96
    assert m["states.build_state.cutoff_doublings"][0] == 1
    assert m["states.build_state.useful_step_ratio"][0] == pytest.approx(64 / 96)
    assert m["spectra.eigenvalues_bisect.failed"][0] == 1
    assert m["moments.integrate_weighted.calls"][0] == 0


# ---------------------------------------------------------------------------
# oracles


def test_oracles_pass_correct_results():
    for op in SMALL_OPS:
        check = bench_oracles.check(op, _run(op))
        assert check.passed, (op["kind"], check.detail)
    outcome = bench_ops.run_cli_inprocess(SPECTRUM_CLI["argv"])
    assert bench_oracles.check(SPECTRUM_CLI, outcome).passed


def test_state_oracle_flags_perturbed_coefficient():
    op = SMALL_OPS[0]
    outcome = _run(op)
    coeff = outcome["summary"]["coefficients"]
    coeff[3] *= 1.0 + 1e-6
    coeff /= np.linalg.norm(coeff)
    check = bench_oracles.check(op, outcome)
    assert not check.passed and "reference residual" in check.detail


def test_spectrum_oracle_flags_shifted_eigenvalue():
    op = SMALL_OPS[2]
    outcome = _run(op)
    outcome["summary"]["eigenvalues"][5] += 1e-7
    assert not bench_oracles.check(op, outcome).passed


def test_ladder_oracle_flags_broken_interlacing():
    op = SMALL_OPS[3]
    outcome = _run(op)
    outcome["summary"]["interlacing"][0][2] = False
    assert not bench_oracles.check(op, outcome).passed


def test_certificate_oracles_flag_wrong_answers():
    deficiency = {"kind": "deficiency", "k": 3, "kappa": 0, "M": 5000, "defect": None}
    wrong = {"summary": {"count": 1, "conclusive": True, "exponents": [None, None, None]}}
    assert not bench_oracles.check(deficiency, wrong).passed
    moments = SMALL_OPS[6]
    outcome = _run(moments)
    outcome["summary"]["offdiag"][1] += 1e-5
    assert not bench_oracles.check(moments, outcome).passed


def test_cli_oracle_flags_wrong_exit_code_and_changed_bytes():
    outcome = bench_ops.run_cli_inprocess(SPECTRUM_CLI["argv"])
    assert not bench_oracles.check(SPECTRUM_CLI, dict(outcome, exit=1)).passed
    assert not bench_oracles.check(SPECTRUM_CLI, dict(outcome, repeat_equal=False)).passed
    assert not bench_oracles.check(SPECTRUM_CLI, dict(outcome, stdout=outcome["stdout"][:-40])).passed


def test_known_defect_needs_its_documented_failure():
    op = dict(SMALL_OPS[6], defect="moments-odd-order-floor")
    documented = bench_oracles.check(op, {"error": "QuadratureError", "message": "moments.integrate_weighted: no convergence to 1e-10"})
    other = bench_oracles.check(op, {"error": "ValueError", "message": "something else"})
    assert documented.known_failure and not other.known_failure
    probe = _cli_op(["extensions", "--k", "3", "--n", "60", "--theta", "nan"], {"exit": [2], "one_line": True}, "cli-theta-nan")
    nan_exit = {"exit": 1, "stdout": b"", "stderr": "error: cannot convert float NaN to integer\n"}
    check = bench_oracles.check(probe, nan_exit)
    assert not check.passed and check.known_failure
    assert not bench_oracles.check(probe, dict(nan_exit, stderr="Traceback (most recent call last):\n")).known_failure
