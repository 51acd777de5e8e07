"""Run one op against the library and reduce its result to plain data.

Every library call goes through the module attribute (`states.build_state`,
not a name bound at import), so the tracer's wrappers see it.  The
reduction to plain data (`summarize`) runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np


def _modules(*names):
    # import_module returns the submodule itself; `import powersqueeze.moments
    # as m` would bind the package attribute, which is the function moments()
    return tuple(importlib.import_module(f"powersqueeze.{name}") for name in names)


def run_library_op(op: dict):
    """Execute the op's library calls; returns the raw library objects."""
    jacobi, states, spectra, moments, polynomials = _modules(
        "jacobi", "states", "spectra", "moments", "polynomials"
    )
    kind = op["kind"]
    if kind in ("squeezed", "coherent"):
        sector = jacobi.SectorParams(op["k"], op["kappa"])
        params = states.SqueezeParams(sector, complex(*op["nu"]), complex(*op["lam"]))
        if kind == "coherent":
            vec = states.build_power_coherent(sector, params.lam, op["tol"])
        else:
            vec = states.build_state(params, op["tol"])
        residual = states.residual_check(vec, params)
        return vec, residual, states.sr_report(vec, op["k"])
    if kind == "bisect":
        sector = jacobi.SectorParams(op["k"], op["kappa"])
        T = spectra.TridiagonalMatrix.truncation(sector, op["n"])
        return spectra.eigenvalues_bisect(T, op["tol"])
    if kind == "sweep":
        sector = jacobi.SectorParams(op["k"], op["kappa"])
        reports = spectra.extension_sweep(sector, op["n"], op["thetas"], op["tol"])
        return reports, spectra.spectrum_diagnostics(reports, op["window"])
    if kind == "ladder":
        sector = jacobi.SectorParams(op["k"], op["kappa"])
        reports = [
            spectra.eigenvalues_bisect(
                spectra.TridiagonalMatrix.truncation(sector, op["n"] + i), op["tol"]
            )
            for i in range(op["length"])
        ]
        return reports, spectra.spectrum_diagnostics(reports, op["window"])
    if kind == "deficiency":
        return states.deficiency_evidence(jacobi.SectorParams(op["k"], op["kappa"]), op["M"])
    if kind == "classify":
        return moments.classify_determinacy(op["k"], op["kappa"], op["M"])
    if kind == "moments":
        seq = moments.moments(op["b"], op["up_to"], op["tol"])
        hankel = moments.hankel_positive(seq)
        return seq, hankel, moments.moments_to_jacobi(seq, jacobi_order(op["up_to"]))
    if kind == "pollaczek":
        return [polynomials.pollaczek(m, op["x"], op["b"]) for m in range(op["m_max"] + 1)]
    if kind == "orthonormality":
        b, d = op["b"], op["degree"]
        table = {}
        for i in range(d + 1):
            for j in range(i, d + 1):

                def f(x, i=i, j=j):
                    rows = polynomials.pollaczek_table(j, x, b)
                    return rows[i] * rows[j]

                table[(i, j)] = moments.integrate_weighted(f, b, op["tol"], degree=i + j)
        return table
    raise ValueError(f"unknown op kind {kind!r}")


def jacobi_order(up_to: int) -> int:
    """Largest recoverable Jacobi order from moments through up_to (<= 8)."""
    return min(8, (up_to - 2) // 2)


def summarize(op: dict, raw) -> dict:
    kind = op["kind"]
    if kind in ("squeezed", "coherent"):
        vec, residual, sr = raw
        return {
            "coefficients": np.array(vec.coefficients, dtype=np.complex128),
            "tail": float(vec.tail_estimate),
            "residual": float(residual),
            "sr": {name: float(getattr(sr, name)) for name in ("var_a", "var_b", "cov_ab", "commutator_expectation", "lhs", "rhs", "gap")},
        }
    if kind == "bisect":
        return {"eigenvalues": np.array(raw.eigenvalues)}
    if kind in ("sweep", "ladder"):
        reports, diag = raw
        return {
            "spectra": [np.array(rep.eigenvalues) for rep in reports],
            "thetas": [rep.boundary_theta for rep in reports],
            "min_spacing": diag.min_spacing_near_zero,
            "cross_gap": diag.cross_theta_min_gap,
            "interlacing": [list(t) for t in diag.interlacing],
        }
    if kind == "deficiency":
        return {
            "count": raw.count,
            "conclusive": raw.conclusive,
            "exponents": [raw.exponent_polynomial, raw.exponent_second, raw.minimal_exponent],
        }
    if kind == "classify":
        return {
            "verdict": raw.verdict.value,
            "partial_sum": float(raw.partial_sum),
            "tail_upper": float(raw.tail_upper),
            "lower_bound": float(raw.lower_bound),
            "log_concave_from": raw.log_concave_from,
        }
    if kind == "moments":
        seq, hankel, jc = raw
        return {
            "values": np.array(seq.values),
            "quad_error": np.array(seq.quad_error),
            "hankel_positive": hankel.positive,
            "offdiag": np.array(jc.offdiag),
            "diag": np.array(jc.diag),
        }
    if kind == "pollaczek":
        return {"values": np.array(raw, dtype=np.float64)}
    if kind == "orthonormality":
        return {"integrals": {f"{i},{j}": (float(v), float(e)) for (i, j), (v, e) in raw.items()}}
    raise ValueError(f"unknown op kind {kind!r}")


def failure(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# cli ops


def materialize(op: dict, workdir: Path) -> None:
    """Write the op's input files (outside the timed region)."""
    for name, document in op["files"].items():
        (workdir / name).write_text(json.dumps(document), encoding="utf-8")


def run_cli_inprocess(argv: list[str]) -> dict:
    """cli.main with stdout and stderr captured; an escaping exception is
    rendered as the interpreter would (traceback, exit 1)."""
    (cli,) = _modules("cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse --help and friends
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - reported like an uncaught error
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue().encode("utf-8"), "stderr": err.getvalue()}


def read_out_file(op: dict, workdir: Path) -> bytes | None:
    if op.get("out") is None:
        return None
    path = workdir / op["out"]
    return path.read_bytes() if path.exists() else None


def comparable(outcome: dict) -> dict:
    """The parts of an op outcome that must match between two runs.

    Traceback bodies name files and lines (and the tracer's wrappers), so
    only their presence and final line are compared.
    """
    if "summary" in outcome or "error" in outcome:
        return outcome
    lines = outcome["stderr"].strip().splitlines()
    return {
        "exit": outcome["exit"],
        "stdout": outcome["stdout"],
        "out_file": outcome.get("out_file"),
        "traceback": "Traceback (most recent call last)" in outcome["stderr"],
        "stderr_last": lines[-1] if lines else "",
    }


def same_result(a, b) -> bool:
    """Exact equality of plain-data results (NaN equals NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_result(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same_result(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b
