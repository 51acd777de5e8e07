"""Batch command-line front end.

Every run is a pure function of its flags: no randomness, no environment
lookups, no timestamps.  Floats are printed with 17 significant digits
(lossless for binary64), so repeated runs are byte-identical and JSON
output can be fed back in without losing precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import NumericsError
from .jacobi import SectorParams
from .moments import classify_determinacy, moments
from .polynomials import pollaczek
from .spectra import TridiagonalMatrix, eigenvalues_bisect, extension_sweep, nearest_distance
from .states import (
    FockVector,
    SqueezeParams,
    build_power_coherent,
    build_state,
    deficiency_evidence,
    residual_check,
    sr_report,
)


class _UsageError(Exception):
    """Flag validation failure; printed as a one-line reason, exit 2."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _parse_complex(text: str) -> complex:
    try:
        text = text.strip()
        # only a trailing i is the imaginary unit: "inf" and "nan" stay words
        value = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise _UsageError(f"cannot parse complex number {text!r}; use a+bi") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _UsageError(f"complex number must be finite, got {text!r}")
    return value


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return _fmt(v) if math.isfinite(v) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported JSON scalar {value!r}")


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def _render_csv(schema: str, header: list[str], rows) -> str:
    lines = [f"#schema={schema}/1", ",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(_fmt(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(args, document: dict, schema: str, header: list[str], rows) -> None:
    if args.format == "json":
        text = _render_json(document) + "\n"
    else:
        text = _render_csv(schema, header, rows)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _complex_doc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _sector(args) -> SectorParams:
    if args.k < 1:
        raise _UsageError(f"--k must be >= 1, got {args.k}")
    if not 0 <= args.kappa < args.k:
        raise _UsageError(f"--kappa must lie in [0, {args.k - 1}], got {args.kappa}")
    return SectorParams(args.k, args.kappa)


def _check_tol(tol: float) -> float:
    if not 0.0 < tol <= 1e-4:
        raise _UsageError(f"--tol must lie in (0, 1e-4], got {tol}")
    return tol


# ---------------------------------------------------------------------------
# subcommands


def _cmd_state(args) -> None:
    sector = _sector(args)
    tol = _check_tol(args.tol)
    if args.nu is None or args.lam is None:
        raise _UsageError("state needs both --nu and --lambda")
    nu = _parse_complex(args.nu)
    lam = _parse_complex(args.lam)
    params = SqueezeParams(sector, nu, lam)
    if nu == 0:
        vec = build_power_coherent(sector, lam, tol)
    else:
        vec = build_state(params, tol)
    residual = residual_check(vec, params)
    config = {
        "command": "state",
        "k": sector.k,
        "kappa": sector.kappa,
        "nu": _complex_doc(nu),
        "lambda": _complex_doc(lam),
        "tol": tol,
    }
    coeffs = [
        {"m": m, "re": c.real, "im": c.imag} for m, c in enumerate(vec.coefficients)
    ]
    document = {
        "config": config,
        "results": {"coefficients": coeffs, "cutoff": vec.cutoff},
        "diagnostics": {
            "tail_estimate": vec.tail_estimate,
            "residual": residual,
            "mu": params.mu,
        },
    }
    rows = [(m, c.real, c.imag) for m, c in enumerate(vec.coefficients)]
    _emit(args, document, "state", ["m", "re_c", "im_c"], rows)


def _cmd_spectrum(args) -> None:
    sector = _sector(args)
    tol = _check_tol(args.tol)
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    if args.ell and sector.k != 2:
        raise _UsageError("--ell converts to the quarter-scaled variable; needs --k 2")
    T = TridiagonalMatrix.truncation(sector, args.n)
    report = eigenvalues_bisect(T, tol)
    config = {
        "command": "spectrum",
        "k": sector.k,
        "kappa": sector.kappa,
        "n": args.n,
        "tol": tol,
        "ell": bool(args.ell),
    }
    results = {"eigenvalues": list(report.eigenvalues)}
    if args.ell:
        results["ell"] = [e / 4.0 for e in report.eigenvalues]
    document = {
        "config": config,
        "results": results,
        "diagnostics": {"bisect_tol": report.bisect_tol, "n": report.n},
    }
    if args.ell:
        rows = [(r, e, e / 4.0) for r, e in enumerate(report.eigenvalues)]
        _emit(args, document, "spectrum-ell", ["rank", "eigenvalue", "ell"], rows)
    else:
        rows = list(enumerate(report.eigenvalues))
        _emit(args, document, "spectrum", ["rank", "eigenvalue"], rows)


def _cmd_extensions(args) -> None:
    sector = _sector(args)
    tol = _check_tol(args.tol)
    thetas = args.theta if args.theta else [0.0]
    if not all(math.isfinite(t) for t in thetas):
        raise _UsageError(f"--theta must be finite, got {thetas}")
    if args.n < 50:
        raise _UsageError(f"--n must be >= 50 for extensions, got {args.n}")
    reports = extension_sweep(sector, args.n, thetas, tol)
    reports.sort(key=lambda rep: rep.boundary_theta)  # theta is the row index
    config = {
        "command": "extensions",
        "k": sector.k,
        "kappa": sector.kappa,
        "n": args.n,
        "theta": sorted(thetas),
        "tol": tol,
    }
    cross = None
    if len(reports) > 1:
        gaps = []
        for i, a in enumerate(reports):
            for b in reports[i + 1 :]:
                gaps.append(float(np.min(nearest_distance(b.eigenvalues, a.central(5)))))
        cross = min(gaps)
    document = {
        "config": config,
        "results": [
            {"theta": rep.boundary_theta, "eigenvalues": list(rep.eigenvalues)}
            for rep in reports
        ],
        "diagnostics": {"cross_theta_min_gap_central5": cross},
    }
    rows = [
        (rep.boundary_theta, rank, e)
        for rep in reports
        for rank, e in enumerate(rep.eigenvalues)
    ]
    _emit(args, document, "extensions", ["theta", "rank", "eigenvalue"], rows)


def _cmd_classify(args) -> None:
    sector = _sector(args)
    if args.M < 1000:
        raise _UsageError(f"--M must be >= 1000 for classify, got {args.M}")
    verdict = classify_determinacy(sector.k, sector.kappa, args.M)
    config = {
        "command": "classify",
        "k": sector.k,
        "kappa": sector.kappa,
        "M": args.M,
    }
    document = {
        "config": config,
        "results": {
            "verdict": verdict.verdict.value,
            "partial_sum": verdict.partial_sum,
            "tail_upper_bound": None
            if math.isinf(verdict.tail_upper)
            else verdict.tail_upper,
            "reciprocal_sum_divergent": math.isinf(verdict.tail_upper),
            "divergence_lower_bound": verdict.lower_bound,
            "log_concave_from": verdict.log_concave_from,
        },
        "diagnostics": {},
    }
    rows = [
        (
            verdict.k,
            verdict.kappa,
            verdict.M,
            verdict.verdict.value,
            verdict.partial_sum,
            verdict.tail_upper,
            verdict.lower_bound,
            verdict.log_concave_from,
        )
    ]
    header = [
        "k",
        "kappa",
        "M",
        "verdict",
        "partial_sum",
        "tail_upper_bound",
        "divergence_lower_bound",
        "log_concave_from",
    ]
    _emit(args, document, "classify", header, rows)


def _check_b(b: float | None) -> None:
    if b is None or not 0.0 < b < math.inf:
        raise _UsageError(f"--b must be a positive finite weight parameter, got {b}")


def _cmd_moments(args) -> None:
    _check_b(args.b)
    if not 0 <= args.M <= 24:
        raise _UsageError(f"--M (highest moment order) must be in [0, 24], got {args.M}")
    tol = _check_tol(args.tol)
    seq = moments(args.b, args.M, tol)
    config = {"command": "moments", "b": args.b, "M": args.M, "tol": tol}
    document = {
        "config": config,
        "results": {
            "moments": [
                {"m": m, "value": v, "quad_error": e}
                for m, (v, e) in enumerate(zip(seq.values, seq.quad_error))
            ]
        },
        "diagnostics": {},
    }
    rows = [(m, v, e) for m, (v, e) in enumerate(zip(seq.values, seq.quad_error))]
    _emit(args, document, "moments", ["m", "value", "quad_error"], rows)


def _cmd_pollaczek(args) -> None:
    _check_b(args.b)
    if args.M < 0:
        raise _UsageError(f"--M (max degree) must be >= 0, got {args.M}")
    if args.lam is None:
        raise _UsageError("pollaczek needs --lambda (the real evaluation point)")
    point = _parse_complex(args.lam)
    if point.imag != 0.0:
        raise _UsageError("--lambda must be real for pollaczek (the argument x)")
    x = point.real
    values = [pollaczek(m, x, args.b) for m in range(args.M + 1)]
    config = {"command": "pollaczek", "b": args.b, "M": args.M, "x": x}
    document = {
        "config": config,
        "results": {"values": [{"m": m, "value": v} for m, v in enumerate(values)]},
        "diagnostics": {},
    }
    _emit(args, document, "pollaczek", ["m", "value"], list(enumerate(values)))


def _load_state_json(path: str) -> tuple[FockVector, SqueezeParams]:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        config = document["config"]
        sector = SectorParams(int(config["k"]), int(config["kappa"]))
        nu = complex(config["nu"]["re"], config["nu"]["im"])
        lam = complex(config["lambda"]["re"], config["lambda"]["im"])
        coeffs = document["results"]["coefficients"]
        if not coeffs:
            raise ValueError("the coefficient list is empty")
        arr = np.zeros(len(coeffs), dtype=np.complex128)
        for entry in coeffs:
            m = int(entry["m"])
            if not 0 <= m < len(coeffs):
                raise ValueError(f"coefficient index m={m} outside 0..{len(coeffs) - 1}")
            arr[m] = complex(entry["re"], entry["im"])
        tail = float(document["diagnostics"]["tail_estimate"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"cannot read state JSON {path!r}: {exc}") from None
    return FockVector(sector, arr, tail), SqueezeParams(sector, nu, lam)


def _cmd_verify_sr(args) -> None:
    if args.state_json:
        vec, params = _load_state_json(args.state_json)
        config = {
            "command": "verify-sr",
            "state_json": args.state_json,
            "k": params.sector.k,
            "kappa": params.sector.kappa,
            "nu": _complex_doc(params.nu),
            "lambda": _complex_doc(params.lam),
        }
    else:
        if args.nu is None or args.lam is None:
            raise _UsageError("verify-sr needs either a state JSON path or --nu and --lambda")
        sector = _sector(args)
        tol = _check_tol(args.tol)
        nu = _parse_complex(args.nu)
        lam = _parse_complex(args.lam)
        params = SqueezeParams(sector, nu, lam)
        vec = (
            build_power_coherent(sector, lam, tol)
            if nu == 0
            else build_state(params, tol)
        )
        config = {
            "command": "verify-sr",
            "k": sector.k,
            "kappa": sector.kappa,
            "nu": _complex_doc(nu),
            "lambda": _complex_doc(lam),
            "tol": tol,
        }
    report = sr_report(vec, params.sector.k)
    residual = residual_check(vec, params)
    results = {
        "var_a": report.var_a,
        "var_b": report.var_b,
        "cov_ab": report.cov_ab,
        "commutator_expectation": report.commutator_expectation,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "gap_over_rhs": report.gap / report.rhs if report.rhs > 0 else None,
    }
    document = {
        "config": config,
        "results": results,
        "diagnostics": {"residual": residual, "cutoff": vec.cutoff},
    }
    header = ["var_a", "var_b", "cov_ab", "commutator_expectation", "lhs", "rhs", "gap"]
    rows = [
        (
            report.var_a,
            report.var_b,
            report.cov_ab,
            report.commutator_expectation,
            report.lhs,
            report.rhs,
            report.gap,
        )
    ]
    _emit(args, document, "verify-sr", header, rows)


def _cmd_deficiency(args) -> None:
    sector = _sector(args)
    if args.M < 5000:
        raise _UsageError(f"--M must be >= 5000 for deficiency, got {args.M}")
    evidence = deficiency_evidence(sector, args.M)
    config = {
        "command": "deficiency",
        "k": sector.k,
        "kappa": sector.kappa,
        "M": args.M,
    }
    document = {
        "config": config,
        "results": {
            "count_square_summable": evidence.count,
            "exponent_polynomial": evidence.exponent_polynomial,
            "exponent_second": evidence.exponent_second,
            "minimal_exponent": evidence.minimal_exponent,
            "conclusive": evidence.conclusive,
        },
        "diagnostics": {},
    }
    header = [
        "count_square_summable",
        "exponent_polynomial",
        "exponent_second",
        "minimal_exponent",
        "conclusive",
    ]
    rows = [
        (
            evidence.count,
            evidence.exponent_polynomial,
            evidence.exponent_second,
            evidence.minimal_exponent,
            str(evidence.conclusive).lower(),
        )
    ]
    _emit(args, document, "deficiency", header, rows)


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersqueeze",
        description="Power-squeezed states, sector Jacobi spectra, and moment diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, theta=False, b=False, big_m=False, state=False, ell=False):
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--kappa", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)
        if n:
            p.add_argument("--n", type=int, required=True)
        if theta:
            p.add_argument("--theta", type=float, action="append", default=None)
        if b:
            p.add_argument("--b", type=float, default=None)
        if big_m:
            p.add_argument("--M", type=int, default=10000)
        if state:
            p.add_argument("--nu", type=str, default=None)
            p.add_argument("--lambda", dest="lam", type=str, default=None)
        if ell:
            p.add_argument("--ell", action="store_true")

    p = sub.add_parser("state", help="build one squeezed state")
    common(p, state=True)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("spectrum", help="eigenvalues of the plain truncation")
    common(p, n=True, ell=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("extensions", help="boundary-parameter spectrum sweep")
    common(p, n=True, theta=True)
    p.set_defaults(func=_cmd_extensions)

    p = sub.add_parser("classify", help="determined vs limit-circle certificates")
    common(p, big_m=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("moments", help="weight moments with error estimates")
    common(p, b=True, big_m=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("pollaczek", help="orthonormal polynomial values")
    common(p, b=True, big_m=True, state=True)
    p.set_defaults(func=_cmd_pollaczek)

    p = sub.add_parser("verify-sr", help="uncertainty report for a state")
    common(p, state=True)
    p.add_argument("state_json", nargs="?", default=None)
    p.set_defaults(func=_cmd_verify_sr)

    p = sub.add_parser("deficiency", help="square-summable solution count at i")
    common(p, big_m=True)
    p.set_defaults(func=_cmd_deficiency)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"invalid flags: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
