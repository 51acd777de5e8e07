"""Batch command-line front end.

Every run is a pure function of its flags: no randomness, no environment
lookups, no timestamps.  Floats are printed with 17 significant digits
(lossless for binary64), so repeated runs are byte-identical and JSON
output can be fed back in without losing precision.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import NumericsError
from .jacobi import SectorParams
from .moments import classify_determinacy, moments
from .polynomials import _CROSS_CHECK_LIMIT as _POLLACZEK_CHECKED, pollaczek, pollaczek_table
from .spectra import TridiagonalMatrix, eigenvalues_bisect, extension_sweep, nearest_distance
from .states import (
    FockVector,
    SqueezeParams,
    build_state,
    deficiency_evidence,
    residual_check,
    sr_report,
)

# caps on the array-sizing flags, so that a huge value is refused up front
# instead of failing in allocation.  --M of classify and deficiency: at
# 2e6, deficiency --k 1 took 0.35 s and 74 MB peak RSS, classify --k 5
# 0.3 s and 46 MB (one Xeon core)
_MAX_M = 2_000_000
# pollaczek holds one table of M + 1 floats and writes its rows as it
# formats them: --M 100000 took 0.5 s (CSV) and 0.7 s (JSON) and 31 MB
# peak RSS in either format, about 1 MB more than --M 10 (one Xeon core)
_MAX_POLLACZEK_M = 100_000
# --n of spectrum and extensions: the LAPACK seed and the Sturm passes are
# O(n^2), so past a few thousand rows the cap is set by time.  At 12800 one
# spectrum at theta = 0 took 1.3 to 3.0 s and 35 to 38 MB peak RSS for
# k = 1, 2, 3, 4 and 40, and extensions --k 3 7.2 s per --theta 0.5 (one
# Xeon core)
_MAX_SPECTRUM_N = 12_800
# --theta of extensions: each flag costs one full spectrum, up to 10 s at
# the --n cap (k = 3, --tol 1e-300); 8 flags took 63 s and 47 MB peak RSS
# there (one Xeon core)
_MAX_THETAS = 8
# pieces joined into one write, a piece being about one row: some 40 to
# 100 KB of text.  A long document is never held whole, and 1 << 14 pieces
# (1.5 MB of state rows, with their str objects) took 1.5 MB more peak RSS
_PIECES_PER_WRITE = 1 << 10


class _UsageError(Exception):
    """Flag validation failure; printed as a one-line reason, exit 2."""


class _WriteError(Exception):
    """stdout refused a write; printed as one line naming the write, exit 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a _UsageError instead of a usage block and
    an exit; add_subparsers gives every subcommand parser this class."""

    def error(self, message):
        raise _UsageError(message)


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


_SCALARS = (type(None), bool, int, float, str, np.integer, np.floating)
# a key as JSON text; the keys are the few field names, repeated on every row
_json_key = functools.cache(json.dumps)


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
    return json.dumps(value)  # str, the last of _SCALARS


def _json_pieces(obj, indent: int = 0):
    """obj as two-space-indented JSON, in pieces whose concatenation is the
    document.  A dict is an object, a scalar a _json_scalar, and any other
    iterable a list, read once, as it is rendered.  A dict streams its
    values; a list gives one piece per element, its rows."""
    if isinstance(obj, _SCALARS):
        yield _json_scalar(obj)
        return
    if isinstance(obj, dict):
        items = ((f"{_json_key(k)}: ", v) for k, v in obj.items())
        bounds = "{}"
    else:
        items = (("", v) for v in obj)
        bounds = "[]"
    inner = "  " * (indent + 1)
    separator = bounds[0]
    for prefix, value in items:
        head = f"{separator}\n{inner}{prefix}"
        if isinstance(value, _SCALARS):
            yield head + _json_scalar(value)
        elif bounds == "[]":
            yield head + "".join(_json_pieces(value, indent + 1))
        else:
            yield head
            yield from _json_pieces(value, indent + 1)
        separator = ","
    yield bounds if separator == bounds[0] else f"\n{'  ' * indent}{bounds[1]}"


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return _fmt(cell)


def _csv_pieces(schema: str, header: list[str], rows):
    yield f"#schema={schema}/1\n{','.join(header)}\n"
    for row in rows:
        yield ",".join(_csv_cell(cell) for cell in row) + "\n"


def _write(stream, pieces) -> None:
    """Write the pieces, a batch of _PIECES_PER_WRITE at a time (no piece is
    empty, so an empty batch means the end)."""
    pieces = iter(pieces)
    while batch := "".join(itertools.islice(pieces, _PIECES_PER_WRITE)):
        stream.write(batch)


def _emit(
    args, config: dict, results, diagnostics: dict, header: list[str], rows=None, schema=None
) -> None:
    """Write the {config, results, diagnostics} document as JSON, the config
    led by the command, or the rows as CSV under the command's schema unless
    given one; without rows, one row is read from config and results by name.

    The document is written as it is formatted: any list in results, and
    rows, may be a generator.  It may only read what is already computed,
    so that a command that fails has written nothing."""
    if args.format == "json":
        config = {"command": args.command, **config}
        document = {"config": config, "results": results, "diagnostics": diagnostics}
        pieces = itertools.chain(_json_pieces(document), ["\n"])
    else:
        if rows is None:
            fields = {**config, **results}
            rows = [[fields[name] for name in header]]
        pieces = _csv_pieces(schema or args.command, header, rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                _write(out, pieces)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        try:
            _write(sys.stdout, pieces)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            raise _WriteError(f"cli._emit: cannot write to stdout: {exc.strerror}") from None


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


def _check_b(b: float | None) -> None:
    if b is None or not 0.0 < b < math.inf:
        raise _UsageError(f"--b must be a positive finite weight parameter, got {b}")


def _sector_config(sector: SectorParams) -> dict:
    return {"k": sector.k, "kappa": sector.kappa}


def _state_config(params: SqueezeParams) -> dict:
    return {
        **_sector_config(params.sector),
        "nu": {"re": params.nu.real, "im": params.nu.imag},
        "lambda": {"re": params.lam.real, "im": params.lam.imag},
    }


def _state_from_flags(args) -> tuple[FockVector, SqueezeParams, dict]:
    """The state that --k, --kappa, --nu, --lambda and --tol name, its
    parameters and its config."""
    sector = _sector(args)
    tol = _check_tol(args.tol)
    if args.nu is None or args.lam is None:
        raise _UsageError(f"{args.command} needs both --nu and --lambda")
    nu = _parse_complex(args.nu)
    lam = _parse_complex(args.lam)
    params = SqueezeParams(sector, nu, lam)
    vec = build_state(params, tol)
    config = {**_state_config(params), "tol": tol}
    return vec, params, config


# ---------------------------------------------------------------------------
# subcommands


def _cmd_state(args) -> None:
    vec, params, config = _state_from_flags(args)
    rows = ((m, c.real, c.imag) for m, c in enumerate(vec.coefficients))
    results = {
        "coefficients": ({"m": m, "re": re, "im": im} for m, re, im in rows),
        "cutoff": vec.cutoff,
    }
    diagnostics = {
        "tail_estimate": vec.tail_estimate,
        "residual": residual_check(vec, params),
        "mu": params.mu,
    }
    _emit(args, config, results, diagnostics, ["m", "re_c", "im_c"], rows)


def _cmd_spectrum(args) -> None:
    sector = _sector(args)
    tol = _check_tol(args.tol)
    if not 1 <= args.n <= _MAX_SPECTRUM_N:
        raise _UsageError(f"--n must be in [1, {_MAX_SPECTRUM_N}], got {args.n}")
    if args.ell and sector.k != 2:
        raise _UsageError("--ell converts to the quarter-scaled variable; needs --k 2")
    report = eigenvalues_bisect(TridiagonalMatrix.truncation(sector, args.n), tol)
    config = {**_sector_config(sector), "n": args.n, "tol": tol, "ell": args.ell}
    results = {"eigenvalues": report.eigenvalues}
    diagnostics = {"bisect_tol": report.bisect_tol, "n": report.n}
    header, columns, schema = ["rank", "eigenvalue"], [report.eigenvalues], None
    if args.ell:
        results["ell"] = report.eigenvalues / 4.0
        header, schema = [*header, "ell"], "spectrum-ell"
        columns.append(results["ell"])
    _emit(args, config, results, diagnostics, header, zip(itertools.count(), *columns), schema)


def _cmd_extensions(args) -> None:
    sector = _sector(args)
    tol = _check_tol(args.tol)
    thetas = args.theta if args.theta else [0.0]
    if len(thetas) > _MAX_THETAS:
        raise _UsageError(f"--theta may be given at most {_MAX_THETAS} times, got {len(thetas)}")
    if not all(math.isfinite(t) for t in thetas):
        raise _UsageError(f"--theta must be finite, got {thetas}")
    if not 50 <= args.n <= _MAX_SPECTRUM_N:
        raise _UsageError(
            f"--n must be in [50, {_MAX_SPECTRUM_N}] for extensions, got {args.n}"
        )
    reports = extension_sweep(sector, args.n, thetas, tol)
    reports.sort(key=lambda rep: rep.boundary_theta)  # theta is the row index
    config = {**_sector_config(sector), "n": args.n, "theta": sorted(thetas), "tol": tol}
    gaps = [
        float(np.min(nearest_distance(b.eigenvalues, a.central(5))))
        for i, a in enumerate(reports)
        for b in reports[i + 1 :]
    ]
    results = [{"theta": rep.boundary_theta, "eigenvalues": rep.eigenvalues} for rep in reports]
    diagnostics = {"cross_theta_min_gap_central5": min(gaps, default=None)}
    rows = (
        (rep.boundary_theta, rank, e)
        for rep in reports
        for rank, e in enumerate(rep.eigenvalues)
    )
    _emit(args, config, results, diagnostics, ["theta", "rank", "eigenvalue"], rows)


def _cmd_classify(args) -> None:
    sector = _sector(args)
    if not 1000 <= args.M <= _MAX_M:
        raise _UsageError(f"--M must be in [1000, {_MAX_M}] for classify, got {args.M}")
    verdict = classify_determinacy(sector.k, sector.kappa, args.M)
    config = {**_sector_config(sector), "M": args.M}
    results = {
        "verdict": verdict.verdict.value,
        "partial_sum": verdict.partial_sum,
        "tail_upper_bound": verdict.tail_upper,
        "reciprocal_sum_divergent": math.isinf(verdict.tail_upper),
        "divergence_lower_bound": verdict.lower_bound,
        "log_concave_from": verdict.log_concave_from,
    }
    # reciprocal_sum_divergent repeats tail_upper_bound = inf, and the CSV leaves it out
    header = [name for name in {**config, **results} if name != "reciprocal_sum_divergent"]
    _emit(args, config, results, {}, header)


def _cmd_moments(args) -> None:
    _check_b(args.b)
    if not 0 <= args.M <= 24:
        raise _UsageError(f"--M (highest moment order) must be in [0, 24], got {args.M}")
    tol = _check_tol(args.tol)
    seq = moments(args.b, args.M, tol)
    config = {"b": args.b, "M": args.M, "tol": tol}
    rows = [(m, v, e) for m, (v, e) in enumerate(zip(seq.values, seq.quad_error))]
    results = {"moments": [{"m": m, "value": v, "quad_error": e} for m, v, e in rows]}
    _emit(args, config, results, {}, ["m", "value", "quad_error"], rows)


def _cmd_pollaczek(args) -> None:
    _check_b(args.b)
    if not 0 <= args.M <= _MAX_POLLACZEK_M:
        raise _UsageError(f"--M (max degree) must be in [0, {_MAX_POLLACZEK_M}], got {args.M}")
    if args.lam is None:
        raise _UsageError("pollaczek needs --lambda (the real evaluation point)")
    point = _parse_complex(args.lam)
    if point.imag != 0.0:
        raise _UsageError("--lambda must be real for pollaczek (the argument x)")
    x = point.real
    # one pass for all degrees, overflowing to inf and nan as silently as pollaczek()
    with np.errstate(over="ignore", invalid="ignore"):
        table = pollaczek_table(args.M, np.array([x]), args.b)[:, 0]
    # pollaczek() for the degrees it cross-checks against the exact series,
    # all of them before a byte is written
    checked = [pollaczek(m, x, args.b) for m in range(min(args.M, _POLLACZEK_CHECKED) + 1)]
    rows = enumerate(itertools.chain(checked, table[len(checked) :]))
    config = {"b": args.b, "M": args.M, "x": x}
    results = {"values": ({"m": m, "value": v} for m, v in rows)}
    _emit(args, config, results, {}, ["m", "value"], rows)


def _load_state_json(path: str) -> tuple[FockVector, SqueezeParams]:
    try:
        # _fmt prints -0.0 as "-0", which json reads as the integer 0
        text = Path(path).read_text(encoding="utf-8")
        document = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
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
        config = {"state_json": args.state_json, **_state_config(params)}
    elif args.nu is None or args.lam is None:
        raise _UsageError("verify-sr needs either a state JSON path or --nu and --lambda")
    else:
        vec, params, config = _state_from_flags(args)
    report = sr_report(vec, params.sector.k)
    fields = asdict(report)  # the CSV row; the JSON results add gap_over_rhs
    results = {**fields, "gap_over_rhs": report.gap / report.rhs if report.rhs > 0 else None}
    diagnostics = {"residual": residual_check(vec, params), "cutoff": vec.cutoff}
    _emit(args, config, results, diagnostics, list(fields))


def _cmd_deficiency(args) -> None:
    sector = _sector(args)
    if not 5000 <= args.M <= _MAX_M:
        raise _UsageError(f"--M must be in [5000, {_MAX_M}] for deficiency, got {args.M}")
    evidence = deficiency_evidence(sector, args.M)
    config = {**_sector_config(sector), "M": args.M}
    results = {
        "count_square_summable": evidence.count,
        "exponent_polynomial": evidence.exponent_polynomial,
        "exponent_second": evidence.exponent_second,
        "minimal_exponent": evidence.minimal_exponent,
        "conclusive": evidence.conclusive,
    }
    diagnostics = {"contamination_bound": evidence.contamination_bound}
    _emit(args, config, results, diagnostics, list(results))


# ---------------------------------------------------------------------------
# argument wiring

# (name, add_argument keywords)
_SECTOR = [("--k", {"type": int, "default": 1}), ("--kappa", {"type": int, "default": 0})]
_TOL = ("--tol", {"type": float, "default": 1e-10})
_OUTPUT = [
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    ("--out", {"type": str, "default": None}),
]
_N = ("--n", {"type": int, "required": True})
_THETA = ("--theta", {"type": float, "action": "append", "default": None})
_B = ("--b", {"type": float, "default": None})
_M = ("--M", {"type": int, "default": 10000})
_NU = ("--nu", {"type": str, "default": None})
_LAMBDA = ("--lambda", {"dest": "lam", "type": str, "default": None})
_ELL = ("--ell", {"action": "store_true"})
_STATE_JSON = ("state_json", {"nargs": "?", "default": None})

# command: (handler, help, every flag it reads, in the order they are added)
_COMMANDS = {
    "state": (_cmd_state, "build one squeezed state", [*_SECTOR, _TOL, *_OUTPUT, _NU, _LAMBDA]),
    "spectrum": (
        _cmd_spectrum, "eigenvalues of the plain truncation", [*_SECTOR, _TOL, *_OUTPUT, _N, _ELL]
    ),
    "extensions": (
        _cmd_extensions, "boundary-parameter spectrum sweep", [*_SECTOR, _TOL, *_OUTPUT, _N, _THETA]
    ),
    "classify": (
        _cmd_classify, "determined vs limit-circle certificates", [*_SECTOR, *_OUTPUT, _M]
    ),
    "moments": (_cmd_moments, "weight moments with error estimates", [_TOL, *_OUTPUT, _B, _M]),
    "pollaczek": (_cmd_pollaczek, "orthonormal polynomial values", [*_OUTPUT, _B, _M, _LAMBDA]),
    "verify-sr": (
        _cmd_verify_sr,
        "uncertainty report for a state",
        [*_SECTOR, _TOL, *_OUTPUT, _NU, _LAMBDA, _STATE_JSON],
    ),
    "deficiency": (
        _cmd_deficiency, "square-summable solution count at i", [*_SECTOR, *_OUTPUT, _M]
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powersqueeze",
        description="Power-squeezed states, sector Jacobi spectra, and moment diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else 0
    except _UsageError as exc:
        print(f"invalid flags: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OverflowError, ValueError, _WriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> int:
    """main() as a process of its own, `python -m powersqueeze.cli` or the
    `powersqueeze` script.  Once stdout has refused a write, what is left in
    its buffer goes to the null device, so that the interpreter prints
    nothing more at exit; callers of main() in a process of theirs keep
    their stdout."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(console_main())
