"""Independent reference checks, run after the timed phase.

Nothing here imports powersqueeze: off-diagonals come from exact integer
products, eigenvalues from LAPACK (scipy.linalg.eigh_tridiagonal), the
orthonormal polynomials from mpmath's hypergeometric function, and the
CLI output is parsed as a consumer would parse it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from bench_inputs import KNOWN_DEFECTS, spectrum_defect_region

RESIDUAL_TOL = 1e-10
NORM_TOL = 1e-12
SR_GAP_TOL = 1e-6  # gap / rhs on constructed eigenstates
SR_RHS_TOL = 1e-9
EIGEN_C = 2.0  # agreement within tol + EIGEN_C * n * eps * max|lambda|
DEFICIENCY_COUNTS = {1: 1, 2: 1, 3: 2}
RECOVERY_TOL = 1e-6
ORTHO_TOL = 1e-8
POLLACZEK_TOL = 1e-8
TRACEBACK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class Check:
    passed: bool
    detail: str = ""
    defect: str | None = None  # documented defect whose input region this op is in

    @property
    def known_failure(self) -> bool:
        return not self.passed and self.defect is not None and KNOWN_DEFECTS[self.defect] in self.detail


def b_exact(k: int, kappa: int, count: int) -> np.ndarray:
    """b_0..b_{count-1} as sqrt of the exact integer product (mk+kappa+1)...(mk+kappa+k)."""
    out = np.empty(count)
    for m in range(count):
        start = m * k + kappa + 1
        out[m] = math.sqrt(math.prod(range(start, start + k)))
    return out


def check(op: dict, outcome: dict) -> Check:
    kind = op["kind"]
    if kind == "cli":
        return check_cli(op, outcome)
    if kind in ("bisect", "sweep", "ladder"):
        return _check_spectra(op, outcome)
    if "error" in outcome:
        detail = f"{outcome['error']}: {outcome['message']}"
        return Check(False, detail, op.get("defect"))
    summary = outcome["summary"]
    return Check(*_CHECKS[kind](op, summary), op.get("defect"))


# ---------------------------------------------------------------------------
# states


def _state_residual(k, kappa, nu, lam, c, truncated) -> float:
    """Relative residual of (mu a^k + nu a+^k - lambda) c over the kept slots."""
    mu = math.sqrt(1.0 + abs(nu) ** 2)
    n = len(c)
    b = b_exact(k, kappa, n)
    low = np.zeros(n, dtype=np.complex128)
    low[:-1] = b[:-1] * c[1:]
    high = np.zeros(n, dtype=np.complex128)
    high[1:] = b[:-1] * c[:-1]
    keep = n - 2 if truncated and n > 2 else n
    resid = (mu * low + nu * high - lam * c)[:keep]
    num = float(np.linalg.norm(resid))
    den = abs(lam) + mu * np.linalg.norm(low[:keep]) + abs(nu) * np.linalg.norm(high[:keep])
    return num / den if den > 0 else num


def _sr_rhs(k, kappa, c, truncated) -> float:
    n = len(c)
    keep = n - 2 if truncated and n > 2 else n
    w = np.array(
        [math.perm(m * k + kappa + k, k) - math.perm(m * k + kappa, k) for m in range(keep)],
        dtype=np.float64,
    )
    p = np.abs(c[:keep]) ** 2
    fk = float(np.sum(w * p) / np.sum(p))
    return fk * fk / 16.0


def check_state(op, summary) -> tuple[bool, str]:
    k, kappa, tol = op["k"], op["kappa"], op["tol"]
    c = summary["coefficients"]
    nu, lam = complex(*op["nu"]), complex(*op["lam"])
    truncated = summary["tail"] > 0.0
    problems = []
    norm = float(np.sum(np.abs(c) ** 2))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"norm^2 {norm!r}")
    if not (c[0].real > 0.0 and abs(c[0].imag) <= 1e-15 * c[0].real):
        problems.append(f"c_0 = {c[0]!r} is not real positive")
    if summary["tail"] >= tol:
        problems.append(f"tail {summary['tail']:.3e} >= tol")
    resid = _state_residual(k, kappa, nu, lam, c, truncated)
    if not resid <= RESIDUAL_TOL:
        problems.append(f"reference residual {resid:.3e}")
    if not summary["residual"] <= RESIDUAL_TOL:
        problems.append(f"reported residual {summary['residual']:.3e}")
    sr = summary["sr"]
    rhs = _sr_rhs(k, kappa, c, truncated)
    if not abs(sr["rhs"] - rhs) <= SR_RHS_TOL * rhs:
        problems.append(f"SR rhs {sr['rhs']!r} vs reference {rhs!r}")
    if not abs(sr["gap"]) <= SR_GAP_TOL * rhs:
        problems.append(f"SR gap/rhs {sr['gap'] / rhs:.3e}")
    return not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# spectra


def reference_eigenvalues(k, kappa, n, theta=0.0) -> np.ndarray:
    b = b_exact(k, kappa, n)
    diag = np.zeros(n)
    diag[-1] = theta * b[n - 1]
    if n == 1:
        return diag.copy()
    return scipy.linalg.eigh_tridiagonal(diag, b[: n - 1], eigvals_only=True)


def eigen_bound(ref: np.ndarray, tol: float) -> float:
    return tol + EIGEN_C * len(ref) * np.finfo(np.float64).eps * float(np.max(np.abs(ref)))


def _strictly_interlaced(small, large) -> bool:
    small, large = np.sort(small), np.sort(large)
    return bool(np.all(large[:-1] < small) and np.all(small < large[1:]))


def _nearest(values, targets):
    values = np.sort(values)
    return np.array([float(np.min(np.abs(values - t))) for t in targets])


def _check_spectra(op, outcome) -> Check:
    k, kappa, tol = op["k"], op["kappa"], op["tol"]
    if op["kind"] == "bisect":
        cases = [(op["n"], 0.0)]
    elif op["kind"] == "sweep":
        cases = [(op["n"], float(t)) for t in op["thetas"]]
    else:
        cases = [(op["n"] + i, 0.0) for i in range(op["length"])]
    refs = [reference_eigenvalues(k, kappa, n, theta) for n, theta in cases]
    in_region = any(spectrum_defect_region(float(np.max(np.abs(r))), tol) for r in refs)
    defect = "bisect-absolute-tol" if in_region else None
    if "error" in outcome:
        return Check(False, f"{outcome['error']}: {outcome['message']}", defect)

    s = outcome["summary"]
    got = [s["eigenvalues"]] if op["kind"] == "bisect" else s["spectra"]
    problems = []
    for (n, theta), ref, ev in zip(cases, refs, got):
        if len(ev) != n:
            problems.append(f"n={n}: {len(ev)} eigenvalues")
            continue
        err = float(np.max(np.abs(np.sort(ev) - ref)))
        if not err <= eigen_bound(ref, tol):
            problems.append(f"n={n} theta={theta}: |bisect - LAPACK| = {err:.3e}")
    if op["kind"] != "bisect" and not problems:
        bound = 2.0 * max(eigen_bound(r, tol) for r in refs)
        window = op["window"]
        spacings = [np.diff(np.sort(r[np.abs(r) <= window])) for r in refs]
        spacings = [float(np.min(d)) for d in spacings if len(d)]
        ref_spacing = min(spacings) if spacings else None
        if (ref_spacing is None) != (s["min_spacing"] is None) or (
            ref_spacing is not None and abs(ref_spacing - s["min_spacing"]) > bound
        ):
            problems.append(f"min spacing {s['min_spacing']!r} vs reference {ref_spacing!r}")
        gaps = [
            float(np.min(_nearest(b, a[np.abs(a) <= window])))
            for i, a in enumerate(refs)
            for b in refs[i + 1 :]
            if np.any(np.abs(a) <= window)
        ]
        ref_gap = min(gaps) if gaps else None
        if (ref_gap is None) != (s["cross_gap"] is None) or (
            ref_gap is not None and abs(ref_gap - s["cross_gap"]) > bound
        ):
            problems.append(f"cross-theta gap {s['cross_gap']!r} vs reference {ref_gap!r}")
        if op["kind"] == "ladder":
            flags = s["interlacing"]
            if len(flags) != op["length"] - 1 or not all(f[2] for f in flags):
                problems.append(f"interlacing flags {flags}")
            for small, large in zip(got, got[1:]):
                if not _strictly_interlaced(small, large):
                    problems.append(f"sizes {len(small)}/{len(large)} do not interlace strictly")
    return Check(not problems, "; ".join(problems), defect)


# ---------------------------------------------------------------------------
# certificates


def check_deficiency(op, s) -> tuple[bool, str]:
    want = DEFICIENCY_COUNTS[op["k"]]
    if s["count"] == want and s["conclusive"]:
        return True, ""
    return False, f"count {s['count']} (conclusive {s['conclusive']}), expected {want}"


def check_classify(op, s) -> tuple[bool, str]:
    k, kappa, M = op["k"], op["kappa"], op["M"]
    want = "determined" if k <= 2 else "limit_circle"
    partial = math.fsum(1.0 / b_exact(k, kappa, M + 1))
    problems = []
    if s["verdict"] != want:
        problems.append(f"verdict {s['verdict']}, expected {want}")
    if abs(s["partial_sum"] - partial) > 1e-12 * partial:
        problems.append(f"partial sum {s['partial_sum']!r} vs reference {partial!r}")
    return not problems, "; ".join(problems)


def check_moments(op, s) -> tuple[bool, str]:
    kappa = 0 if op["b"] == 0.25 else 1  # rho_1/4, rho_3/4 <-> the k = 2 sectors
    n = len(s["offdiag"])
    want = b_exact(2, kappa, n) / 4.0
    problems = []
    if abs(s["values"][0] - 1.0) > 10 * op["tol"]:
        problems.append(f"s_0 = {s['values'][0]!r}")
    if not s["hankel_positive"]:
        problems.append("Hankel minors not positive")
    err = float(np.max(np.abs(s["offdiag"] - want)))
    if not err <= RECOVERY_TOL:
        problems.append(f"recovered off-diagonals off by {err:.3e}")
    if not float(np.max(np.abs(s["diag"]))) <= RECOVERY_TOL:
        problems.append("recovered diagonal not zero")
    return not problems, "; ".join(problems)


def pollaczek_reference(m: int, x: float, b: float) -> float:
    """i^m sqrt((2b)_m / m!) 2F1(-m, b + ix; 2b; 2) at 80 digits."""
    with mpmath.workdps(80):
        series = mpmath.hyp2f1(-m, b + 1j * x, 2 * b, 2)
        scale = mpmath.sqrt(mpmath.rf(2 * b, m) / mpmath.factorial(m))
        return float(mpmath.re(mpmath.mpc(0, 1) ** m * scale * series))


def check_pollaczek(op, s) -> tuple[bool, str]:
    for m, value in enumerate(s["values"]):
        ref = pollaczek_reference(m, op["x"], op["b"])
        if not abs(value - ref) <= POLLACZEK_TOL * max(1.0, abs(ref)):
            return False, f"P_{m} = {value!r} vs reference {ref!r}"
    return True, ""


def check_orthonormality(op, s) -> tuple[bool, str]:
    for key, (value, _) in s["integrals"].items():
        i, j = map(int, key.split(","))
        if not abs(value - (i == j)) <= ORTHO_TOL:
            return False, f"<P_{i}, P_{j}> = {value!r}"
    return True, ""


_CHECKS = {
    "squeezed": check_state,
    "coherent": check_state,
    "deficiency": check_deficiency,
    "classify": check_classify,
    "moments": check_moments,
    "pollaczek": check_pollaczek,
    "orthonormality": check_orthonormality,
}


# ---------------------------------------------------------------------------
# cli


def contract_violation(outcome: dict) -> bool:
    """Exit codes outside 0/1/2, a traceback, or a numerical error (exit 1)
    whose message is not one line."""
    lines = outcome["stderr"].strip().splitlines()
    return (
        outcome["exit"] not in (0, 1, 2)
        or TRACEBACK in outcome["stderr"]
        or (outcome["exit"] == 1 and len(lines) != 1)
    )


def _parse_document(text: str, schema: str, fmt: str):
    """The parsed document, or a string saying why it does not parse."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != f"#schema={schema}/1":
            return f"first line {lines[0] if lines else ''!r} is not the {schema} schema line"
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            return "ragged or empty CSV"
        return rows
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"JSON does not parse: {exc}"
    if not isinstance(doc, dict) or set(doc) != {"config", "results", "diagnostics"}:
        return "JSON lacks config/results/diagnostics"
    if doc["config"].get("command") != schema:
        return f"config.command {doc['config'].get('command')!r}"
    return doc


def _check_cli_values(doc: dict) -> str:
    """Numerical checks on JSON results that carry their own inputs."""
    cfg = doc["config"]
    if cfg["command"] == "state":
        coeffs = doc["results"]["coefficients"]
        c = np.array([complex(e["re"], e["im"]) for e in coeffs])
        op = {
            "k": cfg["k"],
            "kappa": cfg["kappa"],
            "tol": cfg["tol"],
            "nu": [cfg["nu"]["re"], cfg["nu"]["im"]],
            "lam": [cfg["lambda"]["re"], cfg["lambda"]["im"]],
        }
        mu = math.sqrt(1.0 + abs(complex(*op["nu"])) ** 2)
        if abs(doc["diagnostics"]["mu"] - mu) > 1e-15 * mu:
            return f"mu {doc['diagnostics']['mu']!r}"
        resid = _state_residual(op["k"], op["kappa"], complex(*op["nu"]), complex(*op["lam"]), c,
                                doc["diagnostics"]["tail_estimate"] > 0.0)
        norm = float(np.sum(np.abs(c) ** 2))
        if not (resid <= RESIDUAL_TOL and abs(norm - 1.0) <= NORM_TOL):
            return f"state residual {resid:.3e}, norm^2 {norm!r}"
    if cfg["command"] == "spectrum":
        ref = reference_eigenvalues(cfg["k"], cfg["kappa"], cfg["n"])
        ev = np.array(doc["results"]["eigenvalues"])
        if len(ev) != len(ref) or float(np.max(np.abs(ev - ref))) > eigen_bound(ref, cfg["tol"]):
            return "spectrum disagrees with LAPACK"
    return ""


def check_cli(op: dict, outcome: dict) -> Check:
    expect, defect = op["expect"], op.get("defect")
    stderr = outcome["stderr"]
    problems = []
    if outcome["exit"] not in expect["exit"]:
        problems.append(f"exit {outcome['exit']}, expected {expect['exit']}")
    if TRACEBACK in stderr:
        problems.append("traceback")
    if expect.get("one_line") and len(stderr.strip().splitlines()) != 1:
        problems.append(f"stderr has {len(stderr.strip().splitlines())} lines")
    if expect.get("message") and expect["message"] not in stderr:
        problems.append(f"message does not name {expect['message']}")
    if not problems and "schema" in expect:
        text = (outcome["out_file"] if op.get("out") else outcome["stdout"]) or b""
        if op.get("out") and outcome["stdout"]:
            problems.append("--out also wrote to stdout")
        doc = _parse_document(text.decode("utf-8"), expect["schema"], expect["format"])
        if isinstance(doc, str):
            problems.append(doc)
        elif expect["format"] == "json":
            if "min_cutoff" in expect and doc["results"]["cutoff"] < expect["min_cutoff"]:
                problems.append(f"cutoff {doc['results']['cutoff']} below {expect['min_cutoff']}")
            value_problem = _check_cli_values(doc)
            if value_problem:
                problems.append(value_problem)
    if outcome.get("repeat_equal") is False:
        problems.append("repeated run gave different bytes")
    detail = "; ".join(problems)
    if problems:
        detail += " | stderr: " + stderr.strip()
    return Check(not problems, detail, defect)
