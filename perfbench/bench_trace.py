"""Spans around the library's public functions, recorded from outside.

Each public function is replaced, at every powersqueeze module attribute
that holds it, by a wrapper that records one span: name, start, end,
parent span, op id, a work count and whether it raised.  Spans stay in
memory; the caller writes them out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(name):
    """Work count = the value of one integer argument."""
    return lambda bound: int(bound.arguments[name])


def _size(name):
    """Work count = the number of points in one array argument."""
    return lambda bound: int(np.size(bound.arguments[name]))


def _bisect_work(bound):
    return bound.arguments["T"].n


# (module, attribute or Class.method, span name, work count)
LAYERS = [
    ("jacobi", "solve_recursion", "jacobi.solve_recursion", _arg("M")),
    ("jacobi", "growth_profile", "jacobi.growth_profile", None),
    ("jacobi", "OffDiagonalSequence.build", "jacobi.OffDiagonalSequence.build", _arg("length")),
    ("states", "build_state", "states.build_state", None),
    ("states", "build_power_coherent", "states.build_power_coherent", None),
    ("states", "sr_report", "states.sr_report", None),
    ("states", "residual_check", "states.residual_check", None),
    ("states", "deficiency_evidence", "states.deficiency_evidence", None),
    ("spectra", "TridiagonalMatrix.truncation", "spectra.TridiagonalMatrix.truncation", None),
    ("spectra", "eigenvalues_bisect", "spectra.eigenvalues_bisect", _bisect_work),
    ("spectra", "extension_sweep", "spectra.extension_sweep", None),
    ("spectra", "spectrum_diagnostics", "spectra.spectrum_diagnostics", None),
    ("moments", "integrate_weighted", "moments.integrate_weighted", None),
    ("moments", "moments", "moments.moments", None),
    ("moments", "hankel_positive", "moments.hankel_positive", None),
    ("moments", "moments_to_jacobi", "moments.moments_to_jacobi", None),
    ("moments", "classify_determinacy", "moments.classify_determinacy", None),
    ("polynomials", "pollaczek", "polynomials.pollaczek", None),
    ("polynomials", "pollaczek_table", "polynomials.pollaczek_table", None),
    ("polynomials", "weight_rho", "polynomials.weight_rho", _size("x")),
    ("cli", "main", "cli.main", None),
]

# calls counted without a span (its time stays in the caller's self time)
COUNTED = [("states", "_minimal_solution_profile", "states.deficiency_evidence.minimal_route_calls")]

# span fields
NAME, START, END, PARENT, OP, WORK, FAILED = range(7)


class Tracer:
    """Install with `with Tracer() as tracer:`; set `tracer.op_id` per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        import powersqueeze.cli  # noqa: F401 - load every module that holds a name

        mods = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("powersqueeze.")
        }
        holders = [sys.modules["powersqueeze"], *mods.values()]
        for modname, attr, span_name, work in LAYERS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[modname], cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(original.__func__, span_name, work))
                self._set(cls, meth, wrapped)
            else:
                original = getattr(mods[modname], attr)
                wrapped = self._wrap(original, span_name, work)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapped)
        for modname, attr, counter in COUNTED:
            original = getattr(mods[modname], attr)
            self._set(mods[modname], attr, self._count(original, counter))
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()
        return False

    def _set(self, holder, key, value):
        self._restore.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def _count(self, fn, counter):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name, work):
        signature = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            amount = work(signature.bind(*args, **kwargs)) if work else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, amount, False]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


# suffixes of metrics that add up over ops; they are reported per round
ADDITIVE = (".self_s", ".calls", ".steps", ".elements", ".points", ".failed", ".eigenvalues",
            ".cutoff_doublings", ".minimal_route_calls", ".bytes_out", ".contract_violations")


def per_round(metrics: dict[str, tuple[float, str]], rounds: int) -> dict[str, tuple[float, str]]:
    """Totals divided by the number of rounds traced, so that a faster
    program, which fits more rounds into the same seconds, reports the
    same work per round."""
    return {
        name: (value / rounds if name.endswith(ADDITIVE) else value, unit)
        for name, (value, unit) in metrics.items()
    }


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the tracer can supply, as name -> (value, unit).

    Layers the workload never called report zero.
    """
    self_t = _self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def total_self(name):
        return sum(self_t[i] for i in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for _, _, name, _ in LAYERS:
        if name != "cli.main":
            out[f"{name}.self_s"] = (total_self(name), "s")

    solve = by_name["jacobi.solve_recursion"]
    steps = sum(spans[i][WORK] for i in solve)
    out["jacobi.solve_recursion.calls"] = (len(solve), "count")
    out["jacobi.solve_recursion.steps"] = (steps, "count")
    out["jacobi.solve_recursion.ns_per_step"] = (
        ratio(total_self("jacobi.solve_recursion"), steps) * 1e9,
        "ns",
    )
    out["jacobi.OffDiagonalSequence.build.elements"] = (
        sum(spans[i][WORK] for i in by_name["jacobi.OffDiagonalSequence.build"]),
        "count",
    )

    doublings = solved = final = 0
    for i in by_name["states.build_state"]:
        ms = [spans[c][WORK] for c in children[i] if spans[c][NAME] == "jacobi.solve_recursion"]
        if ms:
            doublings += len(ms) - 1
            solved += sum(ms)
            final += ms[-1]
    out["states.build_state.cutoff_doublings"] = (doublings, "count")
    out["states.build_state.useful_step_ratio"] = (ratio(final, solved), "ratio")
    out["states.deficiency_evidence.minimal_route_calls"] = (
        counts.get("states.deficiency_evidence.minimal_route_calls", 0),
        "count",
    )

    bisect = by_name["spectra.eigenvalues_bisect"]
    eigenvalues = sum(spans[i][WORK] for i in bisect)
    out["spectra.eigenvalues_bisect.eigenvalues"] = (eigenvalues, "count")
    out["spectra.eigenvalues_bisect.us_per_eigenvalue"] = (
        ratio(total_self("spectra.eigenvalues_bisect"), eigenvalues) * 1e6,
        "us",
    )
    out["spectra.eigenvalues_bisect.failed"] = (sum(spans[i][FAILED] for i in bisect), "count")

    quad = by_name["moments.integrate_weighted"]
    points = useful = 0
    for i in quad:
        sizes = [spans[c][WORK] for c in children[i] if spans[c][NAME] == "polynomials.weight_rho"]
        points += sum(sizes)
        useful += sizes[-1] if sizes else 0
    out["moments.integrate_weighted.calls"] = (len(quad), "count")
    out["moments.integrate_weighted.points"] = (points, "count")
    out["moments.integrate_weighted.useful_point_ratio"] = (ratio(useful, points), "ratio")
    out["moments.integrate_weighted.failed"] = (sum(spans[i][FAILED] for i in quad), "count")

    out["cli.self_s"] = (total_self("cli.main"), "s")
    return out
