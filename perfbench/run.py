"""powersqueeze benchmark: four closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload {states,spectra,certificates,cli}
                             --seed N --seconds T --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds T

Run from the repository root; the program is imported from ./src.  One
client, one op at a time, no threads.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the same ops untraced and then traced, checks that
both give identical results, reports the per-layer metrics and writes the
spans to .perfbench/.  `--workload all` runs every workload both ways and
prints every metric.  Every op is checked against an independent reference
after the timed phase.  End-to-end times are reported at a reference host
speed (bench_host.py); the notes give them as measured.  The last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools stay at one thread in this process and every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_host import calibrate, speed_scale  # noqa: E402
from bench_inputs import MIN_ROUNDS, TAIL_PERCENTILE, WORKLOADS, make_round  # noqa: E402

SETUP_SPAWNS = 5


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no program, a worker died)."""


# ---------------------------------------------------------------------------
# processes


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _spawn_import(env, root, module, importtime=False) -> tuple[float, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", f"import {module}"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"`import {module}` failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def measure_setup(env, root, module) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing `module`, after
    one untimed spawn that fills the bytecode and file caches; and the
    speed scale from calibrations taken before each timed spawn."""
    _spawn_import(env, root, module)
    times, calibration = [], []
    for _ in range(SETUP_SPAWNS):
        calibration += [calibrate() for _ in range(3)]
        times.append(_spawn_import(env, root, module)[0])
    return statistics.median(times), speed_scale(calibration)


def import_profile(env, root) -> dict[str, float]:
    """Cumulative import times (s) from `python -X importtime`, median of 3."""
    samples = []
    for _ in range(3):
        _, log = _spawn_import(env, root, "powersqueeze.cli", importtime=True)
        cumulative = {}
        for line in log.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        samples.append(cumulative)
    return {
        "cli.startup_s": statistics.median(s.get("powersqueeze.cli", 0.0) for s in samples),
        "cli.import_scipy_s": statistics.median(s.get("scipy.linalg", 0.0) for s in samples),
    }


def run_worker(ctx, tag, *, seconds, min_rounds=1, trace=False) -> dict:
    workdir = ctx.work / tag
    workdir.mkdir()
    result = ctx.work / f"{tag}.pkl"
    cmd = [
        sys.executable, str(Path(__file__).with_name("bench_worker.py")),
        "--workload", ctx.workload, "--seed", str(ctx.seed),
        "--src", str(ctx.src), "--workdir", str(workdir), "--result", str(result),
        "--seconds", str(seconds), "--min-rounds", str(min_rounds),
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, "rb") as fh:  # written by our own worker just now
        return pickle.load(fh)


def _spawn_cli(ctx, op, workdir) -> tuple[float, dict]:
    from bench_ops import read_out_file

    out_path, err_path = ctx.work / "cli.stdout", ctx.work / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "powersqueeze.cli", *op["argv"]],
            cwd=workdir, env=ctx.env, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, {
        "exit": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes().decode("utf-8", "replace"),
        "out_file": read_out_file(op, workdir),
        "rss_kb": usage.ru_maxrss,
    }


def run_cli_processes(ctx, seconds) -> dict:
    """The cli workload untraced: one fresh interpreter per op, whole rounds
    until `seconds` have passed and MIN_ROUNDS are done.  A round runs its
    ops, then runs every op that exited 0 again, which must give the same
    bytes.  The second run is timed like the first: an op's latency is the
    mean of its runs, taken some 20 s apart, so it follows the host's
    speed over the round rather than at one moment."""
    from bench_ops import materialize

    workdir = ctx.work / "cli"
    workdir.mkdir()
    results, calibration = [], []
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS["cli"] or time.perf_counter() - start < seconds:
        first = []
        for op in make_round("cli", ctx.seed, r):
            materialize(op, workdir)
            calibration.append(calibrate())
            first.append((op, *_spawn_cli(ctx, op, workdir)))
        results += first
        for op, _, outcome in first:
            if outcome["exit"] == 0:
                materialize(op, workdir)
                calibration.append(calibrate())
                latency, again = _spawn_cli(ctx, op, workdir)
                same = (again["stdout"], again["out_file"]) == (outcome["stdout"], outcome["out_file"])
                outcome["repeat_equal"] = again["repeat_equal"] = same
                results.append((op, latency, again))
        r += 1
    wall = time.perf_counter() - start
    peak_kb = max(outcome["rss_kb"] for _, _, outcome in results)
    return {"results": results, "wall_s": wall, "peak_rss_kb": peak_kb, "calibration": calibration}


# ---------------------------------------------------------------------------
# checks and metrics


def verify(results):
    from bench_oracles import check

    return [check(op, outcome) for op, _, outcome in results]


def percentile(ascending: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    pos = p / 100.0 * (len(ascending) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ascending) - 1)
    return ascending[lo] + (pos - lo) * (ascending[hi] - ascending[lo])


def end_to_end(workload, run, checks, setup) -> tuple[dict, dict]:
    """The end-to-end metrics, every time at the reference host speed
    (bench_host.py); the notes give the times as measured."""
    n = len(run["results"])
    passed = sum(c.passed for c in checks)
    scale = speed_scale(run["calibration"])
    # The latency percentiles are taken over the ops of a round, each op's
    # latency being its mean over the run's rounds.  The host's speed
    # changes by up to 1.8x within seconds; a percentile of the raw samples
    # jumps between the fast and the slow speed as the share of time spent
    # in each crosses it, while an op's mean follows that share smoothly.
    by_op: dict[str, list[float]] = {}  # position in the round -> latencies
    for op, lat, _ in run["results"]:
        by_op.setdefault(op["id"].split(".", 1)[1], []).append(lat)
    ascending = sorted(statistics.fmean(lats) for lats in by_op.values())
    p = TAIL_PERCENTILE[workload]
    p50, tail = percentile(ascending, 50.0), percentile(ascending, p)
    setup_s, setup_scale = setup
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "ops_per_s": (passed / (run["wall_s"] * scale), "1/s"),
        "op_latency_p50_ms": (p50 * scale * 1e3, "ms"),
        "op_latency_tail_ms": (tail * scale * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "ops_failed_frac": ((n - passed) / n, "ratio"),
    }
    rounds = n // len(by_op)
    beyond = sum(len(lats) for lats in by_op.values() if statistics.fmean(lats) > tail)
    notes = {
        "setup_s": f"{setup_s:.4f} s as measured; host speed scale {setup_scale:.4f}",
        "op_latency_p50_ms": f"{p50 * 1e3:.4f} ms as measured; median of {len(by_op)} ops' means over {rounds} rounds",
        "op_latency_tail_ms": f"{tail * 1e3:.4f} ms as measured; p{p:g} of {len(by_op)} ops' means over "
        f"{rounds} rounds ({beyond} of {n} samples beyond)",
        "ops_per_s": f"{passed} verified ops in {run['wall_s']:.2f} s as measured; host speed scale {scale:.4f}",
    }
    return metrics, notes


def cli_counters(results) -> dict:
    from bench_oracles import contract_violation

    cli_ops = [outcome for op, _, outcome in results if op["kind"] == "cli"]
    return {
        "cli.bytes_out": (sum(len(o["stdout"]) + len(o.get("out_file") or b"") for o in cli_ops), "B"),
        "cli.contract_violations": (sum(contract_violation(o) for o in cli_ops), "count"),
    }


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op_id, work, failed in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "op": op_id, "work": work, "failed": failed}) + "\n")


# ---------------------------------------------------------------------------
# one workload, one mode


class Context:
    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.env = child_env(self.src)
        self.work = root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)


def run_untraced(ctx, seconds) -> dict:
    module = "powersqueeze.cli" if ctx.workload == "cli" else "powersqueeze"
    setup = measure_setup(ctx.env, ctx.root, module)
    if ctx.workload == "cli":
        run = run_cli_processes(ctx, seconds)
    else:
        run = run_worker(ctx, "run", seconds=seconds, min_rounds=MIN_ROUNDS[ctx.workload])
    checks = verify(run["results"])
    metrics, notes = end_to_end(ctx.workload, run, checks, setup)
    return {"metrics": metrics, "notes": notes, "checks": checks, "run": run, "identical": True}


def run_traced(ctx, seconds) -> dict:
    from bench_ops import comparable, same_result
    from bench_trace import layer_metrics, per_round

    run = run_worker(ctx, "traced", seconds=seconds, trace=True)
    plain, traced = run["results"], run["traced"]
    identical = all(
        a[0] == b[0] and same_result(comparable(a[2]), comparable(b[2])) for a, b in zip(plain, traced)
    )
    checks = verify(plain)
    metrics = layer_metrics(run["spans"], run["counts"])
    metrics.update(cli_counters(plain))
    rounds = len({op["round"] for op, _, _ in traced})
    metrics = per_round(metrics, rounds)
    metrics.update((k, (v, "s")) for k, v in import_profile(ctx.env, ctx.root).items())
    plain_s, traced_s = (sum(lat for _, lat, _ in results) for results in (plain, traced))
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    spans_path = ctx.work / "spans.jsonl"
    write_spans(spans_path, run["spans"])
    notes = {
        "trace.overhead_frac": f"traced {traced_s:.2f} s vs untraced {plain_s:.2f} s over the same "
        f"{len(plain)} ops, run in pairs; totals above are per round ({rounds} traced)",
        "spans": f"{len(run['spans'])} spans in {spans_path.relative_to(ctx.root)}",
    }
    return {"metrics": metrics, "notes": notes, "checks": checks, "run": run, "identical": identical}


def summarize(outcome) -> dict:
    checks = outcome["checks"]
    unexpected = [c for c in checks if not c.passed and not c.known_failure]
    return {
        "correct": not unexpected and outcome["identical"],
        "attempted": len(checks),
        "failed": sum(not c.passed for c in checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(outcome["metrics"].items())},
    }


def report(workload, trace, outcome) -> None:
    """Every metric by name with its unit, then the failed ops by cause."""
    print(f"== {workload} (trace {trace})")
    for name, (value, unit) in sorted(outcome["metrics"].items()):
        note = outcome["notes"].get(name)
        print(f"  {name:52s} {value:14.6g} {unit:6s}{'  ' + note if note else ''}")
    if "spans" in outcome["notes"]:
        print(f"  {outcome['notes']['spans']}")
    if not outcome["identical"]:
        print("  traced and untraced runs gave different results")
    by_cause: dict[str, list] = {}
    for (op, _, _), c in zip(outcome["run"]["results"], outcome["checks"]):
        if not c.passed:
            cause = f"known defect {c.defect}" if c.known_failure else "UNEXPECTED"
            by_cause.setdefault(cause, []).append((op, c))
    for cause, items in sorted(by_cause.items()):
        op, c = items[0]
        first = c.detail.replace("\n", " ")[:160]
        print(f"  failed ({cause}): {len(items)} ops, e.g. {op['id']} {op['kind']}: {first}")


def run_one(root, workload, seed, seconds, trace) -> dict:
    ctx = Context(root, workload, seed, trace)
    outcome = run_traced(ctx, seconds) if trace else run_untraced(ctx, seconds)
    summary = summarize(outcome)
    (ctx.work / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    report(workload, trace, outcome)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "powersqueeze" / "__init__.py").is_file():
        print(f"perfbench: no src/powersqueeze under {root}; run from the repository root", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so that the
    # host calibration (bench_host.py) times the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload != "all":
            summary = run_one(root, args.workload, args.seed, args.seconds, args.trace)
        else:
            parts = {
                (w, t): run_one(root, w, args.seed, args.seconds, t)
                for w in WORKLOADS
                for t in (0, 1)
            }
            summary = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}.{name}": m for (w, _), p in parts.items() for name, m in p["metrics"].items()},
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for m in summary["metrics"].values():
        if not math.isfinite(m["value"]):
            print("perfbench: non-finite metric", file=sys.stderr)
            return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
