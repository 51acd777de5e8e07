"""One closed-loop client: runs a workload's ops in a fresh interpreter.

    python3 bench_worker.py --workload W --seed S --seconds T
                            [--min-rounds R] [--trace]
                            --src DIR --workdir DIR --result FILE

Whole rounds run until --seconds have passed and at least --min-rounds
rounds are done.  Each op is timed alone; results are reduced to plain
data right after their op's clock stops.  The pickle written to --result
holds (op, latency_s, outcome) per op, the wall time of the timed phase,
the process's peak RSS and, without --trace, the host calibration time
taken just before each op (bench_host.py).

With --trace every op runs three times in a row: once untimed, since a
first run pays one-off costs (page faults on fresh memory) that a second
does not; then once untraced and once with the tracer installed, the
order alternating from op to op, so that the host's drift over seconds
falls on both alike.  The pickle then also holds the traced
(op, latency_s, outcome) list and the spans.
"""

from __future__ import annotations

import argparse
import itertools
import os
import pickle
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import powersqueeze

    if src not in Path(powersqueeze.__file__).resolve().parents:
        print(f"bench_worker: imported {powersqueeze.__file__}, not the copy in {src}", file=sys.stderr)
        return 2

    import bench_ops
    from bench_host import calibrate
    from bench_inputs import make_round
    from bench_trace import Tracer

    if args.workload == "cli":
        import powersqueeze.cli  # noqa: F401 - imported before the clock, as setup_s counts it

    workdir = Path(args.workdir)
    os.chdir(workdir)  # relative --out paths of cli ops land here
    # inputs exist before the clock starts; later rounds, if a fast run
    # needs them, are generated between ops
    ahead = [make_round(args.workload, args.seed, r) for r in range(8)]

    def run_op(op):
        if op["kind"] == "cli":
            bench_ops.materialize(op, workdir)
            t0 = time.perf_counter()
            outcome = bench_ops.run_cli_inprocess(op["argv"])
            latency = time.perf_counter() - t0
            outcome["out_file"] = bench_ops.read_out_file(op, workdir)
            return latency, outcome
        t0 = time.perf_counter()
        try:
            raw = bench_ops.run_library_op(op)
        except Exception as exc:  # noqa: BLE001 - every failure is data
            return time.perf_counter() - t0, bench_ops.failure(exc)
        latency = time.perf_counter() - t0
        return latency, {"summary": bench_ops.summarize(op, raw)}

    def run_traced(op):
        tracer.op_id = op["id"]
        with tracer:
            return run_op(op)

    results, traced, calibration = [], [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    for r in itertools.count():
        if r >= args.min_rounds and time.perf_counter() - start >= args.seconds:
            break
        for op in ahead[r] if r < len(ahead) else make_round(args.workload, args.seed, r):
            if not tracer:
                calibration.append(calibrate())
                results.append((op, *run_op(op)))
                continue
            run_op(op)
            if len(results) % 2:
                traced.append((op, *run_traced(op)))
                results.append((op, *run_op(op)))
            else:
                results.append((op, *run_op(op)))
                traced.append((op, *run_traced(op)))
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    payload = {"results": results, "wall_s": wall, "peak_rss_kb": peak_kb, "calibration": calibration}
    if tracer:
        payload.update(traced=traced, spans=tracer.spans, counts=dict(tracer.counts))
    with open(args.result, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
