"""Seeded, stratified inputs for the four benchmark workloads.

A workload is an endless sequence of rounds; each round is a list of op
specs (plain dicts of numbers and strings, so they pickle and compare
exactly).  Every round has the same structure: each parameter that
drives cost (|nu|, n, M, moment order) takes fixed values spread over its
range (the midpoints of equal, mostly logarithmic strata), always paired
with the same sector and tolerance.  The seed draws everything else: the
phases of nu and lambda, |lambda|, kappa, b, boundary parameters and
evaluation points.  Run-to-run timing noise is about 10% on a shared
2-core host, so cost-driving draws would add spread without adding
coverage; with them fixed, totals move little from one seed to another,
and a run that completes one round more or less measures the same mix.

Each spec may carry `defect`: the name of a documented defect of the
program whose input region the op lies in (see KNOWN_DEFECTS).  Such ops
stay in the mix; a failure there is counted as failed, and it keeps the
run `correct` only when it fails exactly the documented way.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("states", "spectra", "certificates", "cli")

# An end-to-end run completes at least this many rounds, however long
# they take, so that its op count never falls below MIN_ROUNDS * ops per
# round (46 states, 32 spectra, 26 certificates, 27 cli).
MIN_ROUNDS = {"states": 5, "spectra": 2, "certificates": 2, "cli": 1}

# The tail latency is reported at a percentile of the ops' mean latencies
# that leaves at least ten samples beyond it at MIN_ROUNDS rounds (see
# README).  Fixing it per workload keeps it the same quantile when a run
# completes one round more or less.
TAIL_PERCENTILE = {"states": 95.0, "spectra": 84.0, "certificates": 75.0, "cli": 60.0}

# name -> text that the failure message must contain
KNOWN_DEFECTS = {
    # odd moments have |current| = 0, so the 1e-14*|current| round-off
    # floor vanishes and refinement can never reach tol at orders 21, 23
    "moments-odd-order-floor": "no convergence",
    # absolute bisection tolerance below the float spacing of |lambda|
    "bisect-absolute-tol": "bracket did not shrink",
    # NaN reaches int() inside the sweep instead of flag validation
    "cli-theta-nan": "cannot convert float NaN",
    # verify-sr indexes / divides on unchecked JSON content
    "cli-malformed-state-json": "Traceback",
    # --out is opened without checking the directory
    "cli-out-missing-dir": "Traceback",
    # the library's moments defect seen through the CLI
    "cli-moments-odd-order": "no convergence",
    # build_power_coherent multiplies lam^m / prod(b) in linear arithmetic:
    # for k = 1 and |lam| ~ 28..37 every slot overflows to inf/nan and is
    # zeroed, the vector comes back with norm 0, and sr_report divides by it
    "states-coherent-overflow": "division by zero",
}


def _rng(workload: str, seed: int, r: int) -> random.Random:
    # string seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{r}")


def _complex(rng: random.Random, radius_lo: float, radius_hi: float) -> list[float]:
    rho = rng.uniform(radius_lo, radius_hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [rho * math.cos(phi), rho * math.sin(phi)]


# ---------------------------------------------------------------------------
# states: sweeps of squeezed states (recursion kernel)

# k = 4 first so that the highest |nu| strata go to k = 1 and 2, whose
# cutoffs reach 16384
_STATE_SECTORS = [(k, kappa) for k in range(4, 0, -1) for kappa in range(k)]
_STATE_OPS = 40
# below |nu| ~ 0.5 every state stops at the first cutoff (32); starting the
# range at 0.005 puts a bit over half of the ops there, so the median op
# sits inside that plateau (per-op overhead) instead of on a cutoff step
_NU_LO = 0.005
# per-k top of the |nu| range: cutoffs reach 8192 at the top grid point
# (higher k converge faster and need a larger |nu|)
_NU_HI = {1: 10.0, 2: 14.0, 3: 14.0, 4: 14.0}


def _states_round(rng: random.Random) -> list[dict]:
    ops = []
    for j in range(_STATE_OPS):
        k, kappa = _STATE_SECTORS[j % len(_STATE_SECTORS)]
        tol = (1e-10, 1e-12)[(j // len(_STATE_SECTORS)) % 2]
        x = (j + 0.5) / _STATE_OPS
        nu_abs = _NU_LO * (_NU_HI[k] / _NU_LO) ** x
        phase = rng.uniform(0.0, 2.0 * math.pi)
        lam = _complex(rng, 0.0, 2.0)
        if k == 1:
            # at k = 1 the final cutoff follows the phase of lambda^2 / nu:
            # at |nu| ~ 9 it moves between 8192 and 16384, at |nu| ~ 1.4
            # between 128 and 512.  That phase is kept at 0.  The phase of
            # nu alone does not drive cost (a -> a e^{i theta} maps (nu,
            # lambda) to (nu e^{-2i theta}, lambda e^{-i theta}) and leaves
            # |c_m| alone), so the seed still draws it, |lambda| and a sign
            rho, lam_phase = math.hypot(*lam), phase / 2.0 + math.pi * rng.randrange(2)
            lam = [rho * math.cos(lam_phase), rho * math.sin(lam_phase)]
        ops.append(
            {
                "kind": "squeezed",
                "k": k,
                "kappa": kappa,
                "nu": [nu_abs * math.cos(phase), nu_abs * math.sin(phase)],
                "lam": lam,
                "tol": tol,
            }
        )
    # the top of the range as one fixed op: at |nu| ~ 10 the final cutoff
    # moves between 8192 and 32768 with the phases of nu and lambda, a
    # factor 4 in cost that would otherwise follow the seed
    ops.append(
        {"kind": "squeezed", "k": 1, "kappa": 0, "nu": [10.0, 0.0], "lam": [0.0, 1.0], "tol": 1e-12}
    )
    # nu = 0: eigenstates of a^k alone, |lambda| log-spread over 0.5..6
    for j, k in enumerate((1, 2, 3, 4)):
        ops.append(
            {
                "kind": "coherent",
                "k": k,
                "kappa": rng.randrange(k),
                "nu": [0.0, 0.0],
                "lam": _complex(rng, *[(0.5, 1.0), (1.0, 2.0), (2.0, 3.5), (3.5, 6.0)][j]),
                "tol": (1e-10, 1e-12)[j % 2],
            }
        )
    # a k = 1 coherent state with mean photon number 800..1300
    ops.append(
        {
            "kind": "coherent",
            "k": 1,
            "kappa": 0,
            "nu": [0.0, 0.0],
            "lam": _complex(rng, 28.0, 36.0),
            "tol": 1e-10,
            "defect": "states-coherent-overflow",
        }
    )
    return ops


# ---------------------------------------------------------------------------
# spectra: Sturm bisection, boundary sweeps, interlacing ladders
#
# Sizes sit on fixed log grids (the geometric midpoints of equal log
# strata); the seed draws kappa and the boundary parameters.  Whether an
# op falls in the bisect-absolute-tol region depends on n, so fixed sizes
# keep the set of defect ops, and the cost of a round, the same for every
# seed.  No grid size lies within 7% of a region boundary.

_DIAG_WINDOW = 5.0


def _log_grid(lo: float, hi: float, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** ((j + 0.5) / count)) for j in range(count)]


BISECT_SIZES = _log_grid(3, 1600, 16)
SWEEP_SIZES = _log_grid(50, 400, 4)
LADDER_SIZES = _log_grid(3, 200, 4)


def _spectra_round(rng: random.Random) -> list[dict]:
    ops = []
    # k cycles fastest, so every k sees four sizes spread over the range
    for j, n in enumerate(BISECT_SIZES):
        k, tol = 1 + j % 4, (1e-9, 1e-10)[(j // 4) % 2]
        ops.append({"kind": "bisect", "k": k, "kappa": rng.randrange(k), "n": n, "tol": tol})
    for j, n in enumerate(SWEEP_SIZES):
        k = 1 + j
        thetas = sorted(rng.uniform(-1.0, 1.0) for _ in range(2 + j % 2))
        ops.append(
            {
                "kind": "sweep",
                "k": k,
                "kappa": rng.randrange(k),
                "n": n,
                "thetas": thetas,
                "tol": (1e-9, 1e-10)[j % 2],
                "window": _DIAG_WINDOW,
            }
        )
    # eight more ladders of one kind, from n = 41 at k = 2, form a group of
    # similar cost in the middle of the round's costs, where the median falls
    ladders = [(4 - j, n) for j, n in enumerate(LADDER_SIZES)] + [(2, LADDER_SIZES[2])] * 8
    for j, (k, n) in enumerate(ladders):
        ops.append(
            {
                "kind": "ladder",
                "k": k,
                "kappa": rng.randrange(k),
                "n": n,
                "length": 4,
                "tol": (1e-9, 1e-10)[j % 2],
                "window": _DIAG_WINDOW,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# certificates: determinacy, deficiency, moments, quadrature

_B_VALUES = (0.25, 0.75)


def _certificates_round(rng: random.Random) -> list[dict]:
    """Ops come in groups of similar cost, so that the median and the tail
    percentile fall inside a group rather than between two: three long
    ones (a moments op past order 20, deficiency at k = 1 and 2), six
    of 0.1-0.25 s, ten pollaczek tables near 0.05 s, then short ones."""
    # k = 1 at M = 2e4: its banded solve (N = 2e6) sets the peak memory
    ops = [
        {"kind": "deficiency", "k": k, "kappa": rng.randrange(k), "M": M}
        for k, M in ((1, 20000), (2, 12500), (3, 5000))
    ]
    for j, M in enumerate((1000, 3162, 10000, 31623, 100000)):
        k = 1 + j
        ops.append({"kind": "classify", "k": k, "kappa": rng.randrange(k), "M": M})
    # b takes fixed slots, since the quadrature's cost depends on b
    for j, up_to in enumerate((10, 15, 20, 24)):
        ops.append(
            {
                "kind": "moments",
                "b": _B_VALUES[j % 2],
                "up_to": up_to,
                "tol": 1e-10,
                "defect": "moments-odd-order-floor" if up_to >= 21 else None,
            }
        )
    for j in range(10):
        ops.append({"kind": "pollaczek", "b": _B_VALUES[j % 2], "m_max": 60, "x": rng.uniform(-3.0, 3.0)})
    # one b only: the tail percentile sits inside this group of four
    for _ in range(4):
        ops.append({"kind": "orthonormality", "b": 0.25, "degree": 8, "tol": 1e-10})
    return ops


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per op


def _c(z: list[float]) -> str:
    """a+bi as the CLI parses it; pass as --flag=VALUE, since a leading
    minus sign would otherwise read as an option."""
    return f"{z[0]!r}{z[1]:+.17g}i"


def _cli_round(rng: random.Random) -> list[dict]:
    ops = []

    def add(argv, expect, defect=None, files=None, out=None):
        ops.append(
            {
                "kind": "cli",
                "argv": [str(a) for a in argv],
                "expect": expect,
                "defect": defect,
                "files": files or {},
                "out": out,
            }
        )

    def ok(schema, fmt):
        return {"exit": [0], "schema": schema, "format": fmt}

    k = rng.randint(1, 4)
    state = [
        "state", "--k", k, "--kappa", rng.randrange(k),
        f"--nu={_c(_complex(rng, 0.1, 2.0))}", f"--lambda={_c(_complex(rng, 0.0, 2.0))}",
        "--tol", "1e-10",
    ]
    classify = ["classify", "--k", rng.randint(1, 5), "--M", int(1e3 * 20 ** rng.random())]
    spectrum = ["spectrum", "--k", rng.randint(1, 3), "--n", rng.randint(5, 60), "--tol", "1e-10"]
    thetas = sorted(round(rng.uniform(-1.0, 1.0), 6) for _ in range(2))
    extensions = [
        "extensions", "--k", 3, "--n", rng.randint(60, 200),
        f"--theta={thetas[0]!r}", f"--theta={thetas[1]!r}", "--tol", "1e-9",
    ]
    verify = [
        "verify-sr", "--k", 2, f"--nu={_c(_complex(rng, 0.1, 2.0))}",
        f"--lambda={_c(_complex(rng, 0.0, 2.0))}", "--tol", "1e-10",
    ]
    moments = ["moments", "--b", rng.choice(_B_VALUES), "--M", rng.randint(6, 20), "--tol", "1e-10"]
    pollaczek = [
        "pollaczek", "--b", rng.choice(_B_VALUES), "--M", rng.randint(10, 40),
        f"--lambda={round(rng.uniform(-3.0, 3.0), 6)!r}",
    ]
    # k = 1 takes the banded-solve route (N = 5e5), which sets peak memory
    deficiency = ["deficiency", "--k", 1, "--M", 5000]
    for argv, schema in [
        (state, "state"),
        (classify, "classify"),
        (spectrum, "spectrum"),
        (extensions, "extensions"),
        (verify, "verify-sr"),
        (moments, "moments"),
        (pollaczek, "pollaczek"),
        (deficiency, "deficiency"),
    ]:
        add(argv, ok(schema, "csv"))
        add(argv + ["--format", "json"], ok(schema, "json"))

    # lossless round trip through an emitted state file
    k2 = rng.randint(2, 3)
    emitted = [
        "state", "--k", k2, "--kappa", rng.randrange(k2),
        f"--nu={_c(_complex(rng, 0.1, 1.0))}", f"--lambda={_c(_complex(rng, 0.0, 2.0))}",
        "--format", "json", "--out", "state.json",
    ]
    add(emitted, ok("state", "json"), out="state.json")
    add(["verify-sr", "state.json", "--format", "json"], ok("verify-sr", "json"))

    # large outputs: a state with cutoff >= 8192 and a 400-point spectrum
    nu_big = rng.uniform(9.0, 10.5)
    add(
        ["state", "--k", 1, f"--nu={nu_big!r}", f"--lambda={_c(_complex(rng, 0.0, 0.4))}",
         "--tol", "1e-12", "--format", "json"],
        dict(ok("state", "json"), min_cutoff=8192),
    )
    add(["spectrum", "--k", rng.randint(1, 3), "--n", 400, "--tol", "1e-10", "--format", "json"],
        ok("spectrum", "json"))

    # contract probes
    usage = [
        ["state", "--k", 0, "--nu", "1", "--lambda", "0"],
        ["spectrum", "--k", 2, "--n", 0],
        ["state", "--k", 2, "--nu", "1", "--lambda", "0", "--tol", "0.5"],
        ["classify", "--k", 3, "--kappa", 7],
    ][rng.randrange(4)]
    add(usage, {"exit": [2], "one_line": True})
    add(["spectrum", "--k", 1, "--n", "abc"], {"exit": [2]})
    add(["state", "--k", 1, "--nu", "1e8", "--lambda", "0"],
        {"exit": [1], "one_line": True, "message": "states.build_state"})
    add(["extensions", "--k", 3, "--n", rng.randint(60, 100), "--theta", "nan"],
        {"exit": [2], "one_line": True}, defect="cli-theta-nan")
    malformed = {
        "config": {"k": 2, "kappa": 0, "nu": {"re": 0.5, "im": 0.0}, "lambda": {"re": 1.0, "im": 0.0}},
        "results": {"coefficients": rng.choice([[], [{"m": 7, "re": 1.0, "im": 0.0}]])},
        "diagnostics": {"tail_estimate": 0.0},
    }
    add(["verify-sr", "bad_state.json"], {"exit": [2], "one_line": True},
        defect="cli-malformed-state-json", files={"bad_state.json": malformed})
    add(["state", "--k", 1, "--nu", "0.5", "--lambda", "0", "--out", "missing_dir/state.csv"],
        {"exit": [1, 2], "one_line": True}, defect="cli-out-missing-dir")
    add(["moments", "--b", _B_VALUES[rng.randrange(2)], "--M", rng.randint(21, 24), "--tol", "1e-10"],
        ok("moments", "csv"), defect="cli-moments-odd-order")
    return ops


_ROUNDS = {
    "states": _states_round,
    "spectra": _spectra_round,
    "certificates": _certificates_round,
    "cli": _cli_round,
}


def _spread(ops: list[dict]) -> list[dict]:
    """The round's ops in an order that puts ops built next to each other
    (a group of similar cost) far apart: position j takes op s*j mod n,
    with s the stride nearest n/phi that is coprime with n.

    The host's speed changes within seconds, so a group run in one stretch
    samples it at one moment; spread over the round it samples all of it.
    """
    n = len(ops)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    stride = min((s for s in range(1, n) if math.gcd(s, n) == 1), key=lambda s: abs(s - n / golden))
    return [ops[stride * j % n] for j in range(n)]


def make_round(workload: str, seed: int, r: int) -> list[dict]:
    """Round r of a workload; a pure function of (workload, seed, r)."""
    ops = _ROUNDS[workload](_rng(workload, seed, r))
    if workload != "cli":  # one fresh process per op: startup dominates
        ops = _spread(ops)
    for i, op in enumerate(ops):
        op.setdefault("defect", None)
        op["round"] = r
        op["id"] = f"{r}.{i}"
    return ops


def spectrum_defect_region(max_abs_eigenvalue: float, tol: float) -> bool:
    """True where an absolute bisection tolerance is below what binary64
    can resolve at the largest eigenvalue (the bisect-absolute-tol defect)."""
    return math.ulp(max_abs_eigenvalue) > tol / 4.0
