"""Check that a checkout computes the same eigenvalue, deficiency,
determinacy, off-diagonal, quadrature and Pollaczek bits as revision REV.

    python tools/compare_bits.py REV

Exports REV's `src/` with `git archive` into a temporary directory.  Then,
in fresh interpreters with each tree's `src/` on PYTHONPATH, it runs six
fixed grids, the CLI commands pinned by
`tests/test_cli.py::TestGoldenBytes` and four CLI commands with large
outputs, under REV and under this checkout.
A spectra grid case compares the `eigenvalues_bisect` eigenvalue bytes and
`max_bracket`, or the error raised, by digest.  The seeds come from the
LAPACK in numpy's bundled OpenBLAS: from `dlasq1`, the singular values of
the bidiagonal half, at theta = 0 (all-zero diagonal), and from `dsterf`
at theta != 0.  The spectra grid runs with `scipy.linalg` loaded first,
and the "spectra scipy-free" grid runs its sizes up to 512 again in an
interpreter that never loads it.  Both take the same route here; they
stay because older revisions chose the seed by what the process had
loaded, so a comparison against one exercises each of its routes: with
`scipy.linalg` loaded, `dlasq1` through scipy's `cython_lapack` at
theta = 0 and scipy's `dsterf` otherwise (every seed from `dsterf` before
the bidiagonal seed); without it, numpy's dense `eigvalsh` up to 512
rows.  A deficiency grid case
compares the repr of every `DeficiencyEvidence` field, or the error
raised; M reaches the CLI's cap, 2e6.  M = 20000 is the largest M whose
minimal solution could be built (its system has N = 2e6 rows); a
revision that builds it for k <= 2 differs from one that decides those
sectors by Weyl's alternative in minimal_exponent and
contamination_bound only.  The M = 20001 cases and (k, kappa, M) =
(1, 0, 600000), (1, 0, 2000000), (2, 0, 2000000) and (2, 1, 2000000)
check the evidence of the fundamental pair alone, just past the
contamination bound, far past it and at the cap; (100, 0, 5000) and
(100, 99, 5000) check it where b_m nears the top of binary64.  A classify grid case compares the repr of
every `DeterminacyVerdict` field, or the error raised, for k = 1..6 and
M up to 1e5, and at (k, kappa, M) = (5, 0, 2000000), the CLI's cap.  A b_m grid case compares the `OffDiagonalSequence.build`
value bytes, or the error raised, by digest, for k up to 250 and lengths
up to 2e6: it reaches float products that overflow into the log sum
(k >= 40) and b_m that overflow binary64 (k >= 80).  A quadrature grid
case compares, by digest, the value and error bytes of `moments(b, 24,
1e-10)` at b = 0.25, 0.75 and 1.5, or of the order-8 orthonormality table
of `integrate_weighted` over P_i P_j at b = 0.25; or the bytes of
`pollaczek(m, x, b)` for m = 0..60, and of `pollaczek_table(60, x, b)`,
at seven x and four b (or the error raised).  A differing
deficiency or classify case prints each field
that moved with both reprs (and the relative change of a float).  The
commands are those of TestGoldenBytes, and four with large outputs (the
Pollaczek column at the `--M` cap, a state at cutoff 16384, three
extension spectra at n = 2000 and a one-row spectrum), which run in both
formats, to stdout and again with `--out`.  A command compares stdout,
stderr, the exit code and the bytes of the `--out` file.  Prints each
difference and a summary, and exits 1 if any byte differs.  Sturm pass counts are not compared: a change may take fewer
passes to the same bits.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KS = (1, 2, 3, 4, 6, 10, 20, 40)  # kappa in {0, k - 1}
SIZES = (1, 2, 3, 5, 8, 12, 25, 41, 44, 60, 100, 150, 200, 300, 401, 888, 1315)
THETAS = (0.0, -0.7, 0.5)
TOLS = (1e-9, 1e-10, 1e-12)

# the sizes that revisions before the bundled LAPACK binding seeded with
# numpy's dense eigvalsh while scipy.linalg was not loaded
DENSE_SEED_ROWS = 512


def grid_worker(preload: str, sizes: tuple) -> str:
    """Code for a fresh interpreter that runs `preload` first: one line per
    grid case, the case and a digest of its eigenvalue bytes and
    max_bracket (or of the error it raised)."""
    return f"""
import hashlib, struct
{preload}
from powersqueeze import SectorParams, TridiagonalMatrix, eigenvalues_bisect
for k in {KS!r}:
    for kappa in sorted({{0, k - 1}}):
        for n in {sizes!r}:
            for theta in {THETAS!r}:
                T = TridiagonalMatrix.truncation(SectorParams(k, kappa), n, theta=theta)
                for tol in {TOLS!r}:
                    try:
                        r = eigenvalues_bisect(T, tol)
                        data = r.eigenvalues.tobytes() + struct.pack("<d", r.max_bracket)
                    except Exception as exc:
                        data = repr(exc).encode()
                    digest = hashlib.sha256(data).hexdigest()
                    print(k, kappa, n, theta, tol, digest)
"""


# every size with scipy.linalg loaded, and the sizes up to DENSE_SEED_ROWS
# again in a process that never loads it: one route here, each of an older
# revision's routes there (see the module docstring)
SPECTRA_WORKER = grid_worker("import scipy.linalg", SIZES)
SCIPY_FREE_WORKER = grid_worker("", tuple(n for n in SIZES if n <= DENSE_SEED_ROWS))


def sector_grid(ks: tuple, ms: tuple) -> list[tuple[int, int, int]]:
    """The cases (k, kappa, M) for k in ks, kappa in {0, k - 1}, M in ms."""
    return [(k, kappa, M) for k in ks for kappa in sorted({0, k - 1}) for M in ms]


def fields_worker(imports: str, call: str, cases: list) -> str:
    """Code for a fresh interpreter: one line per case (k, kappa, M), with
    a JSON object of the repr of every field of the dataclass that `call`
    returns (or of the error raised, under "error")."""
    return f"""
import dataclasses, json
{imports}
for k, kappa, M in {cases!r}:
    try:
        r = {call}
        fields = {{f.name: repr(getattr(r, f.name)) for f in dataclasses.fields(r)}}
    except Exception as exc:
        fields = {{"error": repr(exc)}}
    print(k, kappa, M, json.dumps(fields))
"""


def moved_fields(old: str, new: str) -> list[str]:
    """The fields in which two fields-worker lines differ, with both reprs
    and, where both parse as floats, the relative change."""
    old_fields, new_fields = (json.loads(line.split(" ", 3)[3]) for line in (old, new))
    moved = []
    for name in dict.fromkeys([*old_fields, *new_fields]):
        o, c = old_fields.get(name), new_fields.get(name)
        if o == c:
            continue
        try:
            rel = f" (relative {abs(float(c) - float(o)) / abs(float(o)):.1e})"
        except (TypeError, ValueError, ZeroDivisionError):
            rel = ""
        moved.append(f"    {name}: {o} -> {c}{rel}")
    return moved


# past M = 20000 no minimal solution is built: the M = 20001 cases,
# (1, 0, 600000) and the three cases at the CLI's cap M = 2e6 check the
# fundamental pair's evidence there; at k = 100, b_m reaches 1e285 by
# M = 5000
DEFICIENCY_WORKER = fields_worker(
    "from powersqueeze import SectorParams, deficiency_evidence",
    "deficiency_evidence(SectorParams(k, kappa), M)",
    sector_grid((1, 2, 3, 4), (5000, 12500, 20000, 20001))
    + [(1, 0, 600_000), (1, 0, 2_000_000), (2, 0, 2_000_000), (2, 1, 2_000_000)]
    + [(100, 0, 5000), (100, 99, 5000)],
)
# (5, 0, 2000000): the CLI's cap, where b is filled a chunk at a time
CLASSIFY_WORKER = fields_worker(
    "from powersqueeze import classify_determinacy",
    "classify_determinacy(k, kappa, M)",
    sector_grid((1, 2, 3, 4, 5, 6), (1000, 10_000, 100_000)) + [(5, 0, 2_000_000)],
)

B_KS = (1, 2, 3, 4, 5, 6, 7, 10, 20, 40, 80, 100, 250)  # kappa in {0, k // 2, k - 1}
B_LENGTHS = (1, 2, 7, 255, 256, 257, 4097, 100_000, 1_250_000, 2_000_000)
# one line per b_m grid case, the case and a digest of its value bytes (or
# of the error it raised)
B_WORKER = f"""
import hashlib
from powersqueeze import OffDiagonalSequence, SectorParams
for k in {B_KS!r}:
    for kappa in sorted({{0, k // 2, k - 1}}):
        for length in {B_LENGTHS!r}:
            try:
                data = OffDiagonalSequence.build(SectorParams(k, kappa), length).values.tobytes()
            except Exception as exc:
                data = repr(exc).encode()
            print(k, kappa, length, hashlib.sha256(data).hexdigest())
"""

QUAD_BS = (0.25, 0.75, 1.5)
POLY_XS = (-3.7, -0.5, 0.0, 0.3, 1.0, 2.5, 12.0)
POLY_BS = (1e-3, 0.25, 0.75, 1.5)
# one line per quadrature or Pollaczek case, the case and a digest of its
# value bytes (or of the error it raised): moments(b, 24, 1e-10) values and
# errors, the order-8 orthonormality table at b = 0.25 (values and errors of
# integrate_weighted over P_i P_j, i <= j <= 8, tol 1e-9), pollaczek(m, x, b)
# for m = 0..60, and pollaczek_table(60, x, b) over every x at once
QUADRATURE_WORKER = f"""
import hashlib, struct
import numpy as np
from powersqueeze import integrate_weighted, moments, pollaczek, pollaczek_table

def case(name, compute):
    try:
        data = compute()
    except Exception as exc:
        data = repr(exc).encode()
    print(name, hashlib.sha256(data).hexdigest())

def orthonormality(b, order):
    out = []
    for i in range(order + 1):
        for j in range(i, order + 1):
            def f(x, i=i, j=j):
                rows = pollaczek_table(j, x, b)
                return rows[i] * rows[j]
            out += integrate_weighted(f, b, 1e-9, degree=i + j)
    return struct.pack(f"<{{len(out)}}d", *out)

for b in {QUAD_BS!r}:
    case(f"moments b={{b}}", lambda: (lambda s: s.values.tobytes() + s.quad_error.tobytes())(moments(b, 24, 1e-10)))
case("orthonormality b=0.25 order=8", lambda: orthonormality(0.25, 8))
for b in {POLY_BS!r}:
    for x in {POLY_XS!r}:
        case(f"pollaczek x={{x}} b={{b}}", lambda: struct.pack("<61d", *(pollaczek(m, x, b) for m in range(61))))
    case(f"pollaczek_table b={{b}}", lambda: pollaczek_table(60, np.array({POLY_XS!r}), b).tobytes())
"""

WORKERS = {
    "spectra": SPECTRA_WORKER,
    "spectra scipy-free": SCIPY_FREE_WORKER,
    "deficiency": DEFICIENCY_WORKER,
    "classify": CLASSIFY_WORKER,
    "b_m": B_WORKER,
    "quadrature": QUADRATURE_WORKER,
}


def golden_commands() -> list[list[str]]:
    """The argv lists of TestGoldenBytes, read from the test file, each
    crossed with its --format values."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    cls = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "TestGoldenBytes")
    test = next(f for f in cls.body if isinstance(f, ast.FunctionDef))
    params = {}
    for deco in test.decorator_list:
        names, values = (ast.literal_eval(arg) for arg in deco.args)
        params[names] = values
    return [
        [*argv, "--format", fmt]
        for _, argv in params["name, argv"]
        for fmt in params["fmt"]
    ]


# large outputs, which the CLI writes as it formats them: the Pollaczek
# column at the --M cap, a state at cutoff 16384, three full extension
# spectra, and one eigenvalue; each runs in both formats, to stdout and
# with --out
LARGE_COMMANDS = [
    ["pollaczek", "--b", "0.25", "--M", "100000", "--lambda", "0.3"],
    ["state", "--k", "1", "--nu", "10", "--lambda", "1i", "--tol", "1e-12"],
    ["extensions", "--k", "2", "--n", "2000", "--theta", "0", "--theta", "0.5", "--theta", "-0.5"],
    ["spectrum", "--k", "1", "--n", "1"],
]


def large_commands(out: Path) -> list[list[str]]:
    """LARGE_COMMANDS crossed with each --format, each to stdout and to
    `out`."""
    return [
        [*argv, "--format", fmt, *target]
        for argv in LARGE_COMMANDS
        for fmt in ("csv", "json")
        for target in ([], ["--out", str(out)])
    ]


def run_command(command: list[str], src: Path, out: Path) -> tuple:
    """stdout, stderr and exit code of one CLI run under `src`, and the
    bytes of `out` if the run wrote it."""
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "powersqueeze.cli", *command], env=env_for(src), capture_output=True
    )
    written = out.read_bytes() if out.exists() else None
    return proc.stdout, proc.stderr, proc.returncode, written


def env_for(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/compare_bits.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
        if archive.returncode != 0:
            print(f"git archive {rev} failed: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
        trees = {"rev": tmp / "src", "checkout": ROOT / "src"}

        # every grid at once, one interpreter per grid and tree, each writing
        # to a file
        procs = {}
        for grid, worker in WORKERS.items():
            for name, src in trees.items():
                with open(tmp / f"{grid}.{name}", "w") as out:
                    procs[grid, name] = subprocess.Popen(
                        [sys.executable, "-c", worker], env=env_for(src), stdout=out,
                        stderr=subprocess.PIPE, text=True,
                    )
        for (grid, name), proc in procs.items():
            err = proc.communicate()[1]
            if proc.returncode != 0:
                print(f"{grid} grid worker for {name} failed:\n{err}", file=sys.stderr)
                return 2
        summary = []
        differing = 0
        for grid in WORKERS:
            old, new = ((tmp / f"{grid}.{name}").read_text().splitlines() for name in trees)
            diffs = [(o, c) for o, c in zip(old, new) if o != c]
            for o, c in diffs:
                if grid in ("deficiency", "classify"):
                    print(f"{grid} case {' '.join(o.split(' ', 3)[:3])} differs from {rev}:")
                    print("\n".join(moved_fields(o, c)))
                else:
                    print(f"{grid} grid differs:\n  {rev}: {o}\n  checkout: {c}")
            if len(old) != len(new):
                diffs.append((f"{len(old)} cases", f"{len(new)} cases"))
                print(f"{grid} grid: {len(old)} cases under {rev}, {len(new)} in the checkout")
            summary.append(f"{len(diffs)} of {len(old)} {grid} grid cases")
            differing += len(diffs)

        out = tmp / "out"
        commands = golden_commands() + large_commands(out)
        command_diffs = 0
        for command in commands:
            o, c = (run_command(command, src, out) for src in trees.values())
            if o != c:
                command_diffs += 1
                print(f"command differs: {' '.join(command)}")

    print(
        f"{', '.join(summary)} and {command_diffs} of {len(commands)} commands "
        f"differ from {rev}"
    )
    return 1 if differing or command_diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
