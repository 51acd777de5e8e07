"""Command-line interface: schemas, determinism, round-trips, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersqueeze import (
    SectorParams,
    SqueezeParams,
    build_state,
    sr_report,
)
from powersqueeze import states
from powersqueeze.cli import main


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "powersqueeze.cli", *argv],
        capture_output=True,
        text=True,
    )


def parse_csv(text: str):
    lines = text.strip().split("\n")
    assert lines[0].startswith("#schema=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestStateCommand:
    def test_csv_schema_and_parity(self, tmp_path):
        out = tmp_path / "state.csv"
        code = main(
            [
                "state",
                "--k",
                "2",
                "--kappa",
                "0",
                "--nu",
                "0.5",
                "--lambda",
                "0",
                "--tol",
                "1e-10",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        schema, header, rows = parse_csv(out.read_text())
        assert schema == "#schema=state/1"
        assert header == ["m", "re_c", "im_c"]
        for cells in rows:
            m = int(cells[0])
            c = complex(float(cells[1]), float(cells[2]))
            if m % 2 == 1:
                assert abs(c) <= 1e-10

    def test_json_includes_residual(self, tmp_path):
        out = tmp_path / "state.json"
        code = main(
            ["state", "--k", "1", "--nu", "0.3", "--lambda", "1+1i",
             "--tol", "1e-10", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "state"
        assert doc["diagnostics"]["residual"] <= 1e-9
        assert abs(doc["diagnostics"]["tail_estimate"]) < 1e-10


class TestSpectrumCommand:
    def test_k1_n5_matches_hermite_roots(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = main(
            ["spectrum", "--k", "1", "--n", "5", "--tol", "1e-10", "--out", str(out)]
        )
        assert code == 0
        _, header, rows = parse_csv(out.read_text())
        assert header == ["rank", "eigenvalue"]
        got = np.array([float(r[1]) for r in rows])
        # sqrt(2) * H_5 roots: 0, +-sqrt(5 -+ sqrt(10))
        pos1 = math.sqrt(5.0 - math.sqrt(10.0))
        pos2 = math.sqrt(5.0 + math.sqrt(10.0))
        expected = np.sort([0.0, pos1, -pos1, pos2, -pos2])
        assert np.allclose(got, expected, atol=1e-9)

    def test_ell_conversion_for_k2(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = main(
            ["spectrum", "--k", "2", "--n", "8", "--tol", "1e-10", "--ell",
             "--out", str(out)]
        )
        assert code == 0
        schema, header, rows = parse_csv(out.read_text())
        assert schema == "#schema=spectrum-ell/1"
        assert header == ["rank", "eigenvalue", "ell"]
        for cells in rows:
            assert float(cells[2]) == pytest.approx(float(cells[1]) / 4.0, rel=1e-15)

    def test_ell_requires_k2(self):
        code = main(["spectrum", "--k", "1", "--n", "5", "--ell"])
        assert code == 2

    def test_tol_below_float_spacing_succeeds(self, capsys):
        # |lambda| reaches 5.6e81 at k = 40: brackets stop at adjacent doubles
        code = main(["spectrum", "--k", "40", "--n", "300", "--tol", "1e-10"])
        assert code == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 300


class TestStateNuZero:
    def test_power_coherent_route(self, capsys):
        # nu = 0: build_state gives the eigenstate of a^k (power-coherent)
        code = main(["state", "--k", "1", "--nu", "0", "--lambda", "1.3",
                     "--tol", "1e-10", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        coeffs = doc["results"]["coefficients"]
        r1 = coeffs[1]["re"] / coeffs[0]["re"]
        assert r1 == pytest.approx(1.3, rel=1e-12)
        assert doc["diagnostics"]["residual"] <= 1e-9

    def test_vacuum_state(self, capsys):
        code = main(["state", "--k", "2", "--nu", "0", "--lambda", "0",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["cutoff"] == 0
        assert doc["diagnostics"]["residual"] == 0.0


class TestExtensionsCommand:
    def test_sweep_rows_and_cross_gap(self, tmp_path):
        out = tmp_path / "ext.csv"
        code = main(["extensions", "--k", "3", "--kappa", "0", "--n", "60",
                     "--theta", "0.5", "--theta", "0", "--tol", "1e-9",
                     "--out", str(out)])
        assert code == 0
        schema, header, rows = parse_csv(out.read_text())
        assert schema == "#schema=extensions/1"
        assert header == ["theta", "rank", "eigenvalue"]
        row_thetas = [float(r[0]) for r in rows]
        assert row_thetas == sorted(row_thetas)  # theta-sorted regardless of flag order
        assert set(row_thetas) == {0.0, 0.5}
        assert len(rows) == 120

    def test_json_diagnostics(self, capsys):
        code = main(["extensions", "--k", "3", "--n", "60", "--theta", "0",
                     "--theta", "0.5", "--tol", "1e-9", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["cross_theta_min_gap_central5"] > 0


class TestClassifyCommand:
    def test_limit_circle_json(self, capsys):
        code = main(["classify", "--k", "3", "--M", "10000", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["verdict"] == "limit_circle"
        assert doc["results"]["tail_upper_bound"] is not None
        assert doc["results"]["log_concave_from"] == 1

    def test_determined_csv_has_inf_tail(self, capsys):
        code = main(["classify", "--k", "2", "--M", "1000"])
        assert code == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        verdict = rows[0][header.index("verdict")]
        assert verdict == "determined"
        assert rows[0][header.index("tail_upper_bound")] == "inf"


class TestPollaczekCommand:
    def test_values_match_library(self, capsys):
        from powersqueeze import pollaczek

        code = main(
            ["pollaczek", "--b", "0.25", "--M", "6", "--lambda", "0.5"]
        )
        assert code == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        for cells in rows:
            m = int(cells[0])
            assert float(cells[1]) == pytest.approx(pollaczek(m, 0.5, 0.25), rel=1e-15, abs=1e-15)

    def test_complex_point_rejected(self):
        assert main(["pollaczek", "--b", "0.25", "--M", "3", "--lambda", "1+1i"]) == 2


class TestMomentsCommand:
    def test_moment_rows(self, capsys):
        code = main(["moments", "--b", "0.25", "--M", "4", "--tol", "1e-8"])
        assert code == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["m", "value", "quad_error"]
        values = {int(r[0]): float(r[1]) for r in rows}
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        assert values[2] == pytest.approx(0.125, abs=1e-7)


class TestVerifySR:
    def test_round_trip_through_json(self, tmp_path):
        state_path = tmp_path / "state.json"
        argv = ["state", "--k", "2", "--kappa", "0", "--nu", "0.5i",
                "--lambda", "1+1i", "--tol", "1e-10", "--format", "json",
                "--out", str(state_path)]
        assert main(argv) == 0
        verify_path = tmp_path / "verify.json"
        assert main(["verify-sr", str(state_path), "--format", "json",
                     "--out", str(verify_path)]) == 0
        doc = json.loads(verify_path.read_text())

        params = SqueezeParams(SectorParams(2, 0), 0.5j, 1 + 1j)
        vec = build_state(params, 1e-10)
        in_process = sr_report(vec, 2)
        assert doc["results"]["gap"] == pytest.approx(in_process.gap, abs=1e-12)
        assert doc["results"]["rhs"] == pytest.approx(in_process.rhs, rel=1e-12)

    def test_in_process_mode(self, capsys):
        code = main(["verify-sr", "--k", "1", "--nu", "0.3", "--lambda", "1+1i",
                     "--tol", "1e-10", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["results"]["gap"]) / doc["results"]["rhs"] <= 1e-6

    def test_requires_input(self):
        assert main(["verify-sr"]) == 2


class TestDeficiencyCommand:
    def test_k3_counts_two(self, capsys):
        code = main(["deficiency", "--k", "3", "--M", "5000", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["count_square_summable"] == 2
        assert doc["results"]["conclusive"] is True

    @pytest.mark.parametrize("k, bound", [(1, 0.1), (3, None)])
    def test_json_diagnostics_carry_the_contamination_bound(self, capsys, monkeypatch, k, bound):
        # with the not-square-summable verdict switched off, k = 1's
        # fundamental solutions are undecided and the minimal solution is
        # built within its bound; null where no minimal solution is needed
        monkeypatch.setattr(states, "_NOT_SUMMABLE_EXPONENT", math.inf)
        assert main(["deficiency", "--k", str(k), "--M", "5000", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == {"contamination_bound": bound}
        assert (doc["results"]["minimal_exponent"] is None) == (bound is None)

    @pytest.mark.parametrize("M", [20_001, 600_000, 2_000_000])
    @pytest.mark.parametrize("k, kappa", [(1, 0), (2, 1)])
    def test_weyl_alternative_decides_k_up_to_2(self, capsys, k, kappa, M):
        # one fundamental solution not square-summable: count 1, conclusive
        # past the contamination bound up to the cap (M = 5000 is pinned by
        # the deficiency goldens), with no minimal solution and no bound
        argv = ["deficiency", "--k", str(k), "--kappa", str(kappa), "--M", str(M), "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["count_square_summable"] == 1
        assert doc["results"]["conclusive"] is True
        assert doc["results"]["minimal_exponent"] is None
        assert doc["diagnostics"] == {"contamination_bound": None}

    def test_csv_row(self, capsys):
        code = main(["deficiency", "--k", "2", "--M", "5000"])
        assert code == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header[0] == "count_square_summable"
        assert rows[0][0] == "1"
        assert rows[0][header.index("conclusive")] == "true"


class TestValidationAndErrors:
    def test_bad_kappa(self):
        assert main(["spectrum", "--k", "2", "--kappa", "5", "--n", "10"]) == 2

    def test_bad_tol(self):
        assert main(["spectrum", "--k", "1", "--n", "5", "--tol", "1e-3"]) == 2

    def test_bad_complex(self):
        assert main(["state", "--k", "1", "--nu", "abc", "--lambda", "0"]) == 2

    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_numerical_failure_exits_1(self):
        # |nu/mu| -> 1 so the tail never reaches tolerance before the cap
        result = run_cli(
            "state", "--k", "1", "--nu", "1e8", "--lambda", "0", "--tol", "1e-10"
        )
        assert result.returncode == 1
        assert "states.build_state" in result.stderr

    def test_growing_state_fails_fast(self, capsys):
        # |lambda|/mu is far above 3 b_cap: the terms grow to the cutoff cap
        start = time.perf_counter()
        assert main(["state", "--k", "1", "--nu", "0.5", "--lambda", "1e300"]) == 1
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "states.build_state" in err

    @pytest.mark.parametrize("flag", ["--nu", "--lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_state_parameters(self, capsys, flag, value):
        argv = ["state", "--k", "1", "--nu", "0.5", "--lambda", "1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "must be finite" in err

    @pytest.mark.parametrize("command", ["moments", "pollaczek"])
    @pytest.mark.parametrize("b", ["nan", "inf", "-inf"])
    def test_non_finite_b(self, capsys, command, b):
        argv = [command, f"--b={b}", "--M", "3"]
        if command == "pollaczek":
            argv += ["--lambda", "0.5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--b" in err

    @pytest.mark.parametrize("b", ["1e-300", "1e-17"])
    def test_pollaczek_at_tiny_b(self, capsys, b):
        assert main(["pollaczek", "--b", b, "--lambda", "0.5", "--M", "1"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "1,%.17g" % (0.5 / (math.sqrt(2.0 * float(b)) / 2.0))

    def test_pollaczek_series_overflow_names_source(self, capsys):
        assert main(["pollaczek", "--b", "0.25", "--M", "30", "--lambda", "1e300"]) == 1
        assert capsys.readouterr().err == (
            "error: polynomials.pollaczek: the exact series overflows binary64 "
            "at m=2, x=1e+300, b=0.25\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--k", "2", "--M", "1000", "--tol", "1e-10"],
            ["moments", "--b", "0.25", "--M", "2", "--k", "0", "--kappa", "-4"],
            ["pollaczek", "--b", "0.25", "--M", "2", "--lambda", "0.5", "--k", "7",
             "--kappa", "9", "--tol", "3", "--nu", "abc"],
            ["deficiency", "--k", "3", "--M", "5000", "--tol", "1e-10"],
        ],
        ids=["classify", "moments", "pollaczek", "deficiency"],
    )
    def test_flags_the_command_does_not_read(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid flags: unrecognized arguments: --")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [["--b", "1e-16", "--M", "2"], ["--b", "1e-7", "--tol", "1e-4", "--M", "2"]]
    )
    def test_moments_refuses_b_below_the_floor(self, argv):
        # both printed s_0 ~ 3e-14 or 3e-5 with an error bar that missed 1
        result = run_cli("moments", *argv)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: moments.integrate_weighted: b must be >= 0.0001, got ")
        assert len(result.stderr.splitlines()) == 1

    def test_moments_weight_overflow_names_source(self):
        # Gamma(2b) overflows binary64 for b above about 85.8
        result = run_cli("moments", "--b", "100", "--M", "4")
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        assert "polynomials.weight_tail_coefficient" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta(self, theta):
        result = run_cli("extensions", "--k", "3", "--n", "60", "--theta", theta)
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert "--theta" in result.stderr

    @pytest.mark.parametrize(
        "coefficients",
        [[], [{"m": 7, "re": 1.0, "im": 0.0}], [{"m": -1, "re": 1.0, "im": 0.0}]],
    )
    def test_malformed_state_json(self, tmp_path, coefficients):
        path = tmp_path / "bad_state.json"
        document = {
            "config": {
                "k": 2,
                "kappa": 0,
                "nu": {"re": 0.5, "im": 0.0},
                "lambda": {"re": 1.0, "im": 0.0},
            },
            "results": {"coefficients": coefficients},
            "diagnostics": {"tail_estimate": 0.0},
        }
        path.write_text(json.dumps(document))
        result = run_cli("verify-sr", str(path))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "k, kappa, reason",
        [
            (0, 0, "jacobi.SectorParams: k must be >= 1, got 0"),
            (2, 2, "jacobi.SectorParams: kappa must lie in [0, 1], got 2"),
        ],
        ids=["k", "kappa"],
    )
    def test_state_json_with_invalid_sector(self, tmp_path, k, kappa, reason):
        # the library's message, module and operation included, is the reason
        path = tmp_path / "bad_sector.json"
        document = {
            "config": {
                "k": k,
                "kappa": kappa,
                "nu": {"re": 0.5, "im": 0.0},
                "lambda": {"re": 1.0, "im": 0.0},
            },
            "results": {"coefficients": [{"m": 0, "re": 1.0, "im": 0.0}]},
            "diagnostics": {"tail_estimate": 0.0},
        }
        path.write_text(json.dumps(document))
        result = run_cli("verify-sr", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"invalid flags: cannot read state JSON {str(path)!r}: {reason}\n"

    def test_state_json_with_overflowing_mu(self, tmp_path):
        # mu = sqrt(1 + |nu|^2) overflows binary64 above |nu| ~ 1.3e154
        path = tmp_path / "state.json"
        assert main(["state", "--k", "2", "--nu", "0.5i", "--lambda", "1+1i",
                     "--format", "json", "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        document["config"]["nu"] = {"re": 1e200, "im": 0.0}
        path.write_text(json.dumps(document))
        result = run_cli("verify-sr", str(path))
        assert result.returncode == 1
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: states.")

    def test_off_diagonal_overflow_names_source(self):
        # b_m for k = 250 exceeds binary64 below m = 400
        result = run_cli("spectrum", "--k", "250", "--n", "400", "--tol", "1e-9")
        assert result.returncode == 1
        assert result.stderr.startswith("error: jacobi.OffDiagonalSequence.build: ")
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Warning" not in result.stderr

    def test_theta_count_is_capped(self, capsys):
        # each --theta costs one full spectrum: eight are accepted, nine refused
        thetas = [f"--theta={t / 8}" for t in range(9)]
        assert main(["extensions", "--k", "3", "--n", "60", *thetas[:8]]) == 0
        capsys.readouterr()
        assert main(["extensions", "--k", "3", "--n", "60", *thetas]) == 2
        err = capsys.readouterr().err
        assert err == "invalid flags: --theta may be given at most 8 times, got 9\n"

    @pytest.mark.parametrize(
        "argv", [["spectrum", "--k", "4", "--n", "50"], ["extensions", "--k", "3", "--n", "60"]]
    )
    def test_tol_whose_step_count_overflows(self, argv):
        # the bisection step count reads width / tol, which overflows at 5e-324
        result = run_cli(*argv, "--tol", "5e-324")
        assert result.returncode == 1
        assert result.stderr.startswith(
            "error: spectra.eigenvalues_bisect: tol 5e-324 is too small for the Gershgorin width "
        )
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("k, n", [(80, 300), (200, 3)])
    def test_overflowing_off_diagonal_square(self, k, n):
        # b_m^2 overflowed in the Sturm recurrence: k = 80, n = 300 put the
        # middle eigenvalue at 2.5e175 and k = 200, n = 3 printed
        # [-9.03e246, 9.03e246, 9.03e246], both with a RuntimeWarning and exit 0
        result = run_cli("spectrum", "--k", str(k), "--kappa", "0", "--n", str(n))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: spectra.eigenvalues_bisect: off-diagonal entry ")
        assert len(result.stderr.splitlines()) == 1
        assert "RuntimeWarning" not in result.stderr

    def test_overflowing_boundary_entry(self):
        # theta * b_{n-1} overflows: refused as a non-finite diagonal
        result = run_cli("extensions", "--k", "3", "--n", "60", "--theta", "1e308", "--theta", "0")
        assert result.returncode == 1
        assert result.stderr == "error: spectra.TridiagonalMatrix: non-finite diagonal entry\n"

    def test_out_into_missing_directory(self, tmp_path):
        out = tmp_path / "missing_dir" / "state.csv"
        result = run_cli("state", "--k", "1", "--nu", "0.5", "--lambda", "0", "--out", str(out))
        assert result.returncode == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert str(out) in result.stderr

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["spectrum", "--k", "1", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "),
            (["spectrum", "--k", "1", "--n", "5", "--frob"], "unrecognized arguments: --frob"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-int", "unknown-command", "unknown-flag", "no-command"],
    )
    def test_parser_errors_are_one_line(self, capsys, argv, reason):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"invalid flags: {reason}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--k", "3", "--M", "2000001"],
            ["deficiency", "--k", "3", "--M", "2000001"],
            ["pollaczek", "--b", "0.25", "--M", "100001", "--lambda", "0.5"],
            ["spectrum", "--k", "1", "--n", "12801"],
            ["extensions", "--k", "3", "--n", "12801"],
        ],
        ids=["classify", "deficiency", "pollaczek", "spectrum", "extensions"],
    )
    def test_size_flags_past_their_cap(self, capsys, argv):
        # one past the cap: refused before anything is allocated
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"invalid flags: --[Mn] .*must be in \[\d+, \d+\].*\n", captured.err)

    def test_pollaczek_at_its_cap(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["pollaczek", "--b", "0.25", "--M", "100000", "--lambda", "0.5",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 100_003

    def test_help_exits_0(self, capsys):
        assert main(["spectrum", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: powersqueeze spectrum")


def pollaczek_json(M: int) -> list[str]:
    return ["pollaczek", "--b", "0.25", "--M", str(M), "--lambda", "0.3", "--format", "json"]


def peak_rss_mb(*argv: str) -> float:
    """Peak RSS of one CLI process, spawned from a fresh helper interpreter:
    a child's ru_maxrss counts from its parent's RSS at the spawn, which
    for pytest is tens of MB."""
    helper = (
        "import os, subprocess, sys\n"
        "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(p.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", helper, sys.executable, "-m", "powersqueeze.cli", *argv],
        capture_output=True, text=True,
    )
    code, kb = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return kb / 1024.0


class TestStreamedOutput:
    """Output is written as it is formatted, and only after every number of
    it is computed."""

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_one_line(self, tmp_path, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        err_path = tmp_path / "stderr"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "powersqueeze.cli", *pollaczek_json(100_000)],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            head = proc.stdout.read(10)
            proc.stdout.close()  # the reader goes away, as `| head -c 10` does
            code = proc.wait(timeout=120)
        assert head == b'{\n  "confi'
        assert code == 1
        assert err_path.read_text() == "error: cli._emit: cannot write to stdout: Broken pipe\n"

    def test_failing_cross_check_writes_nothing(self):
        # the cross-check fails at m = 2, and degree 31 is past the checked ones
        result = run_cli("pollaczek", "--b", "0.25", "--M", "31", "--lambda", "1e300")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: polynomials.pollaczek: ")

    def test_failing_state_creates_no_out_file(self, tmp_path):
        out = tmp_path / "s.csv"
        result = run_cli("state", "--k", "1", "--nu", "1e8", "--lambda", "0", "--out", str(out))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: states.build_state: ")
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_memory_does_not_grow_with_the_output(self):
        # 100001 rows, 7.6 MB of JSON; the whole document as Python objects
        # took 62 MB more than --M 10
        small, large = peak_rss_mb(*pollaczek_json(10)), peak_rss_mb(*pollaczek_json(100_000))
        assert large - small <= 8.0, (small, large)


# Flag values for TestContractProperty, as (common, edge) lists.  A flag
# draws from its edge values (past a validator's bound, non-finite, or
# overflowing a computation) only now and then, so that about half of the
# flag sets are valid, and each edge value still meets valid values of the
# other flags.
_VALUES = {
    "--k": ([1, 2, 3, 4, 5], [0]),
    # 1e-300 and 1e-17: 1 + 2b rounds to 1; 100 overflows Gamma(2b), exit 1
    "--b": (["0.25", "0.75", "1e-300", "1e-17"], ["-1", "inf", "nan", "100"]),
    "--tol": (["1e-10", "1e-8"], ["0", "1e-3", "nan"]),
    # exit 1: mu overflows at nu = 1e200, lambda = 1e300 reaches the cutoff
    # cap, and theta = 1e308 overflows the boundary entry
    "--nu": (["0", "0.5", "1+1i", "-0.3i"], ["abc", "inf", "1e400", "1e200"]),
    "--lambda": (["0", "1.3", "-2", "0.5", "1+1i"], ["abc", "inf", "nan", "1e300"]),
    "--theta": (["0", "0.5", "-1"], ["nan", "inf", "abc", "1e308"]),
    "--format": (["csv", "json"], ["xml"]),
}
# --n and --M per command: the common values include each validator's
# floor (and the moments cap); the edges are one past the floor and the
# cap (the other caps themselves would run too long), and for --n also the
# 2e6 rows that --M stops at
_SIZE_VALUES = {
    ("spectrum", "--n"): ([1, 5, 80], [0, -1, 12_801, 2_000_001]),
    ("extensions", "--n"): ([50, 60], [49, 12_801, 2_000_001]),
    ("classify", "--M"): ([1000, 5000], [999, 2_000_001]),
    ("moments", "--M"): ([0, 4, 24], [-1, 25]),
    ("pollaczek", "--M"): ([0, 1, 2, 30], [-1, 100_001]),
    ("deficiency", "--M"): ([5000], [4999, 2_000_001]),
}
# the sector and tolerance flags each command reads; these and --format
# are drawn half the time
_SECTOR_TOL = {
    "state": ["--k", "--kappa", "--tol"],
    "spectrum": ["--k", "--kappa", "--tol"],
    "extensions": ["--k", "--kappa", "--tol"],
    "classify": ["--k", "--kappa"],
    "moments": ["--tol"],
    "pollaczek": [],
    "verify-sr": ["--k", "--kappa", "--tol"],
    "deficiency": ["--k", "--kappa"],
}
# the other flags each command reads; these are left out only now and then
_EXTRA = {
    "state": ["--nu", "--lambda"],
    "spectrum": ["--n"],
    "extensions": ["--n", "--theta", "--theta"],
    "classify": ["--M"],
    "moments": ["--b", "--M"],
    "pollaczek": ["--b", "--M", "--lambda"],
    "verify-sr": ["--nu", "--lambda"],
    "deficiency": ["--M"],
}
_RARELY = st.sampled_from([False] * 7 + [True])


def _flag_value(draw, common: list, edge: list):
    """A common value seven times in eight, else an edge value; the draw
    picks the common value itself, so that few flag sets repeat."""
    i = draw(st.integers(0, 7))
    return common[i % len(common)] if i < 7 else draw(st.sampled_from(edge))


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_EXTRA)))
    argv = [command]
    k = 1
    for flag in [*_SECTOR_TOL[command], "--format"]:
        if not draw(st.booleans()):
            continue
        if flag == "--kappa":  # valid below the drawn --k
            value = _flag_value(draw, list(range(max(k, 1))), [max(k, 1), -1])
        else:
            value = _flag_value(draw, *_VALUES[flag])
        if flag == "--k":
            k = value
        argv.append(f"{flag}={value}")
    for flag in _EXTRA[command]:
        if not draw(_RARELY):
            values = _SIZE_VALUES.get((command, flag)) or _VALUES[flag]
            argv.append(f"{flag}={_flag_value(draw, *values)}")
    if command == "verify-sr" and draw(_RARELY):
        argv.append("missing_state.json")
    if draw(_RARELY):
        argv.append(draw(st.sampled_from(["--frob", "--b=0.25", "--tol=1e-10", "extra"])))
    return argv


class TestContractProperty:
    """Over generated flag sets, the CLI exits 0, 1 or 2, writes exactly one
    stderr line when it exits 1 or 2, names the failing module and
    operation when it exits 1, and never raises."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(cli_argv())
    def test_exit_codes_and_one_line_errors(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue()
        else:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        if code == 1:
            assert re.match(r"error: [a-z_]+\.[\w.]+: ", err.getvalue())


class TestStartup:
    def test_scipy_linalg_loads_only_when_called(self, tmp_path):
        # scipy.linalg doubles the start time of every command; the eigen
        # seeds come from numpy's bundled LAPACK, so no command loads it
        # wherever numpy bundles one
        code = (
            "import sys\n"
            "import powersqueeze, powersqueeze.cli\n"
            "from powersqueeze import spectra\n"
            "assert 'scipy.linalg' not in sys.modules, 'loaded at import'\n"
            "assert powersqueeze.cli.main(['state', '--k', '2', '--nu', '0.5',"
            " '--lambda', '1', '--out', sys.argv[1]]) == 0\n"
            "assert 'scipy.linalg' not in sys.modules, 'loaded by state'\n"
            "bundled = spectra._bundled_lapack() is not None\n"
            "assert powersqueeze.cli.main(['spectrum', '--k', '3', '--n', '1000',"
            " '--out', sys.argv[1]]) == 0\n"
            "assert not bundled or 'scipy.linalg' not in sys.modules, 'loaded by spectrum'\n"
            "assert powersqueeze.cli.main(['extensions', '--k', '3', '--n', '1000',"
            " '--theta', '0', '--theta', '0.5', '--out', sys.argv[1]]) == 0\n"
            "assert not bundled or 'scipy.linalg' not in sys.modules, 'loaded by extensions'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_no_fractions_at_import(self):
        # fractions (and the decimal it imports) cost every start about
        # 4.6 ms; the exact Pollaczek series runs in Python ints
        code = (
            "import sys\n"
            "import powersqueeze.cli\n"
            "assert 'fractions' not in sys.modules\n"
            "assert 'decimal' not in sys.modules\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


GOLDEN = Path(__file__).parent / "data"


class TestGoldenBytes:
    """The outputs of every command pinned byte for byte; a speedup or a
    rewrite of the CLI must not move them."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("spectrum_k1_n5", ["spectrum", "--k", "1", "--n", "5", "--tol", "1e-10"]),
            ("spectrum_k3_n400", ["spectrum", "--k", "3", "--n", "400"]),
            ("extensions_k3_n400",
             ["extensions", "--k", "3", "--kappa", "0", "--n", "400",
              "--theta", "0", "--theta", "0.5", "--tol", "1e-9"]),
            # the cases where counting per index changes the passes most
            ("spectrum_k4_n1315", ["spectrum", "--k", "4", "--n", "1315", "--tol", "1e-10"]),
            ("spectrum_k40_n300", ["spectrum", "--k", "40", "--n", "300", "--tol", "1e-10"]),
            # count 1 by Weyl's alternative, not the count-2 path: k = 1's
            # fundamental solutions grow, k = 2's decay like m^(-1/4), so
            # neither is square-summable and no minimal solution is built
            ("deficiency_k1_m5000", ["deficiency", "--k", "1", "--M", "5000"]),
            ("deficiency_k2_kappa1_m5000",
             ["deficiency", "--k", "2", "--kappa", "1", "--M", "5000"]),
            ("state_k2_nu05",
             ["state", "--k", "2", "--kappa", "0", "--nu", "0.5", "--lambda", "0",
              "--tol", "1e-10"]),
            # nu = 0: the power-coherent route
            ("state_k1_nu0_lambda13",
             ["state", "--k", "1", "--nu", "0", "--lambda", "1.3", "--tol", "1e-10"]),
            ("verify_sr_k2",
             ["verify-sr", "--k", "2", "--nu", "0.5i", "--lambda", "1+1i", "--tol", "1e-10"]),
            # tail_upper_bound is inf in CSV and null in JSON
            ("classify_k2_m1000", ["classify", "--k", "2", "--M", "1000"]),
            ("classify_k3_m10000", ["classify", "--k", "3", "--M", "10000"]),
            ("moments_b025_m12", ["moments", "--b", "0.25", "--M", "12", "--tol", "1e-10"]),
            ("pollaczek_b025_m30", ["pollaczek", "--b", "0.25", "--M", "30", "--lambda", "0.5"]),
            ("spectrum_k2_n8_ell", ["spectrum", "--k", "2", "--n", "8", "--tol", "1e-10", "--ell"]),
            # one theta: no cross gap, null in JSON
            ("extensions_k3_n60_theta05",
             ["extensions", "--k", "3", "--n", "60", "--theta", "0.5", "--tol", "1e-9"]),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_golden_file(self, capsys, name, argv, fmt):
        assert main([*argv, "--format", fmt]) == 0
        got = capsys.readouterr().out.encode("utf-8")
        assert got == (GOLDEN / f"{name}.{fmt}").read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("state", "--k", "2", "--kappa", "0", "--nu", "0.5", "--lambda", "0",
             "--tol", "1e-10", "--format", "csv"),
            ("classify", "--k", "3", "--M", "10000", "--format", "json"),
            ("spectrum", "--k", "1", "--n", "5", "--tol", "1e-10"),
        ],
    )
    def test_byte_identical_runs(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    @pytest.mark.parametrize(
        "argv",
        [
            ("deficiency", "--k", "1", "--M", "20000", "--format", "json"),
            ("state", "--k", "1", "--nu", "10", "--lambda", "1i", "--tol", "1e-12",
             "--format", "json"),
            ("verify-sr", "--k", "1", "--nu", "10", "--lambda", "1i", "--tol", "1e-12",
             "--format", "json"),
        ],
    )
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, argv):
        # OpenBLAS splits a long dot product or norm across its threads, and
        # the split moves the last bits of the sum: these outputs reduce
        # vectors of 18001 (the envelope fit) and 16385 (cutoff 16384)
        # entries; at M = 10000 and cutoff 8192 one thread and two agreed
        runs = [
            subprocess.run(
                [sys.executable, "-m", "powersqueeze.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            for threads in ("1", "2")
        ]
        assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
        one, two = (run.stdout.splitlines() for run in runs)
        # the differing lines only: a diff of the whole documents takes minutes
        assert len(one) == len(two) and [(a, b) for a, b in zip(one, two) if a != b] == []
