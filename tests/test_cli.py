import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elko.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_rest_lambda_text(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "lambda", "--kind", "S",
                               "--index", "up", "--momentum", "0,0,0", "--mass", "2")
        assert code == 0
        lines = out.splitlines()
        assert "lambda kind=S index=up" in lines[0]
        # components (0, i, 1, 0)
        rows = [line.split() for line in lines if line.strip().startswith("[")]
        values = [(float(r[1]), float(r[2])) for r in rows]
        assert values == [(0, 0), (0, 1), (1, 0), (0, 0)]

    def test_rest_lambda_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "lambda", "--kind", "S",
                               "--index", "up", "--momentum", "0,0,0", "--mass", "2",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        comps = [complex(re, im) for re, im in data["components"]]
        assert np.allclose(comps, [0, 1j, 1, 0])
        assert data["derived"]["p_plus"] == pytest.approx(2.0)

    def test_helicity_operator_on_z_axis(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "helicity-operator",
                               "--momentum", "0,0,1", "--mass", "1",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        assert np.allclose(matrix, 0.5 * np.diag([1, -1, 1, -1]))

    def test_xi_reports_residual(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "xi",
                               "--momentum", "1,2,3", "--mass", "2")
        assert code == 0
        residual_lines = [l for l in out.splitlines() if "intertwiner residual" in l]
        assert len(residual_lines) == 1
        assert float(residual_lines[0].split(":")[1]) <= 1e-12

    def test_every_family_prints_the_recorded_output(self, capsys):
        """All 15 families, text and JSON, at a generic momentum and at one
        with zero components (whose signs the text prints), with
        non-default --kind/--index/--basis; eval-families.json was recorded
        from the branch-per-family CLI that the eval tables replaced."""
        cases = json.loads((DATA / "eval-families.json").read_text())
        families = {case["argv"][case["argv"].index("--family") + 1] for case in cases}
        assert len(families) == 15
        for case in cases:
            code, out, _ = run_cli(capsys, *case["argv"])
            assert code == 0
            assert out == case["stdout"], case["argv"]

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "bogus",
                               "--momentum", "0,0,0", "--mass", "1")
        assert code == 2
        assert "unknown --family" in err

    def test_nonpositive_mass_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "lambda",
                               "--momentum", "0,0,0", "--mass", "-1")
        assert code == 2
        assert "mass" in err

    def test_bad_momentum_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "lambda",
                               "--momentum", "1,2", "--mass", "1")
        assert code == 2


class TestTable:
    def test_rest_table_entries(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--mass", "2")
        assert code == 0
        assert "prefactor sqrt(m/2) = 1" in out
        assert "lambda^S_up" in out and "( 0,  i,  1,  0)" in out
        assert "rho^A_up" in out and "( 1,  0,  0,  i)" in out

    @pytest.mark.parametrize("mass,prefactor", [(0.5, "0.5"), (1.0, "0.707106781187"),
                                                (2.0, "1")])
    def test_prefactor_values(self, capsys, mass, prefactor):
        code, out, _ = run_cli(capsys, "table", "--mass", str(mass))
        assert code == 0
        assert f"prefactor sqrt(m/2) = {prefactor}" in out

    def test_exact_symbols_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--mass", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        by_name = {row["name"]: row["components"] for row in data["spinors"]}
        assert by_name["lambda^S_up"] == ["0", "i", "1", "0"]
        assert by_name["lambda^A_down"] == ["i", "0", "0", "1"]
        assert by_name["rho^S_up"] == ["1", "0", "0", "-i"]
        assert len(by_name) == 8

    def test_nonpositive_mass_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "--mass", "0")
        assert code == 2


class TestVerify:
    def test_small_run_passes_and_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "spin-half",
                               "--seed", "1", "--samples", "3",
                               "--out", str(out_path))
        assert code == 0
        assert "passed=" in out
        data = json.loads(out_path.read_text())
        assert data["suite"] == "spin-half"
        assert data["summary"]["failed"] == 0

    def test_forced_wrong_convention_exits_one(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--suite", "dynamics",
                               "--seed", "1", "--samples", "2",
                               "--force-convention", "-",
                               "--out", str(tmp_path / "r.json"))
        assert code == 1

    def test_all_suite_has_enough_checks(self, capsys, tmp_path):
        out_path = tmp_path / "all.json"
        code, *_ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1",
                           "--samples", "1", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["checks"]) >= 30
        assert any(c["id"] == "spin-one.c-squared-minus-one" for c in data["checks"])

    def test_json_report_on_stdout_is_one_document(self, capsys, tmp_path):
        """Without --out, --format json prints the report alone on standard
        output and the summary line on standard error, so the captured
        output is one JSON document that ``elko diff`` reads."""
        argv = ["verify", "--suite", "symmetry", "--seed", "2", "--samples", "3"]
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["suite"] == "symmetry"
        assert err.startswith("suite=symmetry seed=2 samples=3") and "passed=" in err
        captured, written = tmp_path / "captured.json", tmp_path / "written.json"
        captured.write_text(out)
        run_cli(capsys, *argv, "--out", str(written))
        assert out == written.read_text() + "\n"
        code, out, _ = run_cli(capsys, "diff", str(written), str(captured))
        assert code == 0 and out == "no drift\n"

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, *_ = run_cli(capsys, "verify", "--suite", "symmetry", "--seed", "4",
                               "--samples", "2", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_one_without_traceback(unbuffered):
    # the read end is closed before the child starts, so its first write to
    # standard output fails with a broken pipe: at the print when unbuffered,
    # at the flush of the one buffered summary line otherwise
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "elko", "table", "--mass", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert "Traceback" not in child.stderr
    assert "Exception ignored" not in child.stderr


class TestDiff:
    def _write_report(self, capsys, tmp_path, name, seed):
        path = tmp_path / f"{name}.json"
        run_cli(capsys, "verify", "--suite", "dynamics", "--seed", str(seed),
                "--samples", "2", "--out", str(path))
        return path

    def test_identical_reports_no_drift(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "a", 1)
        b = self._write_report(capsys, tmp_path, "b", 1)
        code, out, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 0
        assert "no drift" in out

    def test_flipped_convention_detected(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "a", 1)
        data = json.loads(a.read_text())
        data["convention"] = "-"
        for check in data["checks"]:
            if check["id"] == "dynamics.convention":
                check["constants"]["sign"] = "-"
        b = tmp_path / "flipped.json"
        b.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 1
        assert out.strip() == "dynamics.convention"

    def test_constant_turned_nan_detected(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "a", 1)
        data = json.loads(a.read_text())
        for check in data["checks"]:
            if check["id"] == "dynamics.mass-term-chiral":
                check["constants"]["physical-value"] = float("nan")
        b = tmp_path / "nan.json"
        b.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "diff", str(a), str(b))
        assert code == 1
        assert out.strip() == "dynamics.mass-term-chiral"

    def test_mismatched_suites_usage_error(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "a", 1)
        other = tmp_path / "other.json"
        run_cli(capsys, "verify", "--suite", "spin-half", "--seed", "1",
                "--samples", "2", "--out", str(other))
        code, _, err = run_cli(capsys, "diff", str(a), str(other))
        assert code == 2
        assert "cannot diff" in err


def _report_not_json(tmp_path):
    path = tmp_path / "notes.json"
    path.write_text("not a report\n")
    return str(path)


def _report_without_checks(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"suite": "all"}\n')
    return str(path)


_REFERENCE = str(DATA / "report-all-seed1-n100.json")
# each argv as a function of a scratch directory
_BAD_INPUTS = {
    "verify-negative-seed": lambda d: ["verify", "--suite", "all", "--seed", "-1"],
    "diff-missing-report": lambda d: ["diff", str(d / "missing.json"), _REFERENCE],
    "diff-report-not-json": lambda d: ["diff", _REFERENCE, _report_not_json(d)],
    "diff-report-without-checks": lambda d: ["diff", _report_without_checks(d), _REFERENCE],
    "eval-momentum-not-numbers": lambda d: ["eval", "--family", "lambda",
                                            "--momentum", "a,b,c", "--mass", "1"],
    "table-infinite-mass": lambda d: ["table", "--mass", "inf", "--format", "json"],
    "verify-out-unwritable": lambda d: ["verify", "--suite", "spin-half", "--samples", "2",
                                        "--out", str(d / "missing" / "x.json")],
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(capsys, tmp_path, case):
    """Usage and domain errors exit 2 with one ``error:`` line and no
    traceback, and print nothing on standard output."""
    code, out, err = run_cli(capsys, *_BAD_INPUTS[case](tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
