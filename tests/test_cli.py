import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanbounds.cli as cli
from meanbounds.cli import main
from meanbounds.thresholds import membership
from meanbounds.verify import FalsificationResult

import oracles

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_basic_pair(self, capsys):
        code, out, _ = run(capsys, "eval", "1", "2")
        assert code == 0
        assert "1.4715177646857" in out  # identric
        assert "1.4142135623730951" in out  # geometric

    def test_equal_pair(self, capsys):
        code, out, _ = run(capsys, "eval", "5", "5")
        assert code == 0
        for line in out.splitlines():
            if "=" in line and "pair" not in line:
                assert line.rsplit("=", 1)[1].strip() in ("5", "0")

    def test_with_family_parameters(self, capsys):
        code, out, _ = run(capsys, "eval", "1", "2", "--t", "0.5", "--s", "3")
        assert code == 0
        assert "Q(t=0.5, s=3) = 1.5" in out

    def test_invalid_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "-1", "2")
        assert code == 2
        assert "error" in err

    def test_t_without_s_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "1", "2", "--t", "0.3")
        assert code == 2

    def test_structured_format(self, capsys):
        code, out, _ = run(capsys, "eval", "1", "2", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["arithmetic"] == 1.5
        assert payload["tool_version"]

    def test_structured_near_overflow_is_finite(self, capsys):
        code, out, _ = run(capsys, "eval", "1e308", "1.5e308",
                           "--format", "structured")
        assert code == 0
        assert "Infinity" not in out and "NaN" not in out
        payload = json.loads(out)
        for key, oracle in (("gap", oracles.gap),
                            ("arithmetic", oracles.arithmetic_mean),
                            ("geometric", oracles.geometric_mean),
                            ("harmonic", oracles.harmonic_mean)):
            expected = float(oracle(1e308, 1.5e308))
            assert math.isclose(payload[key], expected, rel_tol=4e-16), key

    def test_extreme_ratio_pair(self, capsys):
        # The gap rounds to 1 here; I tends to max/e.
        code, out, _ = run(capsys, "eval", "1e-17", "1", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == 1.0
        expected = float(oracles.identric_raw(1e-17, 1.0))
        assert math.isclose(payload["identric"], expected, rel_tol=1e-13)

    def test_non_finite_structured_value_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "identric_mean", lambda pair: math.nan)
        code, out, err = run(capsys, "eval", "1", "2", "--format", "structured")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestThresholds:
    def test_s2_shows_surd_forms(self, capsys):
        code, out, _ = run(capsys, "thresholds", "2")
        assert code == 0
        assert "(6 - sqrt(6))/12" in out
        assert "0.24297805655" in out

    def test_s1_shows_surd_forms(self, capsys):
        code, out, _ = run(capsys, "thresholds", "1")
        assert code == 0
        assert "(3 - sqrt(3))/6" in out

    @pytest.mark.parametrize("s, name, side", [
        (1.0, "p", "lower_bound_holds"), (1.5, "p", "lower_bound_holds"),
        (3.0, "p", "lower_bound_holds"), (5.0, "p", "lower_bound_holds"),
        (20.0, "p", "lower_bound_holds"), (1.0, "q", "upper_bound_holds"),
        (1.5, "q", "upper_bound_holds"), (2.0, "q", "upper_bound_holds")])
    def test_label_claims_no_side_the_double_misses(self, capsys, s, name, side):
        # The printed double lies beyond its cutoff here, so the label may
        # not call it the largest t below (or smallest t above) identric.
        code, out, _ = run(capsys, "thresholds", repr(s))
        line = next(ln for ln in out.splitlines() if ln.startswith(f"{name} = "))
        value = float(line.split()[2])
        assert code == 0 and membership(value, s) != side
        side_name = "lower" if name == "p" else "upper"
        assert line.endswith(f"({side_name}-side cutoff: closed form, rounded to a double)")

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "thresholds", "0.5")
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize("argv, shown", [
        (("thresholds", "1e309"), "inf"), (("thresholds", "nan"), "nan"),
        (("eval", "1", "2", "--t", "0.2", "--s", "inf"), "inf"),
        (("verify", "--s", "nan", "--t", "0.2", "--side", "lower"), "nan")])
    def test_non_finite_s_is_named_as_such(self, capsys, argv, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"meanbounds {argv[0]}: error: s must be finite, got {shown}\n"


    @pytest.mark.parametrize("argv, message", [
        (("thresholds", "-1e5"), "s must be >= 1, got -100000.0"),
        (("thresholds", "-inf"), "s must be finite, got -inf"),
        (("verify", "--s", "2", "--t", "-1e-3", "--side", "lower"),
         "t must lie in [0, 1/2], got -0.001"),
        (("eval", "-nan", "2"), "pair entries must be finite, got (nan, 2.0)"),
        (("eval", "1", "2", "--t", "0.2", "--s", "-Infinity"), "s must be finite, got -inf"),
        (("falsify", "--s", "-1E+3", "--t", "0.2", "--side", "upper"),
         "s must be >= 1, got -1000.0")])
    def test_negative_exponent_and_non_finite_values_reach_the_domain_check(
            self, capsys, argv, message):
        # argparse read these as option flags: "expected one argument".
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"meanbounds {argv[0]}: error: {message}\n"

class TestVerify:
    def test_holds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--grid", "2000")
        assert code == 0
        assert "holds_on_grid" in out

    def test_violated_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.25",
                           "--side", "lower", "--grid", "2000")
        assert code == 1
        assert "violated" in out
        assert "witness" in out

    def test_structured_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.25",
                           "--side", "lower", "--grid", "2000",
                           "--format", "structured")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "violated"
        assert payload["witness"]["x"] > 0.9
        assert payload["parameters"]["grid"]["count"] == 2000
        assert payload["tool_version"]

    def test_u_zero_at_extreme_s_has_a_finite_margin(self, capsys):
        # Q = A at t = 1/2, so the upper side holds with its least margin
        # at the grid's smallest gap, in the series region.
        code, out, _ = run(capsys, "verify", "--s", "1e308", "--t", "0.5",
                           "--side", "upper", "--grid", "400",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "holds_on_grid"
        assert payload["worst_margin"] == pytest.approx(
            float(oracles.family_log_ratio_t(0.5, 1e308, 1e-9)), rel=1e-14)

    def test_largest_s_writes_nothing_to_stderr(self):
        # (s/2) ln(1 - u x^2) rounds to -inf next to x = 1 at s = DBL_MAX,
        # without a numpy overflow warning; a fresh interpreter, since the
        # suite's own warning filters would hide what the command writes.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("MEANBOUNDS_GRID", None)
        proc = subprocess.run(
            [sys.executable, "-m", "meanbounds", "verify", "--s", repr(sys.float_info.max),
             "--t", "0.01", "--side", "upper"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert "worst margin: -inf" in lines
        assert any(line.startswith("witness margin: -inf ") for line in lines)

    def test_grid_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANBOUNDS_GRID", "500")
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--format", "structured")
        assert code == 0
        assert json.loads(out)["samples"] == 500

    def test_empty_grid_env_var_means_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANBOUNDS_GRID", "")
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--format", "structured")
        assert code == 0
        assert json.loads(out)["samples"] == 10_000

    @pytest.mark.parametrize("command", [
        ("verify", "--s", "2", "--t", "0.2", "--side", "lower"),
        ("sweep", "--s", "1:2:1"),
    ])
    @pytest.mark.parametrize("value", ["1e4", "10.0", "abc", " "])
    def test_malformed_grid_env_var_is_named(self, capsys, monkeypatch, command, value):
        monkeypatch.setenv("MEANBOUNDS_GRID", value)
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert err == (f"meanbounds {command[0]}: error: MEANBOUNDS_GRID must be "
                       f"an integer, got {value!r}\n")

    def test_grid_flag_ignores_the_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANBOUNDS_GRID", "1e4")
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--grid", "500", "--format", "structured")
        assert code == 0
        assert json.loads(out)["samples"] == 500

    def test_uniform_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--grid", "500", "--uniform",
                           "--format", "structured")
        assert code == 0
        assert json.loads(out)["parameters"]["grid"]["spacing"] == "uniform"


class TestFalsify:
    def test_found_witness(self, capsys):
        t = 0.2113248654051871 - 1e-2  # below the s=1 upper cutoff
        code, out, _ = run(capsys, "falsify", "--s", "1", "--t", str(t),
                           "--side", "upper")
        assert code == 0
        assert "witness" in out

    def test_precondition_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "falsify", "--s", "2", "--t", "0.1",
                           "--side", "lower")
        assert code == 2
        assert "nothing to falsify" in err


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--s", "1:10:0.5",
                           "--grid", "400", "--tol", "1e-4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("s,p_closed,q_closed,p_empirical,q_empirical,"
                            "lower_margin_at_p,upper_margin_at_q")
        assert len(lines) == 1 + 19

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--s", "1:2:0.5", "--grid", "400", "--tol", "1e-4")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_u_zero_margin_is_finite_at_extreme_s(self, capsys):
        # At s = 1e308 the closed forms round to t = 1/2, where the series
        # once formed 3 s u = inf * 0 and printed nan margins.
        code, out, _ = run(capsys, "sweep", "--s", "1e308:1e308:1",
                           "--grid", "400", "--tol", "1e-4")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        lower, upper = float(row[5]), float(row[6])
        assert lower == pytest.approx(-float(oracles.family_log_ratio_t(
            0.5, 1e308, 1.0 - 1e-9)), rel=1e-12)
        assert 0.0 <= upper < 1e-17

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--s", "1-10")
        assert code == 2
        assert "START:STOP:STEP" in err

    def test_non_finite_range_is_usage_error(self, capsys):
        for spec in ("1:inf:1", "nan:2:1", "1:2:inf", "-inf:1:1"):
            code, out, err = run(capsys, "sweep", f"--s={spec}")
            assert code == 2
            assert out == ""
            assert "finite" in err

    @pytest.mark.parametrize("spec, message", [
        ("-5:10:1", "s must be >= 1, got -5.0"),
        ("-inf:1:1", "bad range '-inf:1:1': START, STOP and STEP must be finite"),
        ("-1e5:1:1", "range '-1e5:1:1' has more than 10000 rows"),
        ("-5:10", "range must look like START:STOP:STEP, got '-5:10'")])
    def test_negative_start_reaches_the_range_and_domain_checks(self, capsys, spec, message):
        # argparse read a range starting with "-" as an option flag:
        # "argument --s: expected one argument".
        code, out, err = run(capsys, "sweep", "--s", spec)
        assert (code, out) == (2, "")
        assert err == f"meanbounds sweep: error: {message}\n"

    def test_oversized_range_is_usage_error(self, capsys):
        for spec in ("1:1e9:1e-9", "-1e308:1e308:1e-300", "1:10001:1"):
            code, out, err = run(capsys, "sweep", f"--s={spec}")
            assert code == 2
            assert out == ""
            assert f"more than {cli._MAX_SWEEP_ROWS} rows" in err

    def test_row_limit_is_inclusive(self):
        limit = cli._MAX_SWEEP_ROWS
        assert len(cli._parse_range(f"1:{limit}:1")) == limit

    def test_reader_closing_the_pipe_leaves_no_traceback(self):
        # About 500 KB of csv, more than a pipe holds, so the command is
        # still writing when its reader closes after the first line.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("MEANBOUNDS_GRID", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "meanbounds", "sweep", "--s", "1:40:0.01",
             "--grid", "64", "--format", "csv"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert first.startswith(b"s,p_closed,q_closed,")
        assert err == b""
        assert proc.returncode == cli.EXIT_BROKEN_PIPE


class TestGridLimit:
    def test_oversized_grid_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--s", "2", "--t", "0.24",
                             "--side", "lower", "--grid", "10000001")
        assert code == 2
        assert out == ""
        assert "limit" in err

    def test_oversized_grid_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANBOUNDS_GRID", "20000000")
        code, out, err = run(capsys, "sweep", "--s", "1:2:1")
        assert code == 2
        assert out == ""
        assert "limit" in err


class TestOutputFiles:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--s", "2", "--t", "0.24",
                           "--side", "lower", "--grid", "500",
                           "--format", "structured", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "holds_on_grid"

    def test_invalid_input_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "never.csv"
        code, _, _ = run(capsys, "thresholds", "0.5", "--out", str(target))
        assert code == 2
        assert not target.exists()

    @pytest.mark.parametrize("where", ["missing/dir/x.out", "."])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, where):
        # A missing directory, or a directory in place of a file.
        code, out, err = run(capsys, "thresholds", "2", "--out",
                             str(tmp_path / where))
        assert code == 2
        assert out == ""
        assert err.startswith("meanbounds thresholds: error: ")
        assert len(err.splitlines()) == 1


class TestCertify:
    @pytest.mark.parametrize("s", ["1", "2", "5", "50"])
    def test_all_checks_pass(self, capsys, s):
        code, out, err = run(capsys, "certify", "--s", s,
                             "--format", "structured")
        assert code == 0, out
        assert err == ""
        payload = json.loads(out)
        ts = cli.sharp_thresholds(float(s))
        assert (payload["p"], payload["q"], payload["passed"]) == (ts.p, ts.q,
                                                                  True)
        assert [(r["check"], r["result"]) for r in payload["rows"]] == [
            ("verify_at_p", "holds_on_grid"), ("verify_at_q", "holds_on_grid"),
            ("falsify_above_p", "found"), ("falsify_below_q", "found"),
            ("certify_below_p", "proved_negative")]
        assert 0 < payload["rows"][-1]["nodes"] < 100

    def test_human_output_is_the_csv(self, capsys):
        _, human, _ = run(capsys, "certify", "--s", "2")
        _, csv, _ = run(capsys, "certify", "--s", "2", "--format", "csv")
        assert human == csv
        assert human.splitlines()[0] == "check,t,result,margin,x,nodes"
        assert len(human.splitlines()) == 1 + 5

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "falsify", lambda t, s, side: FalsificationResult(
            found=False, witness=None, attempts=0, note="patched"))
        code, out, _ = run(capsys, "certify", "--s", "2")
        assert code == 1
        assert out.count(",not_found,") == 2
        assert "certify_below_p,0.23297805655104298,proved_negative" in out

    @pytest.mark.parametrize("s", ["0.5", "nan", "2e5"])
    def test_bad_s_is_usage_error(self, capsys, s):
        code, out, err = run(capsys, "certify", "--s", s)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("meanbounds certify: error: ")
        assert "Traceback" not in err


class TestPatchableNames:
    """The commands call the check functions bound in ``cli``'s namespace."""

    @pytest.mark.parametrize("name, argv", [
        ("falsify", ("falsify", "--s", "1", "--t", "0.2", "--side", "upper")),
        ("verify_family_inequality",
         ("verify", "--s", "2", "--t", "0.24", "--side", "lower")),
    ])
    def test_patched_check_is_called(self, capsys, monkeypatch, name, argv):
        def refuse(*args):
            raise ValueError("patched")

        monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"meanbounds {argv[0]}: error: patched\n"


class TestCorpus:
    def test_matches_recorded_output(self, tmp_path):
        """The CLI corpus prints byte for byte what tests/cli_corpus holds."""
        spec = importlib.util.spec_from_file_location(
            "cli_corpus", ROOT / "scripts" / "cli_corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        corpus.record(tmp_path)
        golden = ROOT / "tests" / "cli_corpus"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert ((tmp_path / name).read_bytes()
                    == (golden / name).read_bytes()), name
