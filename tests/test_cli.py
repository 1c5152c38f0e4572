"""Command-line interface: outputs, exit codes, schemas, determinism."""

import json
import subprocess
import sys

import pytest

from hotelling_mediators.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hotelling_mediators.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


class TestBasicCommands:
    def test_social_cost_paired_center(self, capsys):
        code, out = run_cli(capsys, "social-cost", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5")
        assert code == 0
        assert out.strip() == "0.25"

    def test_social_cost_dict_extremes(self, capsys):
        code, out = run_cli(capsys, "social-cost", "--mediator", "dict", "--n", "2", "--profile", "0,1")
        assert code == 0
        assert out.strip() == "0.5"

    def test_payoff_walkthrough_profile(self, capsys):
        code, out = run_cli(
            capsys,
            "payoff", "--mediator", "lime", "--epsilon", "0.001", "--n", "4",
            "--profile", "0.0625,0.25,0.625,0.75",
        )
        assert code == 0
        values = [float(v) for v in out.strip().split(",")]
        assert len(values) == 4
        assert abs(sum(values) - 1.0) <= 1e-9

    def test_twelve_significant_digits(self, capsys):
        code, out = run_cli(capsys, "social-cost", "--mediator", "nime", "--n", "2", "--profile", "0.1,0.9")
        assert code == 0
        assert out.strip() == "0.17"


class TestPne:
    def test_profile_verdict(self, capsys):
        code, out = run_cli(
            capsys,
            "pne", "--mediator", "lime", "--n", "3",
            "--profile", "0.1666667,0.5,0.8333333", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["isPne"] is True

    def test_enumerate_two_player_unmediated(self, capsys):
        code, out = run_cli(
            capsys,
            "pne", "--mediator", "nime", "--n", "2",
            "--enumerate", "--grid-step", "0.015625",
        )
        assert code == 0
        assert out.strip() == "0.5,0.5"

    def test_expect_match_and_mismatch(self, capsys):
        args = ["pne", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5"]
        assert run_cli(capsys, *args, "--expect", "pne")[0] == 0
        assert run_cli(capsys, *args, "--expect", "no-pne")[0] == 1

    def test_expect_empty_enumeration(self, capsys):
        code, _ = run_cli(
            capsys,
            "pne", "--mediator", "clime", "--lambda", "0.0833333", "--n", "3",
            "--enumerate", "--grid-step", "0.04166666666666666", "--expect", "empty",
        )
        assert code == 0


class TestIc:
    def test_json_schema_and_value(self, capsys):
        code, out = run_cli(
            capsys,
            "ic", "--mediator", "clime", "--lambda", "0.125", "--n", "2",
            "--budget", "2000", "--format", "json",
        )
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["searchLower"] - 0.109375) <= 1e-3
        assert blob["budget"] == 2000

    def test_glime_fixture_value(self, capsys):
        code, out = run_cli(
            capsys,
            "ic", "--mediator", "glime", "--n", "4", "--budget", "200", "--format", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["fixtureLower"] - 0.140625) <= 1e-9

    def test_nime_zero(self, capsys):
        code, out = run_cli(capsys, "ic", "--mediator", "nime", "--n", "5", "--budget", "50", "--format", "json")
        assert code == 0
        assert json.loads(out)["searchLower"] == 0.0


class TestUsageErrors:
    def test_malformed_profile(self):
        code, _ = run_subprocess("payoff", "--mediator", "nime", "--n", "2", "--profile", "0.1;0.2")
        assert code == 2

    def test_wrong_profile_length(self):
        code, _ = run_subprocess("payoff", "--mediator", "nime", "--n", "3", "--profile", "0.1,0.2")
        assert code == 2

    def test_missing_lambda(self):
        code, _ = run_subprocess("ic", "--mediator", "clime", "--n", "2")
        assert code == 2

    def test_unknown_mediator(self):
        code, _ = run_subprocess("payoff", "--mediator", "magic", "--n", "2", "--profile", "0.1,0.2")
        assert code == 2

    def test_zero_grid_step(self):
        code, _ = run_subprocess("pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0")
        assert code == 2


class TestUsageErrorsExitTwo:
    """Bad values that only the library can judge still exit 2 with an
    ``error:`` line, never a traceback or an empty answer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ic", "--mediator", "lime", "--n", "3", "--budget", "0"],
            ["table1", "--budget", "0"],
            ["pne", "--mediator", "lime", "--n", "3", "--profile", "0.2,0.5,0.8", "--gain-tol", "0"],
            ["pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.25", "--gain-tol", "-1"],
            ["payoff", "--mediator", "dict", "--n", "2", "--equality-tol", "nan", "--profile", "0.25,0.9"],
        ],
        ids=["ic-budget-0", "table1-budget-0", "pne-gain-tol-0", "enumerate-gain-tol-negative", "dict-nan-tol"],
    )
    def test_exits_two_with_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestMalformedDistribution:
    @pytest.mark.parametrize(
        "text",
        [
            None,
            "{not json",
            "[0.0, 1.0]",
            '{"kind": "pwl", "values": [1.0, 1.0]}',
            '{"kind": "pwl", "breakpoints": [0.0, 1.0], "values": ["a", "b"]}',
            '{"kind": "pwl", "breakpoints": [0.0, 1.0], "values": [1.0, 3.0]}',
        ],
        ids=["missing-file", "invalid-json", "json-list", "no-breakpoints", "non-numeric", "mass-not-one"],
    )
    def test_exits_two_with_error_line(self, text, tmp_path, capsys):
        path = tmp_path / "dist.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["payoff", "--mediator", "nime", "--n", "2", "--profile", "0.2,0.8", "--distribution", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestDictTargetsFlag:
    def test_custom_targets(self, capsys):
        code, out = run_cli(
            capsys,
            "payoff", "--mediator", "dict", "--n", "2",
            "--targets", "0.3,0.6", "--profile", "0.3,0.9",
        )
        assert code == 0
        assert out.strip() == "1,0"


class TestDistributionFile:
    def test_pwl_distribution_flag(self, tmp_path, capsys):
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps({"kind": "pwl", "breakpoints": [0.0, 1.0], "values": [0.0, 2.0]}))
        code, out = run_cli(
            capsys,
            "social-cost", "--mediator", "nime", "--n", "2",
            "--profile", "0.5,0.5", "--distribution", str(path),
        )
        assert code == 0
        # Integral of |t - 1/2| * 2t over [0, 1] is 1/4 - 1/8 + ... = 7/24 - 1/8.
        expected = 2 * (0.5 * 0.25 / 2 - 0.125 / 3) + 2 * ((1 - 0.125) / 3 - 0.5 * (1 - 0.25) / 2)
        assert abs(float(out.strip()) - expected) <= 1e-12

    def test_table1_layout(self, capsys):
        code, out = run_cli(capsys, "table1", "--budget", "60")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,optimalSc,nimeBestPneSc")
        assert len(lines) == 8  # header + n = 2..8
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "0.125" and first[2] == "0.25"
        assert lines[2].split(",")[2] == "no PNE"
        eps = 1e-3
        row4 = lines[3].split(",")
        assert row4[1] == "0.0625"
        assert abs(float(row4[6]) - 0.25 * (1 - eps / 2)) <= 1e-15
        assert float(row4[7]) == 0.28125
        assert all(not r.split(",")[9] for r in lines[1:])  # no disagreement flags


class TestJsonRoundTrips:
    def test_payoff_schema(self, capsys):
        code, out = run_cli(
            capsys, "payoff", "--mediator", "nime", "--n", "2",
            "--profile", "0.25,0.75", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"payoffs": [0.5, 0.5]}

    def test_social_cost_schema(self, capsys):
        code, out = run_cli(
            capsys, "social-cost", "--mediator", "nime", "--n", "2",
            "--profile", "0.5,0.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"socialCost": 0.25}

    def test_table1_schema(self, capsys):
        code, out = run_cli(capsys, "table1", "--budget", "60", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == list(range(2, 9))
        assert rows[1]["nimeBestPneSc"] is None  # three players: no equilibrium

    def test_enumerate_schema(self, capsys):
        code, out = run_cli(
            capsys, "pne", "--mediator", "lime", "--n", "2",
            "--enumerate", "--grid-step", "0.015625", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "profiles": [[0.25, 0.25], [0.25, 0.75], [0.75, 0.75]]
        }


class TestDeterminism:
    def test_ic_byte_identical_runs(self):
        args = ("ic", "--mediator", "lime", "--n", "3", "--budget", "400", "--seed", "7", "--format", "json")
        code_a, out_a = run_subprocess(*args)
        code_b, out_b = run_subprocess(*args)
        assert code_a == code_b == 0
        assert out_a == out_b
