"""Command-line interface: outputs, exit codes, schemas, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotelling_mediators.cli import main

ZIGZAG_DENSITY = {"kind": "pwl", "breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0], "values": [0.5, 1.5, 0.5, 1.5, 0.5]}


def _golden_commands():
    """Commands whose stdout ``cli_golden.json`` pins byte for byte;
    ``{zigzag}`` stands for a file holding ``ZIGZAG_DENSITY``."""
    kinds = {"nime": [], "dict": [], "lime": [], "glime": [], "clime": ["--lambda", "0.0625"]}
    cmds = {
        "table1": ["table1", "--budget", "300", "--format", "json"],
        "table1-csv": ["table1", "--budget", "300"],
        "ic-dict-3-csv": ["ic", "--mediator", "dict", "--targets", "0.1,0.5,0.9", "--n", "3", "--budget", "700"],
    }
    for kind in ("dict", "lime", "glime", "clime"):
        for n in ("3", "8"):
            cmds[f"ic-{kind}-{n}"] = ["ic", "--mediator", kind, *kinds[kind], "--n", n, "--budget", "700", "--format", "json"]
    cmds["pne-lime-4"] = ["pne", "--mediator", "lime", "--n", "4", "--profile", "0.125,0.375,0.625,0.875"]
    cmds["pne-nime-3"] = ["pne", "--mediator", "nime", "--n", "3", "--profile", "0.25,0.5,0.75"]
    cmds["enumerate-clime-3"] = [
        "pne", "--mediator", "clime", "--lambda", "0.1", "--n", "3", "--enumerate", "--grid-step", "0.05",
    ]
    for kind, flags in kinds.items():
        for n, profile in (("3", "0.2,0.3,0.9"), ("5", "0.05,0.3,0.3,0.62,0.95")):
            for command in ("payoff", "social-cost"):
                cmds[f"{command}-{kind}-{n}"] = [
                    command, "--mediator", kind, *flags, "--n", n, "--profile", profile,
                    "--distribution", "{zigzag}", "--format", "json",
                ]
    return cmds


GOLDEN_COMMANDS = _golden_commands()


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

    def test_expect_of_the_other_mode_is_a_usage_error(self, capsys):
        # A profile check never reads "empty", an enumeration never "pne".
        profile = ["pne", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5"]
        grid = ["pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.25"]
        for argv, expect in [(profile, "empty"), (profile, "nonempty"), (grid, "pne"), (grid, "no-pne")]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--expect", expect])
            assert exc.value.code == 2, (argv, expect)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"--expect {expect} never matches" in captured.err

    def test_flags_do_not_outlive_their_call(self, capsys):
        # The parser is built once per process; one call's flags must not
        # reach the next.
        args = ["pne", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5"]
        assert run_cli(capsys, *args, "--expect", "no-pne", "--format", "json")[0] == 1
        code, out = run_cli(capsys, *args)
        assert code == 0 and out.startswith("isPne,")

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
            ["ic", "--mediator", "lime", "--n", "3", "--budget", "1000000000000"],
            ["table1", "--budget", "0"],
            ["pne", "--mediator", "lime", "--n", "3", "--profile", "0.2,0.5,0.8", "--gain-tol", "0"],
            ["pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.25", "--gain-tol", "-1"],
            ["payoff", "--mediator", "dict", "--n", "2", "--equality-tol", "nan", "--profile", "0.25,0.9"],
            ["ic", "--mediator", "lime", "--n", "3", "--budget", "50", "--threads", "0"],
            ["pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.25", "--threads", "-2"],
            ["pne", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5", "--threads", "-5"],
            ["pne", "--mediator", "nime", "--n", "2", "--enumerate"],
            ["payoff", "--mediator", "nime", "--n", "2", "--profile", "0.1,0.5", "--epsilon", "nan"],
            ["payoff", "--mediator", "nime", "--n", "2", "--equality-tol", "-5", "--profile", "0.1,0.2"],
            ["payoff", "--mediator", "lime", "--n", "3", "--targets", "0.1,0.2,0.3", "--profile", "0.1,0.5,0.9"],
            ["ic", "--mediator", "dict", "--n", "3", "--epsilon", "0.01", "--budget", "50"],
            ["pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.5", "--profile", "0.1,0.2"],
            ["pne", "--mediator", "nime", "--n", "2", "--grid-step", "0.5", "--profile", "0.1,0.2"],
        ],
        ids=[
            "ic-budget-0",
            "ic-budget-over-cap",
            "table1-budget-0",
            "pne-gain-tol-0",
            "enumerate-gain-tol-negative",
            "dict-nan-tol",
            "ic-threads-0",
            "enumerate-threads-negative",
            "pne-profile-threads-negative",
            "enumerate-without-grid-step",
            "nime-epsilon-nan",
            "nime-equality-tol",
            "lime-targets",
            "dict-epsilon",
            "enumerate-with-profile",
            "profile-with-grid-step",
        ],
    )
    def test_exits_two_with_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["ic", "table1"])
    def test_negative_seed_names_the_seed(self, command, capsys):
        game = ["--mediator", "lime", "--n", "3"] if command == "ic" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *game, "--budget", "50", "--seed", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["payoff", "--mediator", "nime", "--n", "2", "--profile", "0.2,0.8", "--threads", "0"],
            ["social-cost", "--mediator", "nime", "--n", "2", "--profile", "0.2,0.8", "--seed", "1"],
            ["pne", "--mediator", "nime", "--n", "2", "--profile", "0.5,0.5", "--seed", "-3"],
        ],
        ids=["payoff-threads", "social-cost-seed", "pne-seed"],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err


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
            "[" * 1000,
        ],
        ids=[
            "missing-file", "invalid-json", "json-list", "no-breakpoints", "non-numeric", "mass-not-one",
            "deep-nesting",
        ],
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

    @pytest.mark.parametrize("targets", ["0.2,x", "0.2,1.5", "nan,0.5"], ids=["malformed", "outside", "nan"])
    def test_bad_targets_exit_two_naming_the_flag(self, targets, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["payoff", "--mediator", "dict", "--n", "2", "--targets", targets, "--profile", "0.3,0.9"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "targets" in err, err


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
    def test_enumerate_stdout_identical_across_threads(self, capsys):
        args = ("pne", "--mediator", "clime", "--lambda", "0.125", "--n", "2", "--enumerate", "--grid-step", "0.0125")
        outs = [run_cli(capsys, *args, "--threads", threads) for threads in ("1", "2")]
        assert outs[0] == outs[1]
        assert outs[0] == (0, "0.375,0.375\n0.375,0.625\n0.625,0.625\n")

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_stdout_matches_golden(self, name, tmp_path, capsys):
        golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
        zigzag = tmp_path / "zigzag.json"
        zigzag.write_text(json.dumps(ZIGZAG_DENSITY))
        argv = [str(zigzag) if a == "{zigzag}" else a for a in GOLDEN_COMMANDS[name]]
        assert run_cli(capsys, *argv) == (0, golden[name])

    def test_ic_byte_identical_runs(self):
        args = ("ic", "--mediator", "lime", "--n", "3", "--budget", "400", "--seed", "7", "--format", "json")
        code_a, out_a = run_subprocess(*args)
        code_b, out_b = run_subprocess(*args)
        assert code_a == code_b == 0
        assert out_a == out_b


# Valid commands on small inputs, one per command and mode; ``--threads`` is
# always 1, and the one grid holds 153 sorted profiles.
_FUZZ_COMMANDS = [
    ["payoff", "--mediator", "clime", "--lambda", "0.1", "--n", "3", "--profile", "0.2,0.5,0.8"],
    ["social-cost", "--mediator", "dict", "--targets", "0.1,0.5,0.9", "--n", "3", "--profile", "0.2,0.5,0.8"],
    ["pne", "--mediator", "lime", "--epsilon", "0.001", "--n", "3", "--profile", "0.2,0.5,0.8", "--threads", "1"],
    [
        "pne", "--mediator", "nime", "--n", "2", "--enumerate", "--grid-step", "0.0625", "--gain-tol", "1e-9",
        "--expect", "nonempty", "--threads", "1",
    ],
    ["ic", "--mediator", "glime", "--n", "3", "--budget", "30", "--seed", "4", "--threads", "1"],
]
_BAD_VALUES = [
    "nan", "inf", "-inf", "-0.0", "0", "-1", "1", "2", "2.5", "5e-324", "1e-310", "1e308", "", "x", "0.3",
    "0.2,0.5", "0.2,0.5,0.8,0.9", "0.2,nan,0.8", "0.2,inf,0.8", "-0.0,0.5,1", "0.2,0.5,1.5", "pne", "empty",
]


class TestExitCodeProperty:
    """Any valid small command with one flag's value swapped for a bad or
    extreme one exits 0, 1 or 2, and an exit 2 prints one ``error:`` line,
    never a traceback."""

    @settings(max_examples=600)
    @given(st.data())
    def test_one_bad_flag_never_escapes_the_exit_codes(self, data):
        argv = list(data.draw(st.sampled_from(_FUZZ_COMMANDS)))
        flags = [k for k, a in enumerate(argv) if a.startswith("--") and a != "--threads" and k + 1 < len(argv)]
        flags = [k for k in flags if not argv[k + 1].startswith("--")]
        argv[data.draw(st.sampled_from(flags)) + 1] = data.draw(st.sampled_from(_BAD_VALUES))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, (argv, err.getvalue())
            assert out.getvalue() == "", argv
        else:
            assert out.getvalue() and not err.getvalue(), argv
            assert "nan" not in out.getvalue().lower() and "inf" not in out.getvalue().lower(), argv
