import json
import subprocess
import sys

import pytest

from restaurant_pomdp import cli
from restaurant_pomdp.cli import main
from restaurant_pomdp.config import config_to_json, scenario_two_tables


@pytest.fixture()
def two_table_config_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(config_to_json(scenario_two_tables()))
    return str(path)


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main([
        "run", "--scenario", "two-tables", "--policy", "fcfs",
        "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    assert out.exists()
    header = json.loads(out.read_text().splitlines()[0])
    assert header["seed"] == 3
    assert "discounted_return=" in capsys.readouterr().out


def test_run_missing_config_exits_two_naming_path(tmp_path, capsys):
    code = main(["run", "--config", "/no/such/config.json", "--out", str(tmp_path / "t")])
    assert code == 2
    assert "/no/such/config.json" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--seed", "3"], ["--override", "horizon=1"]])
def test_run_config_file_not_an_object_exits_two(extra, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "t"), *extra]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_run_requires_config_or_scenario(capsys):
    assert main(["run"]) == 2
    assert "config" in capsys.readouterr().err


def test_run_horizon_zero_override(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = main([
        "run", "--scenario", "two-tables", "--override", "horizon=0",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only, no steps
    assert "discounted_return=0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "override",
    ["table_positions=5", "robot_start=7", "satisfaction_prior=3", "reward.penalty_bases=2",
     'gamma="x"', 'reward.serve_scale="a"', "gamma=true",
     # json.loads reads NaN and Infinity as floats; no config number may be either.
     "satisfaction_prior=[NaN,0,0,0,0,1.0]", "reward.serve_scale=NaN", "gamma=Infinity",
     "reward=null"]
    # Nor an int too large for a float.
    + [pytest.param(override.replace("BIG", "1" + "0" * 400), id=override)
       for override in ("reward.penalty_bases=[BIG,1.7,1.4]", "reward.serve_scale=BIG",
                        "satisfaction_prior=[0,0,0,0,0,BIG]")],
)
def test_run_config_value_of_the_wrong_type_exits_two(override, tmp_path, capsys):
    code = main([
        "run", "--scenario", "two-tables", "--override", override,
        "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_from_config_file(two_table_config_file, tmp_path):
    out = tmp_path / "t.jsonl"
    assert main(["run", "--config", two_table_config_file, "--out", str(out)]) == 0
    assert out.exists()


def test_run_byte_identical_across_invocations(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["run", "--scenario", "two-tables", "--policy", "random", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_appends_csv_rows(tmp_path, capsys):
    out = tmp_path / "m.csv"
    args = [
        "evaluate", "--scenario", "two-tables", "--policy", "random",
        "--episodes", "4", "--out", str(out),
    ]
    assert main(args) == 0
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("schema_version,policy,episodes")
    assert len(lines) == 3
    assert lines[1] == lines[2]  # same seed, identical aggregates
    row = lines[1].split(",")
    assert row[1] == "random"
    assert row[2] == "4"


def test_evaluate_unknown_policy_exits_two(tmp_path, capsys):
    code = main([
        "evaluate", "--scenario", "two-tables", "--policy", "clairvoyant",
        "--episodes", "2", "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 2
    assert "clairvoyant" in capsys.readouterr().err


def test_run_non_integer_policy_parameter_exits_two(tmp_path, capsys):
    code = main([
        "run", "--scenario", "small-1table", "--policy", "mcts:budget=1.5",
        "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "budget" in err


def test_evaluate_bad_override_exits_two(tmp_path, capsys):
    code = main([
        "evaluate", "--scenario", "two-tables", "--override", "tables=2",
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 2


def test_compare_orders_policies_and_reports_paired_errors(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--scenario", "two-tables",
        "--policy", "random", "--policy", "fcfs",
        "--episodes", "12", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "paired_diff=" in printed
    assert "se=" in printed
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    # fcfs dominates random, so it is listed first
    assert lines[1].split(",")[1] == "fcfs"
    assert lines[2].split(",")[1] == "random"


def test_compare_single_policy(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--scenario", "two-tables", "--policy", "fcfs",
        "--episodes", "3", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_compare_without_policies_exits_two(tmp_path):
    assert main(["compare", "--scenario", "two-tables", "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("flag,value", [("--episodes", "0"), ("--workers", "0"), ("--workers", "-2")])
def test_counts_below_one_exit_two(command, flag, value, tmp_path, capsys):
    code = main([
        command, "--scenario", "small-1table", "--policy", "fcfs",
        "--episodes", "2", flag, value, "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert flag in err


@pytest.fixture()
def no_episodes(monkeypatch):
    """Make every way the CLI plays episodes raise."""

    def must_not_run(*args, **kwargs):
        raise RuntimeError("episodes ran")

    for name in ("evaluate", "run_batch", "run_episode"):
        monkeypatch.setattr(cli, name, must_not_run)


OUT_COMMANDS = [("run", []), ("evaluate", ["--episodes", "2"]), ("compare", ["--episodes", "2"])]


@pytest.mark.parametrize("command,extra", OUT_COMMANDS)
def test_an_unwritable_out_exits_two_naming_the_path(
    command, extra, tmp_path, capsys, no_episodes
):
    """The check comes before any episode is played."""
    out = tmp_path / "missing" / "out"
    code = main([
        command, "--scenario", "small-1table", "--policy", "fcfs", *extra,
        "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")


@pytest.mark.parametrize("existing", [None, "policy,old row\n"])
@pytest.mark.parametrize("command,extra", OUT_COMMANDS)
def test_a_failed_run_leaves_out_as_it_was(command, extra, existing, tmp_path, no_episodes):
    out = tmp_path / "out"
    if existing is not None:
        out.write_text(existing)
    code = main([
        command, "--scenario", "small-1table", "--policy", "fcfs", *extra,
        "--out", str(out),
    ])
    assert code == 1
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing


@pytest.mark.parametrize(
    "diff,z",
    [((0.0, 0.0), "z=0.00"), ((2.5, 0.0), "z=inf"), ((-2.5, 0.0), "z=-inf"), ((1.0, 0.5), "z=2.00")],
)
def test_compare_z_keeps_the_sign_and_reads_zero_for_no_difference(
    diff, z, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "paired_difference", lambda a, b: diff)
    code = main([
        "compare", "--scenario", "small-1table", "--policy", "fcfs", "--policy", "greedy",
        "--episodes", "2", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 0
    assert f" {z}\n" in capsys.readouterr().out


def test_compare_a_policy_with_itself_reports_z_zero(tmp_path, capsys):
    code = main([
        "compare", "--scenario", "small-1table", "--policy", "greedy", "--policy", "greedy",
        "--episodes", "3", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 0
    assert "greedy - greedy: paired_diff=0.0000 se=0.0000 z=0.00\n" in capsys.readouterr().out


def test_verify_passes_on_default_instance(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_detects_tampered_penalty_base(capsys):
    code = main(["verify", "--override", "reward.penalty_bases=[2.0,1.8,1.4]"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL reward_spot_table" in out


def test_verify_cap_exceeded_exits_two(capsys):
    code = main(["verify", "--cap", "10"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "t.jsonl"
    proc = subprocess.run(
        [
            sys.executable, "-m", "restaurant_pomdp.cli", "run",
            "--scenario", "two-tables", "--policy", "greedy",
            "--out", str(out), "--seed", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "discounted_return=" in proc.stdout
