import json
import subprocess
import sys

import pytest

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
     'gamma="x"', 'reward.serve_scale="a"', "gamma=true"],
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
