"""Command-line tests: every subcommand end to end on a 3-day synthetic scenario."""

import csv
from pathlib import Path

import pytest

from lakempc.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, cli_main

GOLDEN_DDP = Path(__file__).parent / "data" / "ddp_3day"


@pytest.fixture
def scenario_dir(tmp_path):
    assert cli_main(["synth", "--days", "3", "--out", str(tmp_path / "scn")]) == EXIT_OK
    return tmp_path / "scn"


def scenario_args(scenario_dir):
    return [
        "--scenario", str(scenario_dir / "inflow_hourly.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(scenario_dir / "demand_hourly.csv"),
        "--demand-kind", "hourly",
    ]


def test_subcommands_run_and_simulate_is_reproducible(tmp_path, scenario_dir):
    common = scenario_args(scenario_dir)
    hourly = ["simulate", "--mode", "hourly", "--horizon", "6", *common]  # short QPs keep this fast
    runs = {
        "ddp": ["ddp", *common],
        "hourly": hourly,
        "hourly-again": hourly,
        "daily": ["simulate", "--mode", "daily", *common],
    }
    for name, argv in runs.items():
        assert cli_main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK, name
    first = (tmp_path / "hourly" / "trace.csv").read_bytes()
    assert first == (tmp_path / "hourly-again" / "trace.csv").read_bytes()
    reports = [f"{name}={tmp_path / name / 'report.csv'}" for name in ("ddp", "hourly", "daily")]
    assert cli_main(["compare", *reports, "--out", str(tmp_path / "cmp")]) == EXIT_OK
    assert (tmp_path / "cmp" / "comparison.csv").exists()


def test_ddp_output_matches_golden_files(tmp_path):
    # The expected files were written by `lakempc ddp` on these inputs before
    # the backward pass reused transitions across equal hours.
    argv = [
        "ddp",
        "--scenario", str(GOLDEN_DDP / "inflow_hourly.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(GOLDEN_DDP / "demand_hourly.csv"),
        "--demand-kind", "hourly",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == EXIT_OK
    for name in ("trace.csv", "report.csv", "plotdata_level.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DDP / name).read_bytes(), name


def test_hourly_trace_csv_has_qp_iterations(tmp_path, scenario_dir):
    argv = ["simulate", "--mode", "hourly", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 24 - 6
    assert all(int(row["qp_iterations"]) >= 1 for row in rows)


def test_sweep_writes_one_row_per_weight(tmp_path, scenario_dir):
    argv = ["sweep", "--lambdas", "1e-2..1e2", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "sweep.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["lambda"]) for row in rows] == pytest.approx([1e-2, 1e-1, 1.0, 1e1, 1e2])
    for row in rows:
        for column in ("flood_hours_norm", "deficit_hours_norm"):
            assert 0.0 <= float(row[column]) <= 1.0


def test_missing_inflow_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = ["ddp", "--scenario", str(scenario_dir / "inflow_daily.csv"), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_USAGE
    assert "--inflow-kind" in capsys.readouterr().err


def test_demand_without_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = scenario_args(scenario_dir)[:-2] + ["--out", str(tmp_path)]
    assert cli_main(["ddp", *argv]) == EXIT_USAGE
    assert "--demand-kind" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mode = daily", "time_step = hourly"])
def test_removed_config_keys_rejected(tmp_path, scenario_dir, capsys, line):
    config = tmp_path / "settings.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert "unknown config keys" in capsys.readouterr().err


def test_zero_lambda_rejected(tmp_path, scenario_dir, capsys):
    argv = ["simulate", *scenario_args(scenario_dir), "--lambda", "0", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert "lam must be positive" in capsys.readouterr().err
