"""Command-line tests: every subcommand end to end on a 3-day synthetic scenario."""

import csv
import dataclasses
from pathlib import Path

import pytest

from lakempc import qp, scenario
from lakempc.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _fmt, cli_main
from lakempc.ddp import DdpConfig
from lakempc.hydrology import LakeParams, storage_of_level
from lakempc.mpc import MpcConfig, run_daily

GOLDEN_DDP = Path(__file__).parent / "data" / "ddp_3day"
GOLDEN_SIMULATE = Path(__file__).parent / "data" / "simulate_3day"
GOLDEN_COMPARE = Path(__file__).parent / "data" / "compare_3day"


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


def _read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize(
    "mode_args", [["--mode", "hourly", "--horizon", "6"], ["--mode", "daily"]], ids=["hourly", "daily"]
)
def test_simulate_output_matches_golden_files(tmp_path, mode_args):
    # Days 104-106 from 1.08 m, where the flood rows bind. The expected files
    # were written by `lakempc simulate` on these inputs: the reports and
    # plot data before the storage bounds moved from MpcConfig to
    # LakeParams, trace.csv when it gained warm_start. kkt_residual prints
    # round-off noise whose digits follow the solver's rounding path, so it
    # is checked against the solver's tolerance instead of byte for byte.
    golden = GOLDEN_SIMULATE / mode_args[1]
    argv = [
        "simulate", *mode_args,
        "--scenario", str(GOLDEN_SIMULATE / "inflow_hourly.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(GOLDEN_SIMULATE / "demand_hourly.csv"),
        "--demand-kind", "hourly",
        "--s0", "level:1.08",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == EXIT_OK
    for name in ("report.csv", "plotdata_level.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    got, expected = _read_csv(tmp_path / "trace.csv"), _read_csv(golden / "trace.csv")
    assert got[0] == expected[0]
    kkt = got[0].index("kkt_residual")
    assert len(got) == len(expected)
    for row, want in zip(got[1:], expected[1:]):
        assert row[:kkt] + row[kkt + 1:] == want[:kkt] + want[kkt + 1:], row[0]
        assert 0.0 <= float(row[kkt]) <= qp.KKT_TOL, row[0]


def test_compare_output_matches_golden_files(tmp_path):
    # The expected files were written by `lakempc compare` on the hourly and
    # daily golden reports above; each run is named by its report's folder.
    reports = [str(GOLDEN_SIMULATE / mode / "report.csv") for mode in ("hourly", "daily")]
    assert cli_main(["compare", *reports, "--out", str(tmp_path)]) == EXIT_OK
    for name in ("comparison.csv", "comparison.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_COMPARE / name).read_bytes(), name


@pytest.mark.parametrize(
    "mode_args", [["--mode", "hourly", "--horizon", "6"], ["--mode", "daily"]], ids=["hourly", "daily"]
)
def test_configured_dry_threshold_holds(tmp_path, mode_args):
    # From 0.32 m in the summer the demand drags the lake down onto a dry
    # threshold raised to 0.3 m. The controller once kept its own copy of
    # Lake Como's thresholds and let the lake fall to 0.01 m (hourly) and
    # -0.01 m (daily).
    scn = scenario.synthetic_year(3, first_day=190)
    scenario.save_timeseries(tmp_path / "inflow.csv", scn.inflow_hourly, "inflow")
    scenario.save_timeseries(tmp_path / "demand.csv", scn.demand_hourly, "demand")
    config = tmp_path / "lake.cfg"
    config.write_text("dry_threshold = 0.3\n", encoding="utf-8")
    argv = [
        "simulate", *mode_args,
        "--scenario", str(tmp_path / "inflow.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(tmp_path / "demand.csv"),
        "--demand-kind", "hourly",
        "--s0", "level:0.32",
        "--config", str(config),
        "--out", str(tmp_path / "out"),
    ]
    assert cli_main(argv) == EXIT_OK
    with (tmp_path / "out" / "trace.csv").open(newline="", encoding="utf-8") as handle:
        levels = [float(row["level_m"]) for row in csv.DictReader(handle)]
    assert min(levels) >= 0.3 - 1e-9



@pytest.mark.parametrize("strict", [True, False], ids=["strict", "recovery"])
def test_strict_mode_names_the_infeasible_hour(tmp_path, scenario_dir, capsys, strict):
    # From -0.25 m the lake starts below the -0.2 m dry bound, so no release
    # plan of the first hour holds it.
    config = tmp_path / "lake.cfg"
    config.write_text("feasibility_recovery = false\n" if strict else "\n", encoding="utf-8")
    argv = [
        "simulate", "--mode", "hourly", "--horizon", "6", *scenario_args(scenario_dir),
        "--s0", "level:-0.25", "--config", str(config), "--out", str(tmp_path / "out"),
    ]
    if strict:
        assert cli_main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "hour 0" in err and "horizon step 0" in err
    else:
        assert cli_main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "line", ["horizon = six", "mef = ten", "feasibility_recovery = maybe", "lambda = abc"]
)
def test_bad_config_value_names_its_key(tmp_path, scenario_dir, capsys, line):
    config = tmp_path / "settings.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    argv = ["simulate", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert f"error: {config}: config key {line.split()[0]}: " in capsys.readouterr().err


def test_non_finite_ddp_weight_names_its_key(tmp_path, scenario_dir, capsys):
    # This once ran the backward pass on NaN costs and exited 0.
    config = tmp_path / "settings.cfg"
    config.write_text("w_flood = nan\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    message = f"error: {config}: config key w_flood: w_flood must be a finite real number, got nan"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_rejected_config_value_names_its_file_and_key(tmp_path, scenario_dir, capsys, command):
    # The value casts, and MpcConfig rejects it: the message once named
    # neither the file nor the key as written.
    config = tmp_path / "settings.cfg"
    config.write_text("horizon = 6\nlambda = -1\n", encoding="utf-8")
    argv = [command, *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    message = f"error: {config}: config key lambda: lam must be positive, got -1.0"
    assert message in capsys.readouterr().err


def test_weights_rejected_only_together_name_every_key(tmp_path, scenario_dir, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("w_flood = 0\nw_demand = 0\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    message = f"error: {config}: config keys w_flood, w_demand: objective weights must sum"
    assert message in capsys.readouterr().err


def test_flags_override_the_config_file(tmp_path, scenario_dir):
    config = tmp_path / "settings.cfg"
    config.write_text("horizon = 8\nlambda = 2\n", encoding="utf-8")
    common = ["simulate", "--mode", "hourly", *scenario_args(scenario_dir), "--horizon", "6"]
    by_both = [*common, "--lambda", "0.5", "--config", str(config), "--out", str(tmp_path / "both")]
    by_flags = [*common, "--lambda", "0.5", "--out", str(tmp_path / "flags")]
    assert cli_main(by_both) == EXIT_OK
    assert cli_main(by_flags) == EXIT_OK
    trace = (tmp_path / "both" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "flags" / "trace.csv").read_bytes()


def test_config_values_act_like_their_flags(tmp_path, scenario_dir):
    # The int cast, the float cast of "lambda" and the true-boolean cast.
    config = tmp_path / "settings.cfg"
    config.write_text("horizon = 6\nlambda = 0.5\nfeasibility_recovery = yes\n", encoding="utf-8")
    common = ["simulate", "--mode", "hourly", *scenario_args(scenario_dir)]
    by_file = [*common, "--config", str(config), "--out", str(tmp_path / "file")]
    by_flags = [*common, "--horizon", "6", "--lambda", "0.5", "--out", str(tmp_path / "flags")]
    assert cli_main(by_file) == EXIT_OK
    assert cli_main(by_flags) == EXIT_OK
    trace = (tmp_path / "file" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "flags" / "trace.csv").read_bytes()


def test_daily_inflow_file_with_the_default_demand(tmp_path):
    # Days 104-106 as a daily inflow file and no demand file: the CLI holds
    # each day's inflow over its hours, forecasts with the daily values and
    # takes the built-in demand of days 0-2.
    inflow_csv = tmp_path / "inflow_daily.csv"
    scenario.save_timeseries(
        inflow_csv, scenario.synthetic_year(3, first_day=104).inflow_daily, "inflow"
    )
    argv = [
        "simulate", "--mode", "daily", "--scenario", str(inflow_csv), "--inflow-kind", "daily",
        "--s0", "level:1.08", "--out", str(tmp_path / "out"),
    ]
    assert cli_main(argv) == EXIT_OK
    inflow = scenario.load_timeseries(inflow_csv, "inflow_daily")
    scn = scenario.Scenario(
        inflow_hourly=inflow,
        demand_hourly=scenario.expand_daily(scenario.default_daily_demand(3)),
        inflow_daily=inflow[::24],
    )
    params = LakeParams()
    trace = run_daily(params, MpcConfig(), scn, storage_of_level(params, 1.08))
    with (tmp_path / "out" / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 72
    assert [row["release_m3s"] for row in rows] == [_fmt(r) for r in trace.releases]


def test_hourly_trace_csv_has_qp_iterations(tmp_path, scenario_dir):
    argv = ["simulate", "--mode", "hourly", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 24 - 6
    assert all(int(row["qp_iterations"]) >= 1 for row in rows)
    # Then whether the solve took a candidate working set: the first hour has none.
    assert list(rows[0])[-2:] == ["qp_iterations", "warm_start"]
    assert {row["warm_start"] for row in rows} == {"0", "1"} and rows[0]["warm_start"] == "0"
    assert all(row["qp_iterations"] == "1" for row in rows if row["warm_start"] == "1")


def test_sweep_writes_one_row_per_weight(tmp_path, scenario_dir):
    argv = ["sweep", "--lambdas", "1e-2..1e2", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "sweep.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["lambda"]) for row in rows] == pytest.approx([1e-2, 1e-1, 1.0, 1e1, 1e2])
    for row in rows:
        for column in ("flood_hours_norm", "deficit_hours_norm"):
            assert 0.0 <= float(row[column]) <= 1.0


@pytest.mark.parametrize("spec", ["0..1e2", "-1e-2..1e2", "1e3..1e400", ",", "1,nan", "1,abc"])
def test_bad_sweep_weights_are_a_runtime_error(tmp_path, scenario_dir, capsys, spec):
    # These once escaped as OverflowError, or failed inside the sweep on a
    # NaN exponent or an empty array.
    # With "=", argparse takes a leading "-" as part of the value.
    argv = ["sweep", f"--lambdas={spec}", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: --lambdas {spec!r}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_inflow_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = ["ddp", "--scenario", str(scenario_dir / "inflow_daily.csv"), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_USAGE
    assert "--inflow-kind" in capsys.readouterr().err


def test_demand_without_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = scenario_args(scenario_dir)[:-2] + ["--out", str(tmp_path)]
    assert cli_main(["ddp", *argv]) == EXIT_USAGE
    assert "--demand-kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "mode = daily",
        "time_step = hourly",
        "s_min = 3e7",
        "tie_break_weight = 1e-3",
        "demand_ref = 50",
        "storage_range = (0, 1e8)",
    ],
)
def test_removed_config_keys_rejected(tmp_path, scenario_dir, capsys, line):
    config = tmp_path / "settings.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert "unknown config keys" in capsys.readouterr().err


def test_config_classes_share_no_field_name():
    # The CLI routes each config key to every class with that field, so a
    # shared name would set two values at once.
    names = [{f.name for f in dataclasses.fields(cls)} for cls in (LakeParams, MpcConfig, DdpConfig)]
    assert sum(len(group) for group in names) == len(set().union(*names))


def test_zero_lambda_rejected(tmp_path, scenario_dir, capsys):
    argv = ["simulate", *scenario_args(scenario_dir), "--lambda", "0", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert "lam must be positive" in capsys.readouterr().err
