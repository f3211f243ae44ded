"""Command-line tests: every subcommand end to end on a 3-day synthetic scenario."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    reference_write_comparison_files,
    reference_write_level_plotdata,
    reference_write_report_files,
    reference_write_sweep_files,
    reference_write_trace_csv,
)
from lakempc import metrics, qp, scenario
from lakempc.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _fmt,
    cli_main,
    parse_config_file,
    read_report,
    write_comparison_files,
    write_level_plotdata,
    write_report_files,
    write_sweep_files,
    write_trace_csv,
)
from lakempc.ddp import DdpConfig
from lakempc.hydrology import LakeParams, storage_of_level
from lakempc.mpc import MpcConfig, run_daily
from lakempc.trace import ClosedLoopTrace

GOLDEN_DDP = Path(__file__).parent / "data" / "ddp_3day"
GOLDEN_SIMULATE = Path(__file__).parent / "data" / "simulate_3day"
GOLDEN_COMPARE = Path(__file__).parent / "data" / "compare_3day"
GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_3day"


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
    # LakeParams, trace.csv when it gained recovery. kkt_residual prints
    # round-off noise whose digits follow the solver's rounding path, so it
    # is checked against the solver's tolerance instead of byte for byte.
    # So do the slack cells that hold round-off (e.g. -6.13317e-17; 20 in
    # the hourly file, 73 in the daily one): a slack cell is compared within
    # an absolute 1e-12 when both sides lie below 1e-12, and every other
    # cell byte for byte.
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
    slacks = [got[0].index(name) for name in ("slack_flood_m", "slack_demand_m3s")]
    assert len(got) == len(expected)
    for row, want in zip(got[1:], expected[1:]):
        assert len(row) == len(want), row[0]
        assert 0.0 <= float(row[kkt]) <= qp.KKT_TOL, row[0]
        for i, (cell, wanted) in enumerate(zip(row, want)):
            if i in slacks and max(abs(float(cell)), abs(float(wanted))) < 1e-12:
                assert abs(float(cell) - float(wanted)) <= 1e-12, (row[0], got[0][i])
            elif i != kkt:
                assert cell == wanted, (row[0], got[0][i])


def test_compare_output_matches_golden_files(tmp_path):
    # The expected files were written by `lakempc compare` on the hourly and
    # daily golden reports above; each run is named by its report's folder.
    reports = [str(GOLDEN_SIMULATE / mode / "report.csv") for mode in ("hourly", "daily")]
    assert cli_main(["compare", *reports, "--out", str(tmp_path)]) == EXIT_OK
    for name in ("comparison.csv", "comparison.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_COMPARE / name).read_bytes(), name


def test_sweep_output_matches_golden_files(tmp_path):
    # Days 182-184 from 0.29 m, where the summer demand runs short. The
    # expected files were written by `lakempc sweep` on these inputs when
    # each sweep file still had its own csv.writer.
    argv = [
        "sweep", "--lambdas", "1e-2..1e2", "--horizon", "6",
        "--scenario", str(GOLDEN_SWEEP / "inflow_hourly.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(GOLDEN_SWEEP / "demand_hourly.csv"),
        "--demand-kind", "hourly",
        "--s0", "level:0.29",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == EXIT_OK
    for name in ("sweep.csv", "plotdata_sweep.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_SWEEP / name).read_bytes(), name


def test_sweep_areas_leave_out_round_off(tmp_path):
    # Days 104-106 from 1.08 m: no hour runs short of the demand, but at
    # lambda = 10 one hour's release falls 7.1e-15 under it, far below the
    # deficit tolerance. That hour counts no deficit hour and no area.
    argv = [
        "sweep", "--lambdas", "1e-2..1e2", "--horizon", "6",
        "--scenario", str(GOLDEN_SIMULATE / "inflow_hourly.csv"),
        "--inflow-kind", "hourly",
        "--demand", str(GOLDEN_SIMULATE / "demand_hourly.csv"),
        "--demand-kind", "hourly",
        "--s0", "level:1.08",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == EXIT_OK
    with (tmp_path / "sweep.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["lambda"] for row in rows] == ["0.01", "0.1", "1", "10", "100"]
    for row in rows:
        assert (row["demand_hours"], row["demand_area"]) == ("0", "0"), row["lambda"]


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
def test_strict_mode_names_the_infeasible_hour(tmp_path, scenario_dir, strict):
    # From -0.25 m the lake starts below the -0.2 m dry bound, so no release
    # plan of the first hour holds it. A strict mode once stopped such a run
    # with an error naming the hour. Every step now recovers, and the trace's
    # recovery column names the hours: the run from an empty config file
    # and the one without a file both mark hour 0.
    config = tmp_path / "lake.cfg"
    config.write_text("\n", encoding="utf-8")
    argv = [
        "simulate", "--mode", "hourly", "--horizon", "6", *scenario_args(scenario_dir),
        "--s0", "level:-0.25", "--out", str(tmp_path / "out"),
    ]
    assert cli_main(argv if strict else [*argv, "--config", str(config)]) == EXIT_OK
    with (tmp_path / "out" / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["recovery"] == "1"


@pytest.mark.parametrize(
    "line", ["horizon = six", "mef = ten", "w_demand = heavy", "lambda = abc"]
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


def test_key_rejected_alone_is_named_with_its_own_message(tmp_path, scenario_dir, capsys):
    # w_flood is rejected alone; the build with both keys rejects w_demand
    # first. The error once named w_flood with the message about w_demand.
    config = tmp_path / "settings.cfg"
    config.write_text("w_flood = -1\nw_demand = nan\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"error: {config}: config key w_flood: objective weights must be nonnegative" in err
    assert "w_demand" not in err


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
    # The int cast and the float cast of "lambda".
    config = tmp_path / "settings.cfg"
    config.write_text("horizon = 6\nlambda = 0.5\n", encoding="utf-8")
    common = ["simulate", "--mode", "hourly", *scenario_args(scenario_dir)]
    by_file = [*common, "--config", str(config), "--out", str(tmp_path / "file")]
    by_flags = [*common, "--horizon", "6", "--lambda", "0.5", "--out", str(tmp_path / "flags")]
    assert cli_main(by_file) == EXIT_OK
    assert cli_main(by_flags) == EXIT_OK
    trace = (tmp_path / "file" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "flags" / "trace.csv").read_bytes()


def test_daily_inflow_file_with_the_default_demand(tmp_path):
    # Days 104-106 as a daily inflow file and no demand file: the CLI holds
    # each day's inflow over its hours, forecasts with the day means and
    # takes the built-in demand of days 0-2.
    inflow_csv = tmp_path / "inflow_daily.csv"
    scenario.save_timeseries(
        inflow_csv, scenario.synthetic_year(3, first_day=104).inflow_hourly[::24], "inflow"
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
    )
    params = LakeParams()
    trace = run_daily(params, MpcConfig(), scn, storage_of_level(params, 1.08))
    with (tmp_path / "out" / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 72
    assert [row["release_m3s"] for row in rows] == [_fmt(r) for r in trace.releases]


def test_daily_run_of_an_intraday_scenario_matches_the_api(tmp_path):
    # The paper's hourly-vs-daily experiment under intra-day inflow, days
    # 190-192 from 0.0 m, where the dry rows cap the day's plan. Both the
    # API and the CLI forecast each day's mean hourly inflow; the scenario
    # from synthetic_year once carried daily values 15.07 m^3/s below those
    # means, and the API's daily plans followed them.
    scn = scenario.synthetic_year(3, first_day=190, intraday=scenario.GaussianInflowParams())
    scenario.save_timeseries(tmp_path / "inflow.csv", scn.inflow_hourly, "inflow")
    scenario.save_timeseries(tmp_path / "demand.csv", scn.demand_hourly, "demand")
    argv = [
        "simulate", "--mode", "daily",
        "--scenario", str(tmp_path / "inflow.csv"), "--inflow-kind", "hourly",
        "--demand", str(tmp_path / "demand.csv"), "--demand-kind", "hourly",
        "--s0", "level:0.0", "--out", str(tmp_path / "out"),
    ]
    assert cli_main(argv) == EXIT_OK
    params = LakeParams()
    trace = run_daily(params, MpcConfig(), scn, storage_of_level(params, 0.0))
    rows = _read_csv(tmp_path / "out" / "trace.csv")
    releases = [float(row[rows[0].index("release_m3s")]) for row in rows[1:]]
    # The files hold 6 significant digits, so the runs agree to about that.
    assert releases == pytest.approx(trace.releases, rel=1e-5)


def test_synth_writes_the_day_means_as_daily_inflow(tmp_path):
    # inflow_daily.csv holds each day's mean hourly inflow, the forecast the
    # daily controller plans on; with the intra-day term that is not the
    # daily value the term is added to.
    assert cli_main(["synth", "--days", "3", "--intraday", "--out", str(tmp_path)]) == EXIT_OK
    hourly = scenario.load_timeseries(tmp_path / "inflow_hourly.csv", "inflow_hourly")
    daily = scenario.load_timeseries(tmp_path / "inflow_daily.csv", "inflow_daily")[::24]
    assert daily == pytest.approx(hourly.reshape(3, 24).mean(axis=1), rel=1e-5)


def test_hourly_trace_csv_has_qp_iterations(tmp_path, scenario_dir):
    argv = ["simulate", "--mode", "hourly", "--horizon", "6", *scenario_args(scenario_dir)]
    assert cli_main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "trace.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 24 - 6
    assert all(int(row["qp_iterations"]) >= 1 for row in rows)
    # Then whether the solve took a candidate working set: the first hour has
    # none. Last whether its step recovered: from 0.4 m in January none does.
    assert list(rows[0])[-3:] == ["qp_iterations", "warm_start", "recovery"]
    assert {row["warm_start"] for row in rows} == {"0", "1"} and rows[0]["warm_start"] == "0"
    assert all(row["qp_iterations"] == "1" for row in rows if row["warm_start"] == "1")
    assert {row["recovery"] for row in rows} == {"0"}


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


@pytest.mark.parametrize("s0", ["level:abc", "12x", "level:", ""])
def test_s0_not_a_number_names_the_flag(tmp_path, scenario_dir, capsys, s0):
    # It once printed only "could not convert string to float".
    argv = ["ddp", *scenario_args(scenario_dir), f"--s0={s0}", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: --s0 must be m^3 or level:<m>, got {s0!r}\n"


@pytest.mark.parametrize("s0", ["nan", "level:nan", "inf"])
def test_non_finite_s0_is_a_runtime_error(tmp_path, scenario_dir, capsys, s0):
    # The DDP run once exited 0 and wrote a trace and report of NaN or inf.
    argv = ["ddp", *scenario_args(scenario_dir), f"--s0={s0}", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: s0 must be finite, got ") and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", [["ddp"], ["simulate", "--horizon", "6"]])
def test_negative_s0_is_a_runtime_error_naming_s0(tmp_path, scenario_dir, capsys, command):
    # The DDP run once failed in the plant with "storage must be finite and
    # nonnegative, got -5.0", naming neither s0 nor the hour.
    argv = [*command, *scenario_args(scenario_dir), "--s0=-5", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: s0 must be ") and "-5.0" in err and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--days", "0", "n_days"), ("--jitter", "-0.5", "jitter"), ("--jitter", "nan", "jitter")],
)
def test_bad_synth_argument_is_a_runtime_error(tmp_path, capsys, flag, value, name):
    # --days 0 once ended in an IndexError traceback; a negative or NaN
    # jitter was taken as 0.
    assert cli_main(["synth", f"{flag}={value}", "--out", str(tmp_path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1


def test_missing_inflow_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = ["ddp", "--scenario", str(scenario_dir / "inflow_daily.csv"), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_USAGE
    assert "--inflow-kind" in capsys.readouterr().err


def test_demand_without_kind_is_usage_error(tmp_path, scenario_dir, capsys):
    argv = scenario_args(scenario_dir)[:-2] + ["--out", str(tmp_path)]
    assert cli_main(["ddp", *argv]) == EXIT_USAGE
    assert "--demand-kind" in capsys.readouterr().err


def test_demand_kind_without_demand_is_usage_error(tmp_path, scenario_dir, capsys):
    # It once ran on the built-in demand profile, the flag ignored.
    args = scenario_args(scenario_dir)
    argv = [*args[:4], *args[6:], "--out", str(tmp_path)]
    assert "--demand" not in argv
    assert cli_main(["ddp", *argv]) == EXIT_USAGE
    assert "error: --demand-kind needs --demand" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "line",
    [
        "mode = daily",
        "time_step = hourly",
        "s_min = 3e7",
        "tie_break_weight = 1e-3",
        "demand_ref = 50",
        "storage_range = (0, 1e8)",
        # Recovery is the only dry-bound policy.
        "feasibility_recovery = false",
        # The DDP has no dry term.
        "w_dry = 0",
    ],
)
def test_removed_config_keys_rejected(tmp_path, scenario_dir, capsys, line):
    config = tmp_path / "settings.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    argv = ["ddp", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    key = line.split()[0]
    assert f"error: {config}: unknown config keys: {key}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("horizon = 6\n# a comment\nhorizon = 12\n", "line 3: config key horizon is given twice"),
        ("lam = 2\nlambda = 0.5\n", "config keys lam, lambda: give one of them, not both"),
    ],
    ids=["repeated", "lam-and-lambda"],
)
def test_ambiguous_config_file_rejected(tmp_path, scenario_dir, capsys, text, message):
    # Both once ran silently with the value given last.
    config = tmp_path / "settings.cfg"
    config.write_text(text, encoding="utf-8")
    argv = ["simulate", *scenario_args(scenario_dir), "--config", str(config), "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "trace.csv").exists()


def test_config_classes_share_no_field_name():
    # The CLI routes each config key to every class with that field, so a
    # shared name would set two values at once.
    names = [{f.name for f in dataclasses.fields(cls)} for cls in (LakeParams, MpcConfig, DdpConfig)]
    assert sum(len(group) for group in names) == len(set().union(*names))


def test_zero_lambda_rejected(tmp_path, scenario_dir, capsys):
    argv = ["simulate", *scenario_args(scenario_dir), "--lambda", "0", "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert "lam must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lambda", "-1", "lam must be positive, got -1.0"),
        ("--horizon", "0", "horizon must be at least 1"),
    ],
)
def test_rejected_flag_value_names_the_flag(tmp_path, scenario_dir, capsys, flag, value, message):
    # The config file's values are valid; only the flag's is not.
    config = tmp_path / "settings.cfg"
    config.write_text("horizon = 6\nlambda = 2\n", encoding="utf-8")
    argv = ["simulate", *scenario_args(scenario_dir), "--config", str(config), flag, value,
            "--out", str(tmp_path)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"


def _edited_report(tmp_path, edit):
    """The hourly golden report.csv with its lines edited, in tmp_path."""
    lines = (GOLDEN_SIMULATE / "hourly" / "report.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "edited" / "report.csv"
    path.parent.mkdir()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [line for line in lines if line != "dry,area,0"], "metric dry,area is missing"),
        (lambda lines: [line.replace("flood,", "flod,", 1) for line in lines], "unknown metric flod,rmse"),
        (lambda lines: [*lines, "flood,rmse,5"], "metric flood,rmse is given twice"),
        (lambda lines: [*lines, "flood,bogus,1"], "unknown metric flood,bogus"),
        (
            lambda lines: [line.replace("flood,hours,6", "flood,hours,inf") for line in lines],
            "cannot convert float infinity to integer",
        ),
    ],
    ids=["lacks", "misspelt-block", "repeats", "invents", "infinite-hours"],
)
def test_compare_rejects_a_report_that_is_not_one_report(tmp_path, capsys, edit, message):
    # A missing row or unknown block was a KeyError traceback, and an
    # infinite hour count an OverflowError one; a repeated row replaced the
    # real value, and an unknown metric was ignored.
    edited = _edited_report(tmp_path, edit)
    argv = ["compare", str(GOLDEN_SIMULATE / "daily" / "report.csv"), str(edited),
            "--out", str(tmp_path / "out")]
    assert cli_main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {edited}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_compare_block_given_twice_rejected(tmp_path, capsys):
    # It once wrote every flood row twice.
    reports = [str(GOLDEN_SIMULATE / mode / "report.csv") for mode in ("hourly", "daily")]
    argv = ["compare", *reports, "--blocks", "flood,flood", "--out", str(tmp_path / "out")]
    assert cli_main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: metric block 'flood' given twice\n"
    assert not (tmp_path / "out").exists()


def test_report_and_config_files_may_begin_with_a_byte_order_mark(tmp_path):
    # Spreadsheet exports begin with one; the files read as the plain ones.
    bom_report = tmp_path / "hourly" / "report.csv"
    bom_report.parent.mkdir()
    bom_report.write_bytes(b"\xef\xbb\xbf" + (GOLDEN_SIMULATE / "hourly" / "report.csv").read_bytes())
    argv = ["compare", str(bom_report), str(GOLDEN_SIMULATE / "daily" / "report.csv"),
            "--out", str(tmp_path / "out")]
    assert cli_main(argv) == EXIT_OK
    for name in ("comparison.csv", "comparison.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN_COMPARE / name).read_bytes(), name
    config = tmp_path / "settings.cfg"
    config.write_text("\ufeffhorizon = 6\n", encoding="utf-8")
    assert parse_config_file(config) == {"horizon": "6"}


def _awkward_floats(rng, size):
    """Floats of every magnitude and sign, with the values whose text is
    special: NaN, +-inf, -0.0 and the extremes 1e-300 and 1e300."""
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-320.0, 308.0, size)
    whole = rng.random(size) < 0.3
    values[whole] = np.round(rng.uniform(-1e7, 1e7, whole.sum()))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300, 0.0, 1234567.0, 5e-324])
    picks = rng.random(size) < 0.2
    values[picks] = rng.choice(special, int(picks.sum()))
    values[: special.size] = special[: values.size]
    return values


def _awkward_trace(rng, n_hours, solver_columns):
    """A trace whose every float column holds _awkward_floats; with
    solver_columns, also int iteration counts and bool flags, as an MPC run
    records them, and none of them without, as the DDP forward pass."""
    series = {
        name: _awkward_floats(rng, n_hours)
        for name in ("levels", "releases", "commands", "inflows", "demands")
    }
    extra = {}
    if solver_columns:
        extra = {
            "slack_flood": _awkward_floats(rng, n_hours),
            "slack_demand": _awkward_floats(rng, n_hours),
            "kkt_residuals": _awkward_floats(rng, n_hours),
            "solve_iterations": rng.integers(0, 10**6, n_hours),
            "warm_starts": rng.random(n_hours) < 0.5,
            "recovery": rng.random(n_hours) < 0.5,
        }
    return ClosedLoopTrace(storages=_awkward_floats(rng, n_hours + 1), **series, **extra)


def _awkward_reports(rng, n):
    """n reports whose every metric holds _awkward_floats, but for the hour
    counts, which hold ints."""
    template = metrics.report_rows(read_report(GOLDEN_DDP / "report.csv"))
    keys = [(block, key) for block, key, _, _ in template]
    reports = []
    for values in _awkward_floats(rng, n * len(keys)).reshape(n, len(keys)):
        rows = [
            (block, key, rng.integers(0, 10**6) if key == "hours" else value)
            for (block, key), value in zip(keys, values)
        ]
        reports.append(metrics.report_from_rows(rows))
    return reports


@pytest.mark.parametrize("solver_columns", [False, True], ids=["ddp", "mpc"])
@pytest.mark.parametrize("n_hours", [1, 1000, 2345])
def test_csv_writers_match_the_csv_module(tmp_path, solver_columns, n_hours):
    # The writers format whole chunks of rows at once; each file must equal
    # csv.writer's rows of _fmt strings byte for byte, across chunk edges.
    rng = np.random.default_rng(n_hours)
    trace = _awkward_trace(rng, n_hours, solver_columns)
    write_trace_csv(tmp_path / "trace.csv", trace)
    reference_write_trace_csv(tmp_path / "expected.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    for params in (LakeParams(), LakeParams(level_offset=-1, dry_threshold=0, flood_threshold=2)):
        write_level_plotdata(tmp_path / "level.csv", trace, params)
        reference_write_level_plotdata(tmp_path / "expected_level.csv", trace, params)
        assert (tmp_path / "level.csv").read_bytes() == (tmp_path / "expected_level.csv").read_bytes()
    # The tables: the sweep has one row per weight (n_hours of them), the
    # comparison one column per run, named as a user may name a run: with
    # a comma or a quote, which csv.writer quotes, and one name twice.
    got, expected = tmp_path / "got", tmp_path / "expected"
    got.mkdir()
    expected.mkdir()
    reports = _awkward_reports(rng, n_hours)
    sweep = metrics.SweepResult(
        lambdas=list(_awkward_floats(rng, n_hours)),
        reports=reports,
        flood_hours_norm=_awkward_floats(rng, n_hours),
        deficit_hours_norm=_awkward_floats(rng, n_hours),
    )
    names = ["a,b", 'say "hi"', "a,b", "plain"]
    table = metrics.ComparisonTable(
        names=names,
        rows=[
            metrics.ComparisonRow(label, list(_awkward_floats(rng, 4)), list(_awkward_floats(rng, 3)))
            for _, _, label, _ in metrics.report_rows(reports[0])
        ],
    )
    for directory, write_report, write_sweep, write_comparison in (
        (got, write_report_files, write_sweep_files, write_comparison_files),
        (expected, reference_write_report_files, reference_write_sweep_files,
         reference_write_comparison_files),
    ):
        write_report(directory, reports[-1])
        write_sweep(directory, sweep)
        write_comparison(directory, table)
    for name in ("report.csv", "report.txt", "sweep.csv", "plotdata_sweep.csv",
                 "comparison.csv", "comparison.txt"):
        assert (got / name).read_bytes() == (expected / name).read_bytes(), name
    assert _read_csv(got / "comparison.csv")[0] == [
        "metric", *names, *[f"reldiff_{name}" for name in names[1:]]
    ]
