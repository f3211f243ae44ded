"""Command-line interface.

Subcommands:
    simulate  closed-loop controller run (hourly receding-horizon or daily
              open-loop), writing a trace CSV, a report and level plot data
    sweep     one hourly run per demand weight over a grid, with the
              normalized violation-hour columns
    ddp       offline dynamic-programming benchmark over the whole scenario
    compare   side-by-side table of previously written reports
    synth     write the documented synthetic scenario as CSV files

Every CSV table (trace, report, level plot data, sweep, comparison) is
written by one function, _write_columns: numbers to 6 significant digits,
so identical inputs give byte-identical files. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import ddp as ddp_mod
from . import metrics
from . import mpc as mpc_mod
from . import scenario as scenario_mod
from .hydrology import LakeParams, storage_of_level
from .trace import ClosedLoopTrace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return f"{float(value):.6g}"


_CSV_CHUNK_ROWS = 1000


def _write_columns(path, columns: list[tuple[str, object]]) -> None:
    """Write (name, column) pairs as a CSV file, byte for byte what csv.writer
    writes for the names and then rows of _fmt strings, \r\n line ends.

    A column is an array or a sequence of equal length: int and bool
    columns are written with %d, float columns with %.6g and string columns
    with %s. The names go through csv.writer, so a run name with a comma is
    quoted; a string cell is written as it is, so it may only be one of the
    package's block and metric names and labels, which need no quoting. The
    columns are pairs, not a dict, so two compared runs of the same name keep
    both their columns. Each row is one % over the columns' .tolist()
    values, joined ~1000 rows at a time, so the whole file is never held as
    one string.
    """
    arrays = [np.asarray(column) for _, column in columns]
    row_fmt = ",".join(
        "%d" if a.dtype.kind in "biu" else "%s" if a.dtype.kind == "U" else "%.6g" for a in arrays
    ) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow([name for name, _ in columns])
        for start in range(0, len(arrays[0]), _CSV_CHUNK_ROWS):
            chunk = [a[start:start + _CSV_CHUNK_ROWS].tolist() for a in arrays]
            handle.write("".join([row_fmt % row for row in zip(*chunk)]))


# ---------------------------------------------------------------------------
# configuration files: plain "key = value" lines. Each key is a field of
# exactly one of LakeParams, MpcConfig and DdpConfig, which share no field
# name, so a key sets one value ("lambda" is accepted for "lam"). Every
# field is an int or a float. A file gives each key, and lam or lambda, at
# most once. The lake's thresholds live only in LakeParams; the MPC derives
# its storage bounds from them.


def _cast_like(default, raw: str):
    return int(raw) if isinstance(default, int) else float(raw)


def parse_config_file(path) -> dict[str, str]:
    """The file's entries, key -> value. ValueError naming the file and the
    line for a line that is not 'key = value' or a key given before."""
    entries: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        for sep in ("=", ":"):
            if sep in text:
                key, _, value = text.partition(sep)
                key = key.strip()
                if key in entries:
                    raise ValueError(f"{path}: line {line_no}: config key {key} is given twice")
                entries[key] = value.strip()
                break
        else:
            raise ValueError(f"{path}: line {line_no}: expected 'key = value', got {line!r}")
    return entries


def build_settings(overrides: dict[str, str]):
    """The LakeParams, MpcConfig and DdpConfig that the override keys set.

    A value that does not cast, or that its dataclass rejects, raises a
    ValueError naming the key as it was written, and so do lam and lambda
    given together.
    """
    if "lam" in overrides and "lambda" in overrides:
        raise ValueError("config keys lam, lambda: give one of them, not both")
    overrides = dict(overrides)
    written = {"lam": "lambda"} if "lambda" in overrides else {}
    if "lambda" in overrides:
        overrides["lam"] = overrides.pop("lambda")
    targets = [
        (LakeParams, {}),
        (mpc_mod.MpcConfig, {}),
        (ddp_mod.DdpConfig, {}),
    ]
    defaults = [cls() for cls, _ in targets]
    known = set()
    for (cls, kwargs), default in zip(targets, defaults):
        for field in dataclasses.fields(cls):
            known.add(field.name)
            if field.name in overrides:
                try:
                    kwargs[field.name] = _cast_like(getattr(default, field.name), overrides[field.name])
                except ValueError as exc:
                    raise ValueError(f"config key {written.get(field.name, field.name)}: {exc}") from None
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return tuple(_build(cls, kwargs, written) for cls, kwargs in targets)


def _build(cls, kwargs: dict, written: dict):
    """cls(**kwargs). When it raises ValueError, the first key whose value
    alone is rejected is named with that rejection's own message; when
    every value passes alone (they fail only together), every key given is
    named with the message of the build with all of them."""
    try:
        return cls(**kwargs)
    except ValueError as joint:
        for key, value in kwargs.items():
            try:
                cls(**{key: value})
            except ValueError as alone:
                raise ValueError(f"config key {written.get(key, key)}: {alone}") from None
        names = ", ".join(written.get(key, key) for key in kwargs)
        raise ValueError(f"config key{'s' if len(kwargs) > 1 else ''} {names}: {joint}") from None


def _settings(args):
    """build_settings on the entries of args.config, if any; an error names the file."""
    if not args.config:
        return build_settings({})
    entries = parse_config_file(args.config)
    try:
        return build_settings(entries)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None


def parse_s0(spec: str, params: LakeParams) -> float:
    """Initial storage: either cubic meters or 'level:<m>'. ValueError
    naming --s0 when the number is not one."""
    level = spec.startswith("level:")
    try:
        value = float(spec[len("level:"):] if level else spec)
    except ValueError:
        raise ValueError(f"--s0 must be m^3 or level:<m>, got {spec!r}") from None
    return storage_of_level(params, value) if level else value


# ---------------------------------------------------------------------------
# file IO


def load_scenario(args, params: LakeParams) -> scenario_mod.Scenario:
    inflow = scenario_mod.load_timeseries(args.scenario, f"inflow_{args.inflow_kind}")
    if args.demand:
        demand = scenario_mod.load_timeseries(args.demand, f"demand_{args.demand_kind}")
    else:
        demand = scenario_mod.expand_daily(
            scenario_mod.default_daily_demand(inflow.size // scenario_mod.HOURS_PER_DAY)
        )
    if demand.size != inflow.size:
        raise ValueError(
            f"inflow covers {inflow.size} hours but demand covers {demand.size}"
        )
    return scenario_mod.Scenario(
        inflow_hourly=inflow,
        demand_hourly=demand,
        label=Path(args.scenario).stem,
    )


def write_trace_csv(path, trace: ClosedLoopTrace) -> None:
    """The hour, the plant columns, then each solver column the trace has
    (the DDP's trace has none)."""
    columns = [
        ("t", np.arange(trace.n_hours)),
        ("inflow_m3s", trace.inflows),
        ("demand_m3s", trace.demands),
        ("command_m3s", trace.commands),
        ("release_m3s", trace.releases),
        ("storage_start_m3", trace.storages[:-1]),
        ("storage_end_m3", trace.storages[1:]),
        ("level_m", trace.levels),
        ("slack_flood_m", trace.slack_flood),
        ("slack_demand_m3s", trace.slack_demand),
        ("kkt_residual", trace.kkt_residuals),
        ("qp_iterations", trace.solve_iterations),
        ("warm_start", trace.warm_starts),
        ("recovery", trace.recovery),
    ]
    _write_columns(path, [(name, series) for name, series in columns if series is not None])


def write_report_files(outdir: Path, report: metrics.RunReport) -> None:
    blocks, keys, labels, values = zip(*metrics.report_rows(report))
    _write_columns(outdir / "report.csv", [("block", blocks), ("metric", keys), ("value", values)])
    width = max(map(len, labels)) + 2
    text = "".join(f"{label:<{width}}{_fmt(value)}\n" for label, value in zip(labels, values))
    (outdir / "report.txt").write_text(text, encoding="utf-8")


def read_report(path) -> metrics.RunReport:
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["block", "metric", "value"]:
            raise ValueError(f"{path}: not a report CSV (bad header {header!r})")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"{path}: malformed report row {row!r}")
            rows.append((row[0], row[1], float(row[2])))
    return metrics.report_from_rows(rows, label=Path(path).stem)


def write_level_plotdata(path, trace: ClosedLoopTrace, params: LakeParams) -> None:
    n = trace.n_hours
    _write_columns(path, [
        ("t", np.arange(n)),
        ("level_m", trace.levels),
        ("flood_threshold_m", np.full(n, params.flood_threshold)),
        ("dry_threshold_m", np.full(n, params.dry_threshold)),
    ])


def write_sweep_files(outdir: Path, sweep: metrics.SweepResult) -> None:
    """sweep.csv: one row per weight, its report's metrics and the normalized
    violation hours; plotdata_sweep.csv: the weight and the normalized hours."""
    tables = [metrics.report_rows(report) for report in sweep.reports]
    metric_columns = [
        (f"{block}_{key}", [rows[i][3] for rows in tables])
        for i, (block, key, _, _) in enumerate(tables[0])
    ]
    lambdas = ("lambda", sweep.lambdas)
    norms = [
        ("flood_hours_norm", sweep.flood_hours_norm),
        ("deficit_hours_norm", sweep.deficit_hours_norm),
    ]
    _write_columns(outdir / "sweep.csv", [lambdas, *metric_columns, *norms])
    _write_columns(outdir / "plotdata_sweep.csv", [lambdas, *norms])


def write_comparison_files(outdir: Path, table: metrics.ComparisonTable) -> None:
    values = [(name, [row.values[j] for row in table.rows]) for j, name in enumerate(table.names)]
    rel_diffs = [
        (f"reldiff_{name}", [row.rel_diffs[j] for row in table.rows])
        for j, name in enumerate(table.names[1:])
    ]
    labels = ("metric", [row.label for row in table.rows])
    _write_columns(outdir / "comparison.csv", [labels, *values, *rel_diffs])
    (outdir / "comparison.txt").write_text(table.format_text(), encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def _parse_lambdas(spec: str) -> list[float]:
    """The weights of --lambdas: a comma-separated list, or lo..hi for every
    power of ten from lo to hi. ValueError naming spec unless it gives at
    least one weight and every weight or endpoint is positive and finite."""
    is_range = ".." in spec
    parts = spec.split("..", 1) if is_range else [p for p in spec.split(",") if p.strip()]
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"--lambdas {spec!r}: not a number") from None
    if not values:
        raise ValueError(f"--lambdas {spec!r} names no weight")
    if not all(0.0 < v < np.inf for v in values):
        raise ValueError(f"--lambdas {spec!r}: weights must be positive and finite")
    if not is_range:
        return values
    lo_exp, hi_exp = np.log10(values)
    if abs(lo_exp - round(lo_exp)) > 1e-9 or abs(hi_exp - round(hi_exp)) > 1e-9:
        raise ValueError(f"--lambdas {spec!r}: endpoints must be powers of ten, e.g. 1e-4..1e4")
    lo_exp, hi_exp = int(round(lo_exp)), int(round(hi_exp))
    if hi_exp < lo_exp:
        raise ValueError(f"--lambdas {spec!r}: empty weight range")
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def _prepare_out(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _inputs(args):
    """A run command's params, MPC config, DDP config, scenario and s0, built
    and checked in that order. The --lambda and --horizon flags given
    override the config file."""
    params, mpc_config, ddp_config = _settings(args)
    flags = {"lam": getattr(args, "lam", None), "horizon": getattr(args, "horizon", None)}
    given = {key: value for key, value in flags.items() if value is not None}
    mpc_config = dataclasses.replace(mpc_config, **given)
    return params, mpc_config, ddp_config, load_scenario(args, params), parse_s0(args.s0, params)


def _write_run(command: str, args, trace: ClosedLoopTrace, params: LakeParams) -> int:
    """Write one run's trace.csv, report files and level plot data to
    args.out, and say so."""
    out = _prepare_out(args.out)
    write_trace_csv(out / "trace.csv", trace)
    write_report_files(out, metrics.compute_report(params, trace))
    write_level_plotdata(out / "plotdata_level.csv", trace, params)
    print(f"{command}: wrote trace.csv, report.csv, report.txt, plotdata_level.csv to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, config, _, scn, s0 = _inputs(args)
    run = mpc_mod.run_hourly if args.mode == "hourly" else mpc_mod.run_daily
    return _write_run("simulate", args, run(params, config, scn, s0), params)


def cmd_sweep(args) -> int:
    lambdas = _parse_lambdas(args.lambdas)
    params, config, _, scn, s0 = _inputs(args)
    sweep = metrics.lambda_sweep(params, config, scn, s0, lambdas)
    out = _prepare_out(args.out)
    write_sweep_files(out, sweep)
    print(f"sweep: wrote sweep.csv and plotdata_sweep.csv to {out}")
    return EXIT_OK


def cmd_ddp(args) -> int:
    params, _, config, scn, s0 = _inputs(args)
    table = ddp_mod.backward_induction(params, config, scn.inflow_hourly, scn.demand_hourly)
    trace = ddp_mod.simulate_policy(params, table, scn.inflow_hourly, scn.demand_hourly, s0)
    return _write_run("ddp", args, trace, params)


def cmd_compare(args) -> int:
    if len(args.reports) < 2:
        print("error: compare needs at least two report files", file=sys.stderr)
        return EXIT_USAGE
    named = []
    for spec in args.reports:
        name, _, path = spec.partition("=")
        if not path:
            name, path = Path(spec).parent.name or Path(spec).stem, spec
        named.append((name, read_report(path)))
    blocks = tuple(args.blocks.split(",")) if args.blocks else metrics.ALL_BLOCKS
    for block in blocks:
        if block not in metrics.ALL_BLOCKS:
            raise ValueError(f"unknown metric block {block!r}")
    table = metrics.compare_runs(named, blocks=blocks)
    out = _prepare_out(args.out)
    write_comparison_files(out, table)
    print(f"compare: wrote comparison.csv and comparison.txt to {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    intraday = scenario_mod.GaussianInflowParams() if args.intraday else None
    scn = scenario_mod.synthetic_year(
        n_days=args.days, intraday=intraday, jitter=args.jitter, seed=args.seed
    )
    out = _prepare_out(args.out)
    scenario_mod.save_timeseries(out / "inflow_hourly.csv", scn.inflow_hourly, "inflow")
    scenario_mod.save_timeseries(out / "demand_hourly.csv", scn.demand_hourly, "demand")
    day_means = scn.inflow_hourly.reshape(scn.n_days, scenario_mod.HOURS_PER_DAY).mean(axis=1)
    scenario_mod.save_timeseries(out / "inflow_daily.csv", day_means, "inflow")
    print(f"synth: wrote inflow_hourly.csv, demand_hourly.csv, inflow_daily.csv to {out}")
    return EXIT_OK


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="inflow CSV (hourly or daily)")
    parser.add_argument("--demand", default=None, help="demand CSV; default: built-in profile")
    parser.add_argument(
        "--inflow-kind", choices=("hourly", "daily"), required=True,
        help="resolution of the inflow file",
    )
    parser.add_argument(
        "--demand-kind", choices=("hourly", "daily"), default=None,
        help="resolution of the demand file; required with --demand",
    )
    parser.add_argument("--s0", default="level:0.4", help="initial storage, m^3 or level:<m>")
    parser.add_argument("--config", default=None, help="key=value file overriding defaults")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lakempc",
        description="Simulation and control toolkit for a regulated lake",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="closed-loop controller run")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--mode", choices=("hourly", "daily"), default="hourly")
    p_sim.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="demand-slack weight (default 1)")
    p_sim.add_argument("--horizon", type=int, default=None, help="prediction horizon, hours")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="metric sweep over the demand weight")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--lambdas", default="1e-4..1e4",
                         help="comma list or pow-of-ten range like 1e-4..1e4")
    p_sweep.add_argument("--horizon", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ddp = sub.add_parser("ddp", help="offline dynamic-programming benchmark")
    _add_scenario_flags(p_ddp)
    p_ddp.set_defaults(func=cmd_ddp)

    p_cmp = sub.add_parser("compare", help="side-by-side table of saved reports")
    p_cmp.add_argument("reports", nargs="+", help="report.csv paths, optionally NAME=path")
    p_cmp.add_argument("--blocks", default=None, help="comma list out of flood,demand,dry")
    p_cmp.add_argument("--out", default="out", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="write the synthetic scenario as CSV")
    p_synth.add_argument("--out", default="out", help="output directory")
    p_synth.add_argument("--days", type=int, default=366)
    p_synth.add_argument("--intraday", action="store_true",
                         help="add the bell-shaped intra-day inflow term")
    p_synth.add_argument("--jitter", type=float, default=0.0,
                         help="relative daily jitter; 0 disables (default)")
    p_synth.add_argument("--seed", type=int, default=0, help="jitter seed")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "demand", None) and args.demand_kind is None:
            parser.error("--demand-kind is required with --demand")
        if getattr(args, "demand_kind", None) and not args.demand:
            parser.error("--demand-kind needs --demand")
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
