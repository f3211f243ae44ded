"""Command-line interface.

Subcommands:
    simulate  closed-loop controller run (hourly receding-horizon or daily
              open-loop), writing a trace CSV, a report and level plot data
    sweep     one hourly run per demand weight over a grid, with the
              normalized violation-hour columns
    ddp       offline dynamic-programming benchmark over the whole scenario
    compare   side-by-side table of previously written reports
    synth     write the documented synthetic scenario as CSV files

Numeric CSV output is formatted to 6 significant digits, so identical
inputs give byte-identical files. Exit codes: 0 success, 1 runtime failure,
2 usage error.
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


# ---------------------------------------------------------------------------
# configuration files: plain "key = value" lines. Each key is a field of
# exactly one of LakeParams, MpcConfig and DdpConfig, which share no field
# name, so a key sets one value ("lambda" is accepted for "lam"). The lake's
# thresholds live only in LakeParams; the MPC derives its storage bounds
# from them.


def _cast_like(default, raw: str):
    if isinstance(default, bool):
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    return float(raw)


def parse_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        for sep in ("=", ":"):
            if sep in text:
                key, _, value = text.partition(sep)
                entries[key.strip()] = value.strip()
                break
        else:
            raise ValueError(f"{path}: line {line_no}: expected 'key = value', got {line!r}")
    return entries


def build_settings(overrides: dict[str, str]):
    """The LakeParams, MpcConfig and DdpConfig that the override keys set.

    A value that does not cast, or that its dataclass rejects, raises a
    ValueError naming the key as it was written.
    """
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
    """cls(**kwargs). Its ValueError is raised again naming the key it
    rejects: the first whose value alone is rejected, or else (values that
    fail only together) every key given."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        keys = [key for key in kwargs if _rejected(cls, key, kwargs[key])][:1] or list(kwargs)
        names = ", ".join(written.get(key, key) for key in keys)
        raise ValueError(f"config key{'s' if len(keys) > 1 else ''} {names}: {exc}") from None


def _rejected(cls, key: str, value) -> bool:
    try:
        cls(**{key: value})
    except ValueError:
        return True
    return False


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
    """Initial storage: either cubic meters or 'level:<m>'."""
    if spec.startswith("level:"):
        return storage_of_level(params, float(spec[len("level:"):]))
    return float(spec)


# ---------------------------------------------------------------------------
# file IO


def load_scenario(args, params: LakeParams) -> scenario_mod.Scenario:
    inflow = scenario_mod.load_timeseries(args.scenario, f"inflow_{args.inflow_kind}")
    inflow_daily = None
    if args.inflow_kind == "daily":
        inflow_daily = inflow[:: scenario_mod.HOURS_PER_DAY].copy()
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
        inflow_daily=inflow_daily,
    )


def write_trace_csv(path, trace: ClosedLoopTrace) -> None:
    columns = [
        ("inflow_m3s", trace.inflows),
        ("demand_m3s", trace.demands),
        ("command_m3s", trace.commands),
        ("release_m3s", trace.releases),
        ("storage_start_m3", trace.storages[:-1]),
        ("storage_end_m3", trace.storages[1:]),
        ("level_m", trace.levels),
    ]
    for name, series in (
        ("slack_flood_m", trace.slack_flood),
        ("slack_demand_m3s", trace.slack_demand),
        ("kkt_residual", trace.kkt_residuals),
        ("qp_iterations", trace.solve_iterations),
        ("warm_start", trace.warm_starts),
    ):
        if series is not None:
            columns.append((name, series))
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [name for name, _ in columns])
        for t in range(trace.n_hours):
            writer.writerow([t] + [_fmt(series[t]) for _, series in columns])


def write_report_files(outdir: Path, report: metrics.RunReport, blocks=metrics.ALL_BLOCKS) -> None:
    rows = metrics.report_rows(report, blocks)
    with (outdir / "report.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["block", "metric", "value"])
        for block, key, _, value in rows:
            writer.writerow([block, key, _fmt(value)])
    width = max(len(label) for _, _, label, _ in rows) + 2
    text = "".join(f"{label:<{width}}{_fmt(value)}\n" for _, _, label, value in rows)
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
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "level_m", "flood_threshold_m", "dry_threshold_m"])
        flood, dry = _fmt(params.flood_threshold), _fmt(params.dry_threshold)
        for t in range(trace.n_hours):
            writer.writerow([t, _fmt(trace.levels[t]), flood, dry])


def write_sweep_files(outdir: Path, sweep: metrics.SweepResult) -> None:
    with (outdir / "sweep.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        metric_names = [
            f"{block}_{key}" for block in metrics.ALL_BLOCKS for key, _ in metrics._BLOCK_LABELS[block]
        ]
        writer.writerow(["lambda"] + metric_names + ["flood_hours_norm", "deficit_hours_norm"])
        for i, lam in enumerate(sweep.lambdas):
            row_values = [value for _, _, _, value in metrics.report_rows(sweep.reports[i])]
            writer.writerow(
                [_fmt(lam)]
                + [_fmt(v) for v in row_values]
                + [_fmt(sweep.flood_hours_norm[i]), _fmt(sweep.deficit_hours_norm[i])]
            )
    with (outdir / "plotdata_sweep.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "flood_hours_norm", "deficit_hours_norm"])
        for i, lam in enumerate(sweep.lambdas):
            writer.writerow(
                [_fmt(lam), _fmt(sweep.flood_hours_norm[i]), _fmt(sweep.deficit_hours_norm[i])]
            )


def write_comparison_files(outdir: Path, table: metrics.ComparisonTable) -> None:
    with (outdir / "comparison.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["metric"] + table.names + [f"reldiff_{name}" for name in table.names[1:]]
        )
        for row in table.rows:
            writer.writerow(
                [row.label] + [_fmt(v) for v in row.values] + [_fmt(d) for d in row.rel_diffs]
            )
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


def _mpc_config(args, config: mpc_mod.MpcConfig) -> mpc_mod.MpcConfig:
    """config with the --lambda and --horizon flags given, which override the file."""
    flags = {"lam": getattr(args, "lam", None), "horizon": args.horizon}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def cmd_simulate(args) -> int:
    params, mpc_config, _ = _settings(args)
    config = _mpc_config(args, mpc_config)
    scn = load_scenario(args, params)
    s0 = parse_s0(args.s0, params)
    if args.mode == "hourly":
        trace = mpc_mod.run_hourly(params, config, scn, s0)
    else:
        trace = mpc_mod.run_daily(params, config, scn, s0)
    out = _prepare_out(args.out)
    write_trace_csv(out / "trace.csv", trace)
    write_report_files(out, metrics.compute_report(params, trace))
    write_level_plotdata(out / "plotdata_level.csv", trace, params)
    print(f"simulate: wrote trace.csv, report.csv, report.txt, plotdata_level.csv to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    lambdas = _parse_lambdas(args.lambdas)
    params, mpc_config, _ = _settings(args)
    base_config = _mpc_config(args, mpc_config)
    scn = load_scenario(args, params)
    s0 = parse_s0(args.s0, params)
    sweep = metrics.lambda_sweep(params, base_config, scn, s0, lambdas)
    out = _prepare_out(args.out)
    write_sweep_files(out, sweep)
    print(f"sweep: wrote sweep.csv and plotdata_sweep.csv to {out}")
    return EXIT_OK


def cmd_ddp(args) -> int:
    params, _, config = _settings(args)
    scn = load_scenario(args, params)
    s0 = parse_s0(args.s0, params)
    table = ddp_mod.backward_induction(params, config, scn.inflow_hourly, scn.demand_hourly)
    trace = ddp_mod.simulate_policy(params, table, scn.inflow_hourly, scn.demand_hourly, s0)
    out = _prepare_out(args.out)
    write_trace_csv(out / "trace.csv", trace)
    write_report_files(out, metrics.compute_report(params, trace))
    write_level_plotdata(out / "plotdata_level.csv", trace, params)
    print(f"ddp: wrote trace.csv, report.csv, report.txt, plotdata_level.csv to {out}")
    return EXIT_OK


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
    scenario_mod.save_timeseries(out / "inflow_daily.csv", scn.inflow_daily, "inflow")
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
