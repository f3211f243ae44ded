"""Alternating parent/change pairs of benchmark runs, summarised for a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --workload W --seed S --pairs N \\
        --seconds T --out BENCH_<n>.json [--trace 1]

DIR is a checkout of the parent commit (``git archive`` or ``git clone``).
Each of the N pairs runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in DIR and once in this checkout, each from its own root. The parent
runs first in even pairs (0, 2, ...) and the change first in odd ones, so a
drift in the machine's speed falls on both sides alike. The script reads
each run's record line and its last line (correct, attempted, failed,
metrics) from standard output, and changes nothing under ``perfbench/``.

For every metric the runs report, it writes both sides' per-run values,
medians and quartiles (numpy's linear percentiles), the pairs the change
wins and ties by the metric's direction in this checkout's BENCHMARK.json,
the ratio of the medians, the parent's interquartile range and, for an
end-to-end metric, whether the change's median is within its bound. The
summary goes to ``workloads[W]["seed_S_pairs"]`` of --out (with --trace 1,
``"seed_S_trace_pairs"``); what --out already holds is kept, so the runs of
several workloads and seeds collect in one file. It also prints one line
per metric: both medians, their ratio, the change's wins and the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench/run.py process in checkout: its result and record."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} failed:\n{tail}")
    record = next(json.loads(ln)["record"] for ln in lines if ln.startswith('{"record"'))
    return {"result": json.loads(lines[-1]), "record": record}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def summarise(runs: dict[str, list[dict]], first_side: list[str], directions: dict) -> dict:
    """The block of one workload and seed from both sides' runs, pair by pair."""
    results = {side: [run["result"] for run in runs[side]] for side in SIDES}
    block = {
        "pairs": len(first_side),
        "first_side": first_side,
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed_total": sum(r["failed"] for side in SIDES for r in results[side]),
        "attempted_total": sum(r["attempted"] for side in SIDES for r in results[side]),
        "git_sha": {side: runs[side][0]["record"]["environment"]["git_sha"] for side in SIDES},
        "src_sha256": {
            side: runs[side][0]["record"]["environment"]["src_sha256"] for side in SIDES
        },
        "metrics": {},
    }
    for name, first in results["parent"][0]["metrics"].items():
        values = {side: [float(r["metrics"][name]["value"]) for r in results[side]] for side in SIDES}
        better, bound = directions.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
        ratio = change["median"] / parent["median"] if parent["median"] else None
        entry = {
            "unit": first["unit"],
            "better": better,
            "parent": parent,
            "change": change,
            "change_wins": sum(g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "median_ratio_change_over_parent": ratio,
            "median_gap": abs(change["median"] - parent["median"]),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
        if bound is not None and ratio is not None:
            worse = sign * (ratio - 1.0)
            entry.update(bound=bound, worse_than_parent_frac=worse, within_bound=worse <= bound)
        block["metrics"][name] = entry
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge the block into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} holds no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    directions.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first_side = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            runs[side].append(
                run_once(checkouts[side], args.workload, args.seed, args.seconds, args.trace)
            )
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    block = summarise(runs, first_side, directions)
    block["command"] = (
        f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds} --trace {args.trace}"
    )
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    environment = runs["change"][0]["record"]["environment"]
    out.setdefault("environment", {
        key: environment[key] for key in ("cpu", "nproc", "python", "numpy", "scipy", "threads")
    })
    key = f"seed_{args.seed}_trace_pairs" if args.trace else f"seed_{args.seed}_pairs"
    out.setdefault("workloads", {}).setdefault(args.workload, {})[key] = block
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, metric in block["metrics"].items():
        ratio = metric["median_ratio_change_over_parent"]
        print(
            f"{args.workload} seed {args.seed} {name}: parent {metric['parent']['median']:.6g} "
            f"change {metric['change']['median']:.6g} ratio "
            f"{'-' if ratio is None else f'{ratio:.4f}'} wins {metric['change_wins']}/"
            f"{block['pairs']} parent_iqr {metric['parent_iqr']:.3g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
