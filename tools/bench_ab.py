"""Compare two checkouts on the benchmark with interleaved runs.

Usage, from anywhere:

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR [--workload NAME ...]
        [--pairs 10] [--seconds 30] [--first-seed 1]

Pair i runs `bench/run.py --seed <first-seed + i> --trace 0` once in each
checkout, one after the other, the parent first in even pairs and the change
first in odd ones, so drift on a shared host hits both sides alike. Each run
writes its result under its own checkout's `.bench_out/`. Per workload and
end-to-end metric (the `end_to_end` list of BENCHMARK.json in CHANGE_DIR),
the summary gives both sides' median and quartiles, the relative change of
the medians, the pairs the change won, whether the change of the medians
clears the parent's interquartile range, and whether a worse median stays
inside the metric's bound. A metric is unresolved when the parent's
interquartile range, relative to its median, is wider than the bound and not
every change run reads better than every parent run: such a spread can hide
a regression of the bound's size. It also counts failed operations per side
and the pairs whose output digests are equal. The last line of standard
output is the summary as one JSON object. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize_metric(spec: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over paired runs; values are in pair order."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    relative = (c_median - p_median) / p_median if p_median else 0.0
    spread = (p_q3 - p_q1) / p_median if p_median else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "unit": spec.get("unit"),
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "relative_change": relative,
        "change_wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "clears_parent_iqr": sign * (c_median - p_median) > p_q3 - p_q1,
        "within_bound": sign * relative >= -spec["bound"],
        "unresolved": spread > spec["bound"] and not all_better,
    }


def summarize(pairs: list, metric_specs: list) -> dict:
    """Summary of one workload's pairs.

    `pairs` is a list of {"parent": result, "change": result}, each result a
    `bench/run.py` result with "metrics", "failed", "attempted" and
    "digests"; `metric_specs` is BENCHMARK.json's `end_to_end` list.
    """
    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        metrics[name] = summarize_metric(spec, values["parent"], values["change"])
    return {
        "pairs": len(pairs),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs)
                      for side in SIDES},
        "digests_equal_pairs": sum(pair["parent"]["digests"] == pair["change"]["digests"]
                                   for pair in pairs),
        "metrics": metrics,
    }


def format_summary(workload: str, summary: dict) -> str:
    failed, attempted = summary["failed"], summary["attempted"]
    lines = [f"{workload}: {summary['pairs']} pairs, failed "
             f"{failed['parent']}/{attempted['parent']} parent, "
             f"{failed['change']}/{attempted['change']} change, output digests "
             f"equal in {summary['digests_equal_pairs']}/{summary['pairs']} pairs"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}  "
            f"{100.0 * m['relative_change']:+.1f}%  wins {m['change_wins']}/{m['pairs']}"
            f"{'  clears parent IQR' if m['clears_parent_iqr'] else ''}"
            f"{'' if m['within_bound'] else '  OUTSIDE BOUND'}"
            f"{'  UNRESOLVED' if m['unresolved'] else ''}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`; its result.json with digests."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {checkout} (exit "
                           f"{done.returncode}):\n{done.stderr[-2000:]}")
    path = checkout / ".bench_out" / f"{workload}-s{seed}-t0" / "result.json"
    return json.loads(path.read_text(encoding="utf-8"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {args.change}: {exc}", file=sys.stderr)
        return 1
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            try:
                pair = {side: run_once(getattr(args, side), workload, seed, args.seconds)
                        for side in order}
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr, flush=True)
        report[workload] = summarize(pairs, spec["end_to_end"])
        print(format_summary(workload, report[workload]), flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
