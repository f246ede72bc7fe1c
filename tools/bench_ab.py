"""Compare two checkouts on the benchmark with interleaved runs.

Usage, from anywhere:

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR [--workload NAME ...]
        [--pairs 10] [--seconds 30] [--first-seed 1] [--in-process]

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

--in-process times both trees in this one interpreter instead, which
resolves changes of a few percent that process-level runs cannot. Each
tree's `src/ris_select` is imported under its own package name, and the
inputs of the workload (CHANGE_DIR's `bench/workloads.py`, first seed only)
are made once per side. A cycle is the workload's `cli.main` calls
(`mc_sweep`, `selection_screen`) or its `zone_gain_statistics` calls
(`gain_stats`), each made through the tree's own package. Pair i times one
cycle in each tree, in the alternating order above, after one untimed cycle
each. The summary gives the median of the change/parent ratios of the cycle
times, their quartiles, a distribution-free 95% interval for the median
(sign test), the pairs the change won, and whether the last cycle's output
files are equal; for `gain_stats`, whether its results are equal and the
operations (law/type/zone) whose GainStatistics are. --seconds does not
apply.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
IN_PROCESS_WORKLOADS = ("mc_sweep", "selection_screen", "gain_stats")


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


# --- in-process pairs -------------------------------------------------------------

def load_tree(root: Path, name: str):
    """Import `root`/src/ris_select, cli included, as the package `name`."""
    package = root / "src" / "ris_select"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_workloads(root: Path):
    """`root`/bench/workloads.py, which imports its tree's ris_select."""
    saved = sys.path[:]
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_ab_workloads", root / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def cycle_argvs(workload) -> list:
    """The cli.main argument lists of one cycle of the workload."""
    if workload.name == "mc_sweep":
        return [workload.fig_argv, workload.eval_argv]
    return list(workload.argvs)


def cli_call(cli, argv):
    """cli.main(argv) as a call of no arguments; a non-zero exit is an error."""
    def call():
        code = cli.main(argv)
        if code:
            raise RuntimeError(f"{cli.__name__}.main{argv} exited {code}")
    return call


def gain_operations(bench, workload) -> list:
    """(name, law, type value, reflection zone, seed) of each operation of one
    gain_stats cycle, in the workload's order."""
    operations = []
    for law_index, case_index in workload.cycle():
        ris_type, reflection, _ = bench.GAIN_CASES[case_index]
        law = bench.GAIN_LAWS[law_index]
        zone = "reflect" if reflection else "transmit"
        operations.append((f"{law}/{ris_type.value}/{zone}", law, ris_type.value,
                           reflection, (workload.seed, law_index, case_index)))
    return operations


def cycle_calls(tree, bench, workload) -> list:
    """One cycle of the workload as calls of no arguments into `tree`."""
    if workload.name != "gain_stats":
        return [cli_call(tree.cli, argv) for argv in cycle_argvs(workload)]
    cfg = tree.load_scenario(bench.REFERENCE)
    return [functools.partial(tree.zone_gain_statistics, cfg, tree.RisType(value),
                              reflection, bench.GAIN_TRIALS, fading=law, seed=seed)
            for _, law, value, reflection, seed in gain_operations(bench, workload)]


def sign_test_interval(ratios):
    """(low, high) order statistics j and n + 1 - j of the n ratios, with j
    the largest for which the median lies outside with probability at most
    5%, 2 P(Binomial(n, 1/2) < j) <= 1/20 (in integers, as 2**n overflows a
    float); None when too few ratios give any such j."""
    n, below, j = len(ratios), 0, 0
    while j < n and 40 * (below + math.comb(n, j)) <= 2 ** n:
        below += math.comb(n, j)
        j += 1
    ordered = sorted(ratios)
    return (ordered[j - 1], ordered[n - j]) if j else None


def summarize_ratios(ratios: list, outputs_equal: bool) -> dict:
    """Paired change/parent cycle-time ratios (below 1: the change is faster)."""
    q1, median, q3 = quartiles(ratios)
    return {"pairs": len(ratios), "median_ratio": median, "q1": q1, "q3": q3,
            "sign_test_95": sign_test_interval(ratios),
            "change_wins": sum(r < 1.0 for r in ratios),
            "outputs_equal": outputs_equal}


def format_ratios(workload: str, summary: dict) -> str:
    interval = summary["sign_test_95"]
    interval_text = "n/a" if interval is None else f"[{interval[0]:.4f}, {interval[1]:.4f}]"
    text = (f"{workload}: {summary['pairs']} in-process pairs, change/parent cycle time "
            f"median {summary['median_ratio']:.4f} [{summary['q1']:.4f}, "
            f"{summary['q3']:.4f}], 95% sign-test interval {interval_text}, change "
            f"faster in {summary['change_wins']}/{summary['pairs']}, outputs "
            f"{'equal' if summary['outputs_equal'] else 'DIFFER'}")
    if "operations" in summary:
        equal = summary["equal_operations"]
        text += (f"; results equal in {len(equal)}/{summary['operations']} operations"
                 f"{': ' + ', '.join(equal) if equal else ''}")
    return text


def timed_cycle(calls) -> tuple:
    """(seconds, results) of one cycle of calls."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        results = [call() for call in calls]
    return time.perf_counter() - start, results


def paired_ratios(trees, bench, name: str, pairs: int, seed: int, work: Path) -> dict:
    """One workload's paired ratios; the trees' inputs and outputs live under
    `work`, one folder per side."""
    sides = {side: bench.make(name, seed, work / name / side) for side in SIDES}
    calls = {side: cycle_calls(trees[side], bench, workload)
             for side, workload in sides.items()}
    for side in SIDES:  # untimed: first calls fill caches
        timed_cycle(calls[side])
    ratios = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        times, results = {}, {}
        for side in order:
            times[side], results[side] = timed_cycle(calls[side])
        ratios.append(times["change"] / times["parent"])
    parent, change = sides["parent"], sides["change"]
    outputs_equal = all(a.read_bytes() == b.read_bytes() for key in change.cycle()
                        for a, b in zip(parent.outputs(key), change.outputs(key)))
    if name != "gain_stats":
        return summarize_ratios(ratios, outputs_equal)
    # the results of the last pair, compared by repr so that NaN moments match
    equal = [operation[0] for operation, a, b in zip(
        gain_operations(bench, change), results["parent"], results["change"])
        if repr(a) == repr(b)]
    operations = len(results["change"])
    summary = summarize_ratios(ratios, len(equal) == operations)
    summary.update(equal_operations=equal, operations=operations)
    return summary


def in_process(parent: Path, change: Path, workloads: list, pairs: int, seed: int) -> dict:
    """Paired cycle-time ratios of both trees per workload, in this process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as bench/run.py, before numpy loads
    parent, change = parent.resolve(), change.resolve()
    trees = {"parent": load_tree(parent, "bench_ab_parent"),
             "change": load_tree(change, "bench_ab_change")}
    bench = load_workloads(change)
    report, cwd = {}, os.getcwd()
    os.chdir(change)  # the workloads name the reference scenario relative to it
    try:
        with tempfile.TemporaryDirectory() as work:
            for name in workloads:
                report[name] = paired_ratios(trees, bench, name, pairs, seed, Path(work))
                print(format_ratios(name, report[name]), flush=True)
    finally:
        os.chdir(cwd)
    return report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--in-process", action="store_true",
                        help="time both trees in this interpreter, cycle against cycle "
                             f"({', '.join(IN_PROCESS_WORKLOADS)})")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    if args.in_process and not set(args.workload or ()) <= set(IN_PROCESS_WORKLOADS):
        parser.error(f"--in-process runs {', '.join(IN_PROCESS_WORKLOADS)} only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {args.change}: {exc}", file=sys.stderr)
        return 1
    if args.in_process:
        try:
            report = in_process(args.parent, args.change,
                                args.workload or list(IN_PROCESS_WORKLOADS),
                                args.pairs, args.first_seed)
        except (ImportError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        return 0
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
