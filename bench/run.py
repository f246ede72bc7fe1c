"""ris-select benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  mc_sweep          fig2a preset + reference evaluation through cli.main
  selection_screen  random deployments swept over the user split, no Monte Carlo
  gain_stats        channel.zone_gain_statistics for three laws x three cases

The program runs in this process, imported from `src/`. Each workload is a
fixed cycle of operations, repeated until `--seconds` have passed (whole
cycles only, so every run does the same mix). Every operation's output is
checked and digested; an operation that exits non-zero, writes malformed
output, fails a check, or produces a digest different from an earlier run of
the same input (in this run, or in an earlier run of the same seed and source
tree) counts as failed.

Timings are in reference seconds: each cycle is bracketed by calibration
kernels, which cancel the speed changes of a shared host (calibration.py).
Raw figures go to the result file and the summary.

--trace 0 reports the end-to-end metrics:
  setup_s       median of 11 fresh-process set-ups spread over the run: from
                spawning the interpreter to imports done and inputs generated
  work_per_s    work units per second: Monte Carlo trials (mc_sweep), decided
                sweep cells (selection_screen) or aggregate-gain samples
                (gain_stats), over a cycle made of each operation's median
  call_p50_ms, call_p90_ms
                over the cycle's operations, of each one's median latency: a
                fig2a + evaluate round of cli.main calls (one operation), one
                cli.main sweep per deployment, or one statistics call per case
  peak_rss_mb   peak resident memory of this process

--trace 1 alternates untraced and traced cycles and reports, per traced
cycle, calls and median self time of every traced function (layertrace.py),
computed counts, self time per layer and the tracing overhead (traced over
untraced work rate). The spans are written to `.bench_out/<run>/spans.jsonl`.

Every run writes `.bench_out/<run>/result.json` with the metrics, the
machine and environment, raw cycle times with their calibration factors, and
the output digests. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: fixed, never above nproc, and steady on a shared machine.
# Set before numpy is first imported, here and in the set-up subprocesses.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

SETUP_SAMPLES = 11
SETUP_CALIBRATION = ("numpy", "interpreter")
FIG2A_FULL_TRIALS = 4800  # 48 cells x 100 trials, the acceptance suite's run
FIG2A_BOUND_S = 60.0      # the acceptance suite's wall-clock bound
# work_per_s under the name of each workload's unit of work
RATE_NAMES = {"mc_sweep": "mc_trials_per_s", "selection_screen": "cells_per_s",
              "gain_stats": "samples_per_s"}

SETUP_CHILD = """\
import sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_sweep", "selection_screen", "gain_stats"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --- environment ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def tree_digest(*dirs) -> str:
    """sha256 over the files under `dirs` (caches excluded)."""
    h = hashlib.sha256()
    for root in dirs:
        for path in sorted(p for p in root.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "src_sha256": tree_digest(SRC),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# --- measurement ----------------------------------------------------------------

def measure_setup(name: str, seed: int, work: Path, calibrator) -> tuple:
    """Seconds from spawning a fresh interpreter to its inputs being ready,
    raw and in reference seconds (start-up and imports are interpreter work)."""
    target = work / "setup"
    before = calibrator.kernel_seconds(SETUP_CALIBRATION)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC), name,
         str(seed), str(target)],
        capture_output=True, text=True, timeout=120, check=True)
    raw = float(out.stdout.split()[-1]) - start
    shutil.rmtree(target, ignore_errors=True)
    after = calibrator.kernel_seconds(SETUP_CALIBRATION)
    return raw, raw * calibrator.factor(before, after)


class Ledger:
    """Operations attempted, failed, timed and digested in one run."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def execute(self, key, run):
        """Run one operation; return (seconds, outcome or None)."""
        for path in self.workload.outputs(key):
            path.unlink(missing_ok=True)
        outcome, problems = None, []
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                outcome = run(key)
            except Exception:
                problems.append("raised:\n" + traceback.format_exc())
            elapsed = time.perf_counter() - start
        if outcome is not None:
            problems += self.verify(key, outcome)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"key": str(key), "problems": problems[:5]})
        return elapsed, outcome

    def verify(self, key, outcome) -> list:
        problems = [f"exit code {code}" for code in outcome.codes if code != 0]
        files = self.workload.outputs(key)
        missing = [p.name for p in files if not p.is_file()]
        if missing:
            return problems + [f"missing output {', '.join(missing)}"]
        problems += self.workload.check(key, outcome)
        if files:
            digest = {p.name: self.checks.sha256_file(p) for p in files}
        else:
            digest = {"result": self.checks.sha256_text(repr(outcome.result))}
        first = self.digests.setdefault(str(key), digest)
        if first != digest:
            problems.append("output digest differs from an earlier run of the same input")
        return problems

    def compare_with_earlier_runs(self, path: Path):
        """Check digests against an earlier run of the same seed and code."""
        if path.is_file():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            self.attempted += 1
            differing = [k for k, v in self.digests.items() if k in earlier and earlier[k] != v]
            if differing:
                self.failed += 1
                self.problems.append({"key": "earlier run", "problems": [
                    f"digests differ from {path.name} for {len(differing)} inputs"]})
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.digests, indent=1, sort_keys=True),
                            encoding="utf-8")


class Cycle:
    """One pass over a workload's operations.

    `latencies` are raw seconds per operation, in cycle order; `factor`
    converts them to reference seconds (calibration.py).
    """

    def __init__(self, index: int):
        self.index = index
        self.latencies = []
        self.items = 0
        self.cells = 0
        self.factor = 1.0


class Timer:
    """Runs cycles, each bracketed by calibration kernels."""

    def __init__(self, ledger, workload, calibrator):
        self.ledger = ledger
        self.workload = workload
        self.calibrator = calibrator
        self.kernel_s = calibrator.kernel_seconds(workload.calibration)

    def cycle(self, index, run, on_op=None) -> Cycle:
        cycle = Cycle(index)
        for key in self.workload.cycle():
            elapsed, outcome = self.ledger.execute(key, run)
            cycle.latencies.append(elapsed)
            if outcome is not None:
                cycle.items += outcome.items
                cycle.cells += outcome.cells
            if on_op is not None:
                on_op(key)
        before = self.kernel_s
        self.kernel_s = self.calibrator.kernel_seconds(self.workload.calibration)
        cycle.factor = self.calibrator.factor(before, self.kernel_s)
        return cycle


def op_seconds(cycles, calibrated=True) -> list:
    """Per operation of the cycle, its median time over all cycles."""
    columns = zip(*([x * (c.factor if calibrated else 1.0) for x in c.latencies]
                    for c in cycles))
    return [statistics.median(column) for column in columns]


def work_rate(cycles, calibrated=True) -> float:
    """Work units per second of a cycle made of each operation's median time."""
    return max(c.items for c in cycles) / sum(op_seconds(cycles, calibrated))


def percentile(values, fraction):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def layer_metrics(tracer, traced, overhead) -> dict:
    """Per traced cycle: calls and counts averaged (they repeat exactly),
    self times as the median over cycles in reference milliseconds."""
    import layertrace

    n = len(traced)
    calls = tracer.calls()
    per_cycle = tracer.self_times_ns()
    own = {name: statistics.median(per_cycle[c.index][name] * c.factor for c in traced)
           for name in set().union(*per_cycle.values())}
    counts = tracer.counts
    cells = sum(c.cells for c in traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in layertrace.SPAN_NAMES:
        put(f"{name}.calls", calls[name] / n, "count")
        put(f"{name}.self_ms", own.get(name, 0) / 1e6, "ms")
    put("channel.fading.bytes", counts["channel.fading.bytes"] / n, "B")
    put("channel.draw.flops", counts["channel.draw.flops"] / n, "flop")
    put("selection.decide_type.errors", counts["selection.decide_type.errors"] / n, "count")
    put("channel.link_budget.calls_per_cell",
        calls["channel.link_budget"] / cells if cells else 0.0, "count/cell")
    put("cli.bytes_written", counts["cli.bytes_written"] / n, "B")
    for layer in layertrace.LAYERS:
        layer_ns = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        put(f"layer.{layer}.self_ms", layer_ns / 1e6, "ms")
    put("trace.spans", len(tracer.spans) / n, "count")
    put("trace.overhead_ratio", overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "ris_select" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'ris_select'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]

    import numpy as np

    import calibration
    import checks
    import layertrace
    import ris_select
    import workloads

    if Path(ris_select.__file__).resolve().parent != SRC / "ris_select":
        print(f"error: imported ris_select from {ris_select.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    seed = args.seed % 2 ** 32
    run_name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_id = f"{run_name}-{os.getpid()}-{time.time_ns()}"
    work = OUT / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = workloads.make(args.workload, seed, work / "inputs")
    ledger = Ledger(workload, checks)
    ledger.execute(workload.cycle()[0], workload.run)  # warm-up, checked, untimed
    calibrator = calibration.Calibrator()
    timer = Timer(ledger, workload, calibrator)

    plain, traced, setup = [], [], []
    tracer = None
    started = time.perf_counter()
    if args.trace == 0:
        # Set-up samples are spread over the run, between cycles.
        while not plain or time.perf_counter() - started < args.seconds:
            plain.append(timer.cycle(len(plain), workload.run))
            due = len(setup) * args.seconds / SETUP_SAMPLES
            if time.perf_counter() - started >= due:
                setup.append(measure_setup(args.workload, seed, work, calibrator))
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(args.workload, seed, work, calibrator))
    else:
        tracer = layertrace.Tracer(run_id)
        traced_run = tracer.wrap("bench.op", workload.run)

        def count_bytes(key):
            tracer.counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in workload.outputs(key) if p.is_file())

        def traced_cycle():
            tracer.cycle = len(traced)
            tracer.install()
            try:
                traced.append(timer.cycle(len(traced), traced_run, count_bytes))
            finally:
                tracer.uninstall()

        while not traced or time.perf_counter() - started < args.seconds:
            # alternate the order so drift over the run hits both sides alike
            if len(traced) % 2 == 0:
                plain.append(timer.cycle(len(plain), workload.run))
                traced_cycle()
            else:
                traced_cycle()
                plain.append(timer.cycle(len(plain), workload.run))
    measured_s = time.perf_counter() - started
    # Outputs depend on the program, its scenario files and the benchmark.
    code = tree_digest(SRC, ROOT / "scenarios", BENCH_DIR)[:16]
    ledger.compare_with_earlier_runs(OUT / "digests" / f"{args.workload}-s{args.seed}-{code}.json")

    work_per_s = work_rate(plain)
    if args.trace == 0:
        latencies = op_seconds(plain)
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "call_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "call_p90_ms": {"value": percentile(latencies, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, traced, work_per_s / work_rate(traced))
        tracer.write(work / "spans.jsonl")

    raw_work_per_s = work_rate(plain, calibrated=False)
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        "work_unit": workload.item,
        RATE_NAMES[args.workload]: work_per_s,
        f"raw_{RATE_NAMES[args.workload]}": raw_work_per_s,
        "cycles": len(plain) + len(traced),
        "measured_s": measured_s,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems[:20],
        "setup_s_raw_and_reference": setup,
        "cycle_seconds_raw": [sum(c.latencies) for c in plain],
        "cycle_factors": [c.factor for c in plain],
        "traced_cycle_seconds_raw": [sum(c.latencies) for c in traced],
        "metrics": metrics,
        "digests": ledger.digests,
    }
    if args.workload == "mc_sweep":
        record["fig2a_projected_s"] = FIG2A_FULL_TRIALS / work_per_s
        record["fig2a_projected_raw_s"] = FIG2A_FULL_TRIALS / raw_work_per_s
        record["fig2a_bound_s"] = FIG2A_BOUND_S
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print_summary(record, sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def print_summary(record, stream):
    env = record["environment"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['cycles']} cycles, "
          f"{record['failed']}/{record['attempted']} failed "
          f"(failed_frac {record['failed_frac']:.3g})", file=stream)
    for problem in record["problems"][:3]:
        print(f"  FAILED {problem['key']}: {problem['problems'][0]}", file=stream)
    alias = RATE_NAMES[record["workload"]]
    print(f"  {alias} = {record[alias]:.6g} 1/s in reference seconds, "
          f"{record['raw_' + alias]:.6g} 1/s raw ({record['work_unit']}s per second)",
          file=stream)
    if "fig2a_projected_s" in record:
        print(f"  fig2a at {FIG2A_FULL_TRIALS} trials: projected "
              f"{record['fig2a_projected_s']:.1f} reference s "
              f"({record['fig2a_projected_raw_s']:.1f} s raw) against the "
              f"{FIG2A_BOUND_S:.0f} s bound (headroom "
              f"{FIG2A_BOUND_S - record['fig2a_projected_s']:.1f} s)", file=stream)
    metrics = record["metrics"]
    if record["trace"]:
        metrics = {k: v for k, v in metrics.items()
                   if k.startswith(("layer.", "trace.")) or k.endswith(".self_ms") and v["value"]}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=stream)
    print(f"  machine: {env['nproc']} CPUs ({env['cpu_model']}), Python {env['python']}, "
          f"numpy {env['numpy']}, BLAS threads {BLAS_THREADS}, "
          f"revision {env['git_revision'] or 'n/a'}", file=stream)


if __name__ == "__main__":
    sys.exit(main())
