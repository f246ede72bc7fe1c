"""Record benchmark runs as a checked-in BENCH_<tag>.json at the repository root.

Usage, from the repository root:

    python3 tools/bench_record.py TAG .bench_out/<run>/result.json [...]

Each result file is one `bench/run.py` run. The record keeps, per workload,
the run's settings, its failed-operation count, the gated end-to-end metrics
(the `end_to_end` names of BENCHMARK.json) and the machine block, under a
fixed key set, so records of different revisions compare key for key. Two
results of the same workload in one record are an error. Standard library
only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_KEYS = ("seed", "seconds", "trace", "cycles", "attempted", "failed")
ENVIRONMENT_KEYS = ("nproc", "cpus_usable", "cpu_model", "platform", "python",
                    "numpy", "git_revision", "src_sha256", "blas_threads")


def gated_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple(metric["name"] for metric in spec["end_to_end"])


def run_record(result: dict, metrics: tuple) -> dict:
    missing = [name for name in metrics if name not in result["metrics"]]
    if missing:
        raise ValueError(f"result lacks gated metrics {missing} (a --trace 1 run?)")
    environment = result["environment"]
    return {
        **{key: result[key] for key in RUN_KEYS},
        "metrics": {name: result["metrics"][name] for name in metrics},
        "environment": {key: environment.get(key) for key in ENVIRONMENT_KEYS},
    }


def record(tag: str, results: list) -> dict:
    metrics = gated_metrics()
    workloads = {}
    for result in results:
        name = result["workload"]
        if name in workloads:
            raise ValueError(f"two results for workload {name!r}")
        workloads[name] = run_record(result, metrics)
    return {"tag": tag, "workloads": dict(sorted(workloads.items()))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    tag, paths = args[0], args[1:]
    if not tag or not all(c.isalnum() or c in "-_." for c in tag):
        print(f"error: tag {tag!r} must be letters, digits, '-', '_' or '.'",
              file=sys.stderr)
        return 1
    try:
        results = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
        data = record(tag, results)
    except KeyError as exc:
        print(f"error: a result file lacks the key {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
