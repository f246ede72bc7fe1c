"""tools/bench_record.py: the fixed key set of a BENCH_<tag>.json record."""

import importlib.util
import json

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_record", REPO_ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

GATED = tuple(m["name"] for m in json.loads(
    (REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"])


def _result(workload, **extra_metrics):
    metrics = {name: {"value": 1.0, "unit": "x"} for name in GATED}
    metrics.update({name: {"value": 2.0, "unit": "y"} for name in extra_metrics})
    return {"workload": workload, "seed": 7, "seconds": 30.0, "trace": 0,
            "cycles": 12, "attempted": 100, "failed": 0, "run_id": "r",
            "metrics": metrics, "digests": {"k": "v"},
            "environment": {"nproc": 2, "numpy": "2.4", "python": "3.11",
                            "extra": "dropped"}}


def test_record_keeps_a_fixed_key_set():
    data = bench_record.record("t", [_result("gain_stats", extra_metric=1),
                                     _result("mc_sweep")])
    assert data["tag"] == "t"
    assert list(data["workloads"]) == ["gain_stats", "mc_sweep"]
    for run in data["workloads"].values():
        assert set(run) == set(bench_record.RUN_KEYS) | {"metrics", "environment"}
        assert tuple(run["metrics"]) == GATED
        assert tuple(run["environment"]) == bench_record.ENVIRONMENT_KEYS
    assert data["workloads"]["mc_sweep"]["environment"]["cpu_model"] is None


def test_record_rejects_duplicate_workloads_and_ungated_results():
    with pytest.raises(ValueError, match="two results"):
        bench_record.record("t", [_result("mc_sweep"), _result("mc_sweep")])
    traced = _result("mc_sweep")
    del traced["metrics"]["work_per_s"]
    with pytest.raises(ValueError, match="gated metrics"):
        bench_record.record("t", [traced])


def test_bad_tag_and_missing_file_exit_1(tmp_path, capsys):
    assert bench_record.main(["bad/tag", str(tmp_path / "r.json")]) == 1
    assert bench_record.main(["ok", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2
