"""tools/bench_ab.py: the paired summary of two checkouts' benchmark runs."""

import importlib.util
import json
import math
import sys

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_ab", REPO_ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPECS = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(work_per_s, setup_s=0.14, failed=0, digests=None):
    values = {"setup_s": setup_s, "work_per_s": work_per_s, "call_p50_ms": 1e4 / work_per_s,
              "call_p90_ms": 2e4 / work_per_s, "peak_rss_mb": 47.0}
    return {"metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()},
            "failed": failed, "attempted": 20,
            "digests": {"round": "a"} if digests is None else digests}


def _pairs(parent_rates, change_rates, **change_extra):
    return [{"parent": _result(p), "change": _result(c, **change_extra)}
            for p, c in zip(parent_rates, change_rates)]


def test_quartiles_of_one_and_several_values():
    assert bench_ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_summary_of_a_clear_gain():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0]
    change = [120.0, 119.0, 97.0, 121.0, 118.0]  # one pair lost
    summary = bench_ab.summarize(_pairs(parent, change), SPECS)
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 100, "change": 100}
    assert summary["digests_equal_pairs"] == 5
    rate = summary["metrics"]["work_per_s"]
    assert rate["parent"]["median"] == 100.0
    assert rate["change"]["median"] == 119.0
    assert rate["relative_change"] == pytest.approx(0.19)
    assert rate["change_wins"] == 4
    assert rate["clears_parent_iqr"] and rate["within_bound"]
    # lower-is-better metrics count a smaller value as a win
    p50 = summary["metrics"]["call_p50_ms"]
    assert p50["change_wins"] == 4 and p50["relative_change"] < 0.0
    assert p50["clears_parent_iqr"] and p50["within_bound"]
    # equal values neither win nor clear the spread
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["clears_parent_iqr"]
    assert rss["within_bound"]


def test_summary_flags_a_loss_outside_the_bound_failures_and_digests():
    parent = [100.0, 100.0, 100.0]
    change = [80.0, 81.0, 79.0]  # -20% against a 15% bound
    pairs = _pairs(parent, change, setup_s=0.5, failed=2, digests={"round": "b"})
    summary = bench_ab.summarize(pairs, SPECS)
    assert summary["failed"] == {"parent": 0, "change": 6}
    assert summary["digests_equal_pairs"] == 0
    rate = summary["metrics"]["work_per_s"]
    assert rate["change_wins"] == 0
    assert not rate["clears_parent_iqr"] and not rate["within_bound"]
    assert not summary["metrics"]["setup_s"]["within_bound"]
    text = bench_ab.format_summary("mc_sweep", summary)
    assert text.splitlines()[0] == ("mc_sweep: 3 pairs, failed 0/60 parent, 6/60 change, "
                                    "output digests equal in 0/3 pairs")
    assert text.count("OUTSIDE BOUND") == 4  # setup_s, work_per_s, call_p50/p90


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # parent quartiles 90 and 130 around 110: a 36% spread against a 15% bound
    parent = [90.0, 130.0, 110.0, 80.0, 140.0]
    overlapping = bench_ab.summarize(_pairs(parent, [120.0, 125.0, 85.0, 118.0, 122.0]),
                                     SPECS)
    assert overlapping["metrics"]["work_per_s"]["unresolved"]
    assert "UNRESOLVED" in bench_ab.format_summary("gain_stats", overlapping)
    # every change run better than every parent run resolves it
    above = bench_ab.summarize(_pairs(parent, [141.0, 150.0, 160.0, 145.0, 155.0]),
                               SPECS)["metrics"]
    assert not above["work_per_s"]["unresolved"]
    # a tight parent spread resolves it too, whatever the change reads
    tight = bench_ab.summarize(_pairs([100.0, 102.0, 98.0, 101.0, 99.0],
                                      [120.0, 125.0, 85.0, 118.0, 122.0]), SPECS)
    assert not any(m["unresolved"] for m in tight["metrics"].values())


def test_bad_arguments_are_rejected(capsys):
    with pytest.raises(SystemExit):
        bench_ab.parse_args(["a", "b", "--pairs", "0"])
    assert "--pairs" in capsys.readouterr().err


def test_missing_checkout_exits_1(tmp_path, capsys):
    assert bench_ab.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read BENCHMARK.json")


def test_sign_test_interval_takes_the_binomial_order_statistics():
    ratios = [1.0 + 0.01 * k for k in (5, 2, 9, 0, 7, 1, 8, 3, 6, 4)]
    # ten pairs: the 2nd and 9th smallest cover the median with 97.9%
    assert bench_ab.sign_test_interval(ratios) == (1.01, 1.08)
    assert bench_ab.sign_test_interval(ratios[:5]) is None  # 2/32 > 5%
    # 2000 pairs, where 2.0 ** n overflows: about n/2 -+ 1.96 sqrt(n) / 2
    assert bench_ab.sign_test_interval(list(range(2000))) == (955, 1044)


def test_in_process_a_a_run_reads_near_one(monkeypatch, capsys):
    # the tree against itself under two package names: equal outputs and
    # well-formed ratios. Their size is wall-clock time on a possibly shared
    # host, so it is not asserted; the quartile and sign-test arithmetic is
    # pinned on fixed inputs by the tests above
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert bench_ab.main([str(REPO_ROOT), str(REPO_ROOT), "--in-process",
                          "--workload", "mc_sweep", "--pairs", "3"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["mc_sweep"]
    assert summary["pairs"] == 3 and summary["outputs_equal"]
    assert all(math.isfinite(summary[key]) and summary[key] > 0
               for key in ("q1", "median_ratio", "q3"))
    assert summary["q1"] <= summary["median_ratio"] <= summary["q3"]
    parent, change = (sys.modules[f"bench_ab_{side}.cli"] for side in ("parent", "change"))
    assert parent is not change and parent.main is not change.main


def test_in_process_gain_stats_compares_every_operation(monkeypatch, capsys):
    # one A/A pair of zone_gain_statistics cycles: each of the 9 operations
    # (3 laws x 3 type/zone cases) gives equal GainStatistics in both trees
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert bench_ab.main([str(REPO_ROOT), str(REPO_ROOT), "--in-process",
                          "--workload", "gain_stats", "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])["gain_stats"]
    assert summary["pairs"] == 1 and summary["outputs_equal"]
    assert summary["operations"] == 9 and len(summary["equal_operations"]) == 9
    assert "uniform_phase/hybrid/reflect" in summary["equal_operations"]
    assert "results equal in 9/9 operations: gaussian/reflective/reflect" in lines[-2]
    # a difference shows as fewer equal operations and a failed output check
    differing = {**bench_ab.summarize_ratios([0.7, 0.8], False),
                 "equal_operations": ["sign/hybrid/reflect"], "operations": 9}
    text = bench_ab.format_ratios("gain_stats", differing)
    assert text.endswith("outputs DIFFER; results equal in 1/9 operations: "
                         "sign/hybrid/reflect")


def test_in_process_refuses_other_workloads(capsys):
    with pytest.raises(SystemExit):
        bench_ab.parse_args(["a", "b", "--in-process", "--workload", "fig2a_sweep"])
    assert "--in-process" in capsys.readouterr().err
