"""The ITP crossing search against an independent reference bisection.

find_thresholds locates each crossing with selection._itp_root on the whole
split range [1, S-1], from the closures' values at its two ends. Every
reported crossing is checked on its own terms (the closures' difference
changes sign across it, or is exactly 0 at it) and against a plain
bisection over [1, S-1], kept here as the oracle. The search's evaluation
counts pin its cost without timing anything.
"""

import math

import numpy as np
import pytest

import ris_select.selection as selection
from conftest import make_config, near_isotropic_config, random_config
from ris_select import (
    RegimeViolationError,
    RisType,
    decide_type,
    find_thresholds,
    link_budget,
)
from ris_select.selection import ROOT_TOL, _curves, _itp_root, crossing_key
from test_curves import _deployments
from test_threshold_scan import _deployment, _endpoint_ties, _noise_deployments

# the curves (in R, T, H order) of each difference find_thresholds reports
PAIRS = ((1, 0), (0, 2), (1, 2))


def _reference_bisection(diff, lo, hi):
    """Root of diff on [lo, hi] by plain bisection to a bracket of ROOT_TOL,
    or None without a sign change (the oracle)."""
    flo, fhi = diff(lo), diff(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_TOL:
            return mid
        fm = diff(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_crossings(deployments) -> int:
    """Assert that every reported crossing x has closure differences of
    opposite sign at x -+ ROOT_TOL (clipped to [1, S-1]) or an exact zero
    at x, and lies within ROOT_TOL of the reference bisection; returns the
    number of crossings checked."""
    checked = 0
    for cfg, budget in deployments:
        try:
            th = find_thresholds(cfg, budget)
        except RegimeViolationError:
            continue
        curves = _curves(crossing_key(cfg, budget))
        lo, hi = 1.0, float(cfg.users_total - 1)
        roots = (th.split_reflect_transmit, th.split_reflect_hybrid,
                 th.split_transmit_hybrid)
        for (i, j), x in zip(PAIRS, roots):
            def diff(v, first=curves[i], second=curves[j]):
                return first(v) - second(v)

            expected = _reference_bisection(diff, lo, hi)
            assert (x is None) == (expected is None)
            if x is None:
                continue
            assert abs(x - expected) <= ROOT_TOL
            below, above = diff(max(lo, x - ROOT_TOL)), diff(min(hi, x + ROOT_TOL))
            assert diff(x) == 0.0 or below < 0.0 < above or above < 0.0 < below
            checked += 1
    return checked


def test_every_crossing_straddles_a_sign_change_and_matches_bisection():
    # the rounding-noise deployments are left out: there the difference
    # changes sign many times, and two searches may stop at different ones
    deployments = [(cfg, link_budget(cfg)) for cfg in _deployments().values()]
    rng = np.random.default_rng(14)
    for draw in [random_config] * 2000 + [near_isotropic_config] * 500:
        cfg = draw(rng)
        deployments.append((cfg, link_budget(cfg)))
    assert _check_crossings(deployments) > 800


def _searches(monkeypatch, deployments) -> list:
    """(points where the difference was evaluated, bracket width) of every
    search that find_thresholds runs, the two end values included."""
    searches = []

    def counted(first, second, lo, hi, flo, fhi):
        calls = [lo, hi]

        def counted_first(x):
            calls.append(x)
            return first(x)

        root = _itp_root(counted_first, second, lo, hi, flo, fhi)
        searches.append((calls, hi - lo))
        return root

    monkeypatch.setattr(selection, "_itp_root", counted)
    for cfg, budget in deployments:
        try:
            find_thresholds(cfg, budget)
        except RegimeViolationError:
            pass
    return searches


def _evaluation_counts(monkeypatch, deployments) -> list:
    """(difference evaluations, bracket width) of every search."""
    return [(len(points), width)
            for points, width in _searches(monkeypatch, deployments)]


def test_searches_stay_within_bisections_count_plus_three(monkeypatch):
    rng = np.random.default_rng(15)

    def draws(law, count):
        return [(cfg, link_budget(cfg)) for cfg in (law(rng) for _ in range(count))]

    random_counts = _evaluation_counts(monkeypatch, draws(random_config, 2000))
    counts = random_counts \
        + _evaluation_counts(monkeypatch, draws(near_isotropic_config, 500)) \
        + _evaluation_counts(monkeypatch, _noise_deployments(rng, 500))
    assert len(random_counts) > 300 and len(counts) > 700
    # bisection takes ceil(log2(width / ROOT_TOL)) steps; ITP at most one
    # more, plus the two end values. A one-point range (S = 2) takes the
    # end values alone.
    for evaluations, width in counts:
        assert evaluations <= (math.ceil(math.log2(width / ROOT_TOL)) + 3
                               if width > 0.0 else 2)


def test_fig2a_searches_take_a_pinned_number_of_evaluations(monkeypatch):
    # the 48 searches of the fig2a preset's 16 cells, each on [1, 9]: 462
    # difference evaluations with k1 = ITP_K1_WIDTH / width (a k1 of 0.1,
    # 0.2 or 0.5 takes 457, 506 or 528; bisection alone about 35 each)
    cells = [(cfg, link_budget(cfg)) for name, cfg in _deployments().items()
             if name.startswith("fig2a/")]
    counts = _evaluation_counts(monkeypatch, cells)
    assert len(counts) == 48 and {width for _, width in counts} == {8.0}
    assert sum(evaluations for evaluations, _ in counts) == 462


def test_no_search_evaluates_a_point_twice(monkeypatch):
    # once the bracket is about 1e-6 wide, the truncation step falls below
    # the float spacing and a one-sided regula falsi step can land on an
    # end already evaluated (in the fig2a cells at 20, 40 and 44 dBm); the
    # search must bisect there instead
    rng = np.random.default_rng(16)
    cfgs = list(_deployments().values()) \
        + [random_config(rng) for _ in range(500)] \
        + [near_isotropic_config(rng) for _ in range(200)]
    searches = _searches(monkeypatch, [(cfg, link_budget(cfg)) for cfg in cfgs])
    assert len(searches) > 300
    for points, width in searches:
        # a one-point bracket is its own two ends
        assert len(set(points)) == len(points) or width == 0.0, points


def test_edge_brackets(monkeypatch):
    # S = 2: both ends are split 1, a range of one point that returns it
    # (or None) at once, from the two end values alone
    def first(x):
        return 0.0

    assert _itp_root(first, first, 1.0, 1.0, 0.0, 0.0) == 1.0
    assert _itp_root(first, lambda x: 1.0, 1.0, 1.0, -1.0, -1.0) is None
    assert _evaluation_counts(monkeypatch, [_deployment(2, big_l) for big_l in
                                            (None, 1e-3, 1.0, 1e3)]) == [(2, 0.0)] * 12
    monkeypatch.undo()
    deployments = []
    for users in (2, 3):
        for eps_t in (1.0, 0.95, 0.5, 0.02):
            for big_l in (None, 1e-3, 1.0, 1e3):
                deployments.append(_deployment(users, big_l, radiation_reflect=1.0,
                                               radiation_transmit=eps_t))
    # crossings exactly at an end point, in closure arithmetic
    for cfg, budget, end in _endpoint_ties():
        assert find_thresholds(cfg, budget).split_reflect_transmit == end
        deployments.append((cfg, budget))
    assert _check_crossings(deployments) >= 20


@pytest.mark.parametrize("users", [4, 6, 10])
def test_equal_radiation_crosses_at_exactly_half(users):
    # mirror-image single-zone curves meet at S/2 exactly; at that split
    # (low SNR, so hybrid loses) the table and the brute force both say
    # reflective, the brute force by its tie rule
    for eps in (1.0, 0.5, 0.02):
        cfg = make_config(users_total=users, users_transmission=users // 2,
                          radiation_reflect=eps, radiation_transmit=eps,
                          rows=10, cols=10, bs_ris_distance=200.0,
                          ris_ue_distance=200.0)
        budget = link_budget(cfg)
        assert find_thresholds(cfg, budget).split_reflect_transmit == users / 2
        decision = decide_type(cfg, budget)
        assert decision.optimal is RisType.REFLECTIVE
        assert decision.brute_force_optimal is RisType.REFLECTIVE
        assert decision.agrees
