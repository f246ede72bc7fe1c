"""The Anderson-Bjorck crossing search against an independent reference
bisection.

find_thresholds locates each crossing with selection._ab_root on the whole
split range [1, S-1], from the closures' values at its two ends. Every
reported crossing is checked on its own terms (the closures' difference
changes sign across it, or is exactly 0 at it) and against a plain
bisection over [1, S-1] (conftest.reference_bisection), the oracle. The
search's evaluation counts pin its cost without timing anything.
"""

import math

import numpy as np
import pytest

import ris_select.selection as selection
from conftest import (
    make_config,
    near_isotropic_config,
    random_config,
    reference_bisection,
)
from ris_select import (
    RegimeViolationError,
    RisType,
    decide_type,
    find_thresholds,
    link_budget,
)
from ris_select.selection import ROOT_TOL, _ab_root, _curves, crossing_key
from test_curves import _deployments
from test_threshold_scan import _deployment, _endpoint_ties, _noise_deployments

# the curves (in R, T, H order) of each difference find_thresholds reports
PAIRS = ((1, 0), (0, 2), (1, 2))


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

            expected = reference_bisection(diff, lo, hi)
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

        root = _ab_root(counted_first, second, lo, hi, flo, fhi)
        searches.append((calls, hi - lo))
        return root

    monkeypatch.setattr(selection, "_ab_root", counted)
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


def _bisected(counts) -> int:
    """Assert that every (difference evaluations, bracket width) of `counts`
    is within the search's worst case: 2 n steps plus the two end values,
    where n = ceil(log2(width / ROOT_TOL)) is bisection's step count (a
    one-point range, S = 2, takes the end values alone). Returns how many
    searches went past n steps, where the search bisects."""
    bisected = 0
    for evaluations, width in counts:
        n = math.ceil(math.log2(width / ROOT_TOL)) if width > 0.0 else 0
        assert evaluations <= 2 * n + 2
        bisected += evaluations > n + 2
    return bisected


def test_searches_stay_within_the_worst_case_and_never_bisect(monkeypatch):
    def draws(law, seed, count):
        rng = np.random.default_rng(seed)
        return [(cfg, link_budget(cfg)) for cfg in (law(rng) for _ in range(count))]

    sets = (draws(random_config, 15, 2000), draws(near_isotropic_config, 14, 500),
            _noise_deployments(np.random.default_rng(3), 2000))
    maxima = []
    for deployments in sets:
        counts = _evaluation_counts(monkeypatch, deployments)
        assert len(counts) > 1000 and _bisected(counts) == 0
        maxima.append(max(evaluations for evaluations, _ in counts))
    # the ITP search this one replaced took up to 36, 37 and 32
    assert maxima == [12, 14, 17]


def test_fig2a_searches_take_a_pinned_number_of_evaluations(monkeypatch):
    # the 48 searches of the fig2a preset's 16 cells, each on [1, 9]: 390
    # difference evaluations (the ITP search this one replaced took 462,
    # bisection alone about 35 each)
    cells = [(cfg, link_budget(cfg)) for name, cfg in _deployments().items()
             if name.startswith("fig2a/")]
    counts = _evaluation_counts(monkeypatch, cells)
    assert len(counts) == 48 and {width for _, width in counts} == {8.0}
    assert _bisected(counts) == 0
    assert sum(evaluations for evaluations, _ in counts) == 390


def test_a_flat_one_sided_difference_ends_by_bisection():
    # (x - 1)^20 - 1e-6 is flat left of its root (about 1.5) and steep right
    # of it: each regula falsi step lands just right of the left end, where
    # the difference is nearly its value there, so the kept right end value
    # is only halved and the steps creep. After bisection's 33 steps the
    # search bisects, and still ends within the worst case.
    def diff(x):
        return (x - 1.0) ** 20 - 1e-6

    points = []

    def counted(x):
        points.append(x)
        return diff(x)

    root = _ab_root(counted, lambda x: 0.0, 1.0, 9.0, diff(1.0), diff(9.0))
    assert _bisected([(len(points) + 2, 8.0)]) == 1
    assert abs(root - reference_bisection(diff, 1.0, 9.0)) <= ROOT_TOL
    assert diff(root - 0.5 * ROOT_TOL) < 0.0 < diff(root + 0.5 * ROOT_TOL)


def test_no_search_evaluates_a_point_twice(monkeypatch):
    # a regula falsi step that rounding puts on an end already evaluated
    # must take the midpoint instead
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

    assert _ab_root(first, first, 1.0, 1.0, 0.0, 0.0) == 1.0
    assert _ab_root(first, lambda x: 1.0, 1.0, 1.0, -1.0, -1.0) is None
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
