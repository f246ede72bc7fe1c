"""The array scan of the threshold search against the scalar scan it replaced.

`_scalar_find_thresholds` is the search as it was before the scan became
one array pass: every curve evaluated by its closure at each grid point,
and each root searched on the grid interval where the closures' signs
change. The array scan must give the same crossings and the same violation
verdicts, bit for bit, in its one-call form (`find_thresholds`) and in one
`decide_types` call over many tuples.
"""

import math
import operator
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_config, near_isotropic_config, random_config
from ris_select import (
    RegimeViolationError,
    RisType,
    brute_force_optimal,
    find_thresholds,
    link_budget,
    type_curves,
)
from ris_select import selection
from ris_select.capacity import _type_curves, type_rate_arrays
from ris_select.selection import (
    NO_CROSSING,
    NOT_MONOTONE,
    SCAN_GUARD,
    SCAN_POINTS,
    SelectionThresholds,
    _itp_root,
    _regime_report,
    crossing_key,
    decide_types,
    scan_differences,
)
from test_curves import _deployments


def _sign_pattern_monotone(values, increasing: bool) -> bool:
    """True when the nonzero signs of `values` change at most once, and then
    from negative to positive if `increasing` (positive to negative if not).

    Zeros are skipped; any NaN makes the pattern non-monotone.
    """
    if any(map(math.isnan, values)):
        return False
    signs = [v > 0.0 for v in values if v != 0.0]
    # the one allowed change leads to `increasing`; nothing may follow it
    return increasing not in signs \
        or (not increasing) not in signs[signs.index(increasing):]


def test_sign_pattern_validator():
    assert _sign_pattern_monotone([-1.0, -0.5, 0.5, 1.0], increasing=True)
    assert _sign_pattern_monotone([1.0, 0.5, -0.5, -1.0], increasing=False)
    assert _sign_pattern_monotone([1.0, 2.0, 3.0], increasing=True)
    assert _sign_pattern_monotone([0.0, 0.0], increasing=True)
    assert not _sign_pattern_monotone([1.0, -1.0, 1.0], increasing=True)
    assert not _sign_pattern_monotone([-1.0, 1.0, -1.0], increasing=False)


def test_sign_pattern_rejects_nan_among_finite_values():
    nan = float("nan")
    assert not _sign_pattern_monotone([-1.0, nan, 1.0], increasing=True)
    assert not _sign_pattern_monotone([1.0, nan, -1.0], increasing=False)
    assert not _sign_pattern_monotone([-1.0, -1.0, nan], increasing=True)
    assert not _sign_pattern_monotone([nan, 0.0, -1.0], increasing=False)


def _oracle_bracket(values):
    """Grid indices (k, m) of the search interval: the last value with the
    first value's sign and the first value with the other sign, or the whole
    grid when an end value is 0 or both ends share a sign."""
    if values[0] == 0.0 or values[-1] == 0.0 or (values[0] > 0.0) == (values[-1] > 0.0):
        return 0, len(values) - 1
    first = [v != 0.0 and (v > 0.0) == (values[0] > 0.0) for v in values]
    other = [v != 0.0 and (v > 0.0) != (values[0] > 0.0) for v in values]
    return len(first) - 1 - first[::-1].index(True), other.index(True)


def _scalar_find_thresholds(cfg, budget):
    """The closure-only scan and root search (the reference)."""
    if cfg.users_total < 2:
        raise ValueError("threshold search needs at least two users")
    c_reflect, c_transmit, c_hybrid = (
        rate for rate, _ in type_curves(cfg, budget).values())
    lo, hi = 1.0, float(cfg.users_total - 1)
    grid = np.linspace(lo, hi, SCAN_POINTS).tolist()
    reflect = list(map(c_reflect, grid))
    transmit = list(map(c_transmit, grid))
    hybrid = list(map(c_hybrid, grid))
    differences = (
        ("transmissive minus reflective", c_transmit, c_reflect, transmit, reflect,
         True),
        ("reflective minus hybrid", c_reflect, c_hybrid, reflect, hybrid, False),
        ("transmissive minus hybrid", c_transmit, c_hybrid, transmit, hybrid, True),
    )
    roots = []
    for name, first, second, first_values, second_values, increasing in differences:
        values = list(map(operator.sub, first_values, second_values))
        if not _sign_pattern_monotone(values, increasing):
            raise RegimeViolationError(
                f"approximation regime violated: the {name} difference is not "
                f"monotone over the user split",
                regime=_regime_report(cfg, budget),
            )
        k, m = _oracle_bracket(values)
        roots.append(_itp_root(first, second, grid[k], grid[m]))
    split_rt, split_rh, split_th = roots
    rate_eq = c_reflect(split_rt) if split_rt is not None else None
    return SelectionThresholds(split_rt, split_rh, split_th, rate_eq)


def _hexes(th):
    """The crossings as float.hex strings."""
    return tuple(None if v is None else float(v).hex() for v in (
        th.split_reflect_transmit, th.split_reflect_hybrid,
        th.split_transmit_hybrid, th.rate_at_equal_split))


def _outcome(search, *args):
    """The crossings as float.hex strings, or the violation message."""
    try:
        th = search(*args)
    except RegimeViolationError as exc:
        return ("violation", str(exc))
    return _hexes(th)


def _batched_outcomes(deployments) -> list:
    """_outcome of each deployment's crossings at split 1, from one
    decide_types call over all of them."""
    cfgs = [replace(cfg, users_transmission=1) for cfg, _ in deployments]
    budgets = [budget for _, budget in deployments]
    regimes = [_regime_report(cfg, budget) for cfg, budget in zip(cfgs, budgets)]
    winners = [brute_force_optimal(cfg, budget)[0] for cfg, budget in zip(cfgs, budgets)]
    return [("violation", str(violation)) if violation is not None
            else _hexes(decision.thresholds)
            for decision, violation in decide_types(cfgs, budgets, regimes, winners)]


def _closure_evaluations(keys) -> int:
    """The number of differences that scan_differences(keys) takes from the
    rate closures, counted by a spy on the selection._curves seam."""
    calls = []

    def counted(rate):
        def rate_counted(x):
            calls.append(x)
            return rate(x)
        return rate_counted

    closures = selection._curves
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_curves", lambda key: tuple(map(counted, closures(key))))
        scan_differences(keys)
    return len(calls) // 2


def _assert_scan_matches_oracle(deployments):
    """One-call and batched searches equal the oracle; returns the number of
    scanned differences taken from the closures and the violations seen."""
    unsure = _closure_evaluations([crossing_key(cfg, budget)
                                   for cfg, budget in deployments])
    violations = 0
    for (cfg, budget), batched in zip(deployments, _batched_outcomes(deployments)):
        expected = _outcome(_scalar_find_thresholds, cfg, budget)
        assert _outcome(find_thresholds, cfg, budget) == expected, \
            crossing_key(cfg, budget)
        assert batched == expected
        violations += expected[0] == "violation"
    return unsure, violations


def test_scan_matches_scalar_oracle_over_random_deployments():
    rng = np.random.default_rng(20261018)
    deployments = []
    for draw in [random_config] * 2000 + [near_isotropic_config] * 500:
        cfg = draw(rng)
        deployments.append((cfg, link_budget(cfg)))
    assert _assert_scan_matches_oracle(deployments) == (0, 0)
    # many scanned differences sit under the guard, and rounding noise
    # breaks some sign patterns
    unsure, violations = _assert_scan_matches_oracle(_noise_deployments(rng, 500))
    assert unsure > 1000 and violations > 10


def _noise_deployments(rng, count):
    """(cfg, budget) pairs at low SNR with (nearly) equal radiation
    constants, where the three rates agree to about eps / L relative."""
    deployments = []
    for _ in range(count):
        cfg = random_config(rng)
        eps_r = cfg.panel.radiation_reflect
        eps_t = eps_r if rng.uniform() < 0.5 \
            else min(1.0, eps_r * (1.0 + rng.uniform(-1e-9, 1e-9)))
        cfg = replace(cfg, panel=replace(cfg.panel, radiation_transmit=eps_t))
        budget = replace(link_budget(cfg), link_constant=10.0 ** rng.uniform(4.0, 16.0))
        deployments.append((cfg, budget))
    return deployments


def _endpoint_tie(users, eps_r, big_l, at_low_end):
    """An eps_t for which the closures' transmissive minus reflective
    difference is exactly 0 at split 1 (or S - 1), or None."""
    n = users - 1
    # the transmissive rate at one end equals the reflective rate there
    if at_low_end:
        eps_t = big_l * math.expm1(n * math.log1p(eps_r / (big_l * n)))
    else:
        eps_t = big_l * n * math.expm1(math.log1p(eps_r / big_l) / n)
    x = 1.0 if at_low_end else float(n)
    for _ in range(200):
        curves = _type_curves(users, eps_r, eps_t, big_l)
        d = curves[RisType.TRANSMISSIVE][0](x) - curves[RisType.REFLECTIVE][0](x)
        if d == 0.0:
            return eps_t
        eps_t = math.nextafter(eps_t, -math.inf if d > 0.0 else math.inf)
    return None


def _deployment(users, big_l=None, **panel):
    """A reference deployment with S users, one of them transmission-side,
    the given radiation constants and, if given, link constant."""
    cfg = make_config(users_total=users, users_transmission=1, **panel)
    budget = link_budget(cfg)
    if big_l is not None:
        budget = replace(budget, link_constant=big_l)
    return cfg, budget


def _endpoint_ties() -> list:
    """(cfg, budget, end) for deployments whose transmissive minus
    reflective difference is exactly 0 at split end = 1 or S - 1."""
    ties = []
    for users in (3, 6, 11):
        for big_l in (2.0, 9.0, 40.0):
            for low in (True, False):
                eps_t = _endpoint_tie(users, 0.5, big_l, low)
                if eps_t is None or not 0.0 < eps_t <= 1.0:
                    continue
                cfg, budget = _deployment(users, big_l, radiation_reflect=0.5,
                                          radiation_transmit=eps_t)
                ties.append((cfg, budget, 1.0 if low else users - 1.0))
    return ties


def test_scan_matches_scalar_oracle_on_constructed_ties():
    deployments = []
    # equal radiation: the single-zone curves are mirror images, and with
    # S = 2 every grid point is split 1, where each difference is 0 or a
    # difference of equal expressions
    for users in (2, 3, 10):
        for eps in (1.0, 0.5, 0.02):
            deployments.append(_deployment(users, radiation_reflect=eps,
                                           radiation_transmit=eps))
    # crossings exactly at either end point, in closure arithmetic
    ties = _endpoint_ties()
    for cfg, budget, end in ties:
        assert _scalar_find_thresholds(cfg, budget).split_reflect_transmit == end
        deployments.append((cfg, budget))
    # a NaN link constant (set behind the budget's range check)
    deployments.append(_deployment(10, math.nan))
    unsure, violations = _assert_scan_matches_oracle(deployments)
    assert len(ties) >= 6
    assert unsure >= SCAN_POINTS  # the ties did reach the closures
    assert violations >= 1  # the NaN link constant


def test_every_scanned_sign_is_the_closures_or_nan():
    # every scanned value is np.sign of the closures' difference at its grid
    # point (NaN where that difference is NaN), guarded points included, and
    # every bracket is the oracle's (k, m), or its code: NOT_MONOTONE for a
    # pattern the oracle rejects, NO_CROSSING for two ends of one sign
    rng = np.random.default_rng(5)
    deployments = [(cfg, link_budget(cfg))
                   for cfg in (near_isotropic_config(rng) for _ in range(200))]
    deployments += _noise_deployments(rng, 200)
    keys = [crossing_key(cfg, budget) for cfg, budget in deployments]
    assert _closure_evaluations(keys) > 1000
    signs, low, high = scan_differences(keys)
    codes = set()
    for key, rows, row_low, row_high in zip(keys, signs.tolist(), low.tolist(),
                                            high.tolist()):
        curves = [rate for rate, _ in _type_curves(*key).values()]
        grid = np.linspace(1.0, key[0] - 1.0, SCAN_POINTS).tolist()
        for (i, j), values, k, m, rising in zip(
                ((1, 0), (0, 2), (1, 2)), rows, row_low, row_high, (True, False, True)):
            exact = [curves[i](x) - curves[j](x) for x in grid]
            np.testing.assert_array_equal(values, np.sign(exact))
            if not _sign_pattern_monotone(exact, rising):
                assert k == NOT_MONOTONE, key
            elif exact[0] * exact[-1] > 0.0:
                assert k == NO_CROSSING, key
            else:
                assert (k, m) == _oracle_bracket(exact), key
            codes.add(min(k, 0))
    assert codes == {0, NO_CROSSING, NOT_MONOTONE}


def test_one_nan_at_the_sign_change_breaks_its_row(monkeypatch):
    # a NaN counts as a -1 and as a +1, so a lone NaN in place of a row's
    # first +1 is both its last -1 and its first +1; the row still breaks
    cfg, budget = _deployment(10)
    key = crossing_key(cfg, budget)
    _, low, high = scan_differences([key])
    assert low[0, 0] >= 0  # transmissive minus reflective crosses
    x = float(np.linspace(1.0, 9.0, SCAN_POINTS)[high[0, 0]])
    arrays, closures = selection.type_rate_arrays, selection._curves

    def nan_arrays(s, eps_r, eps_t, big_l, split):
        reflect, transmit, hybrid = arrays(s, eps_r, eps_t, big_l, split)
        return reflect, np.where(split == x, np.nan, transmit), hybrid

    def nan_closures(key):
        reflect, transmit, hybrid = closures(key)
        return reflect, lambda v: math.nan if v == x else transmit(v), hybrid

    monkeypatch.setattr(selection, "type_rate_arrays", nan_arrays)
    monkeypatch.setattr(selection, "_curves", nan_closures)
    signs, low, _ = scan_differences([key])
    assert np.isnan(signs[0, 0]).sum() == 1
    assert low[0, 0] == NOT_MONOTONE


def test_array_rates_match_the_closures():
    # the guard's margin: the array rates stay within 1e-14 relative of the
    # closures (np.log1p differs from math.log1p by at most an ulp or so),
    # far inside SCAN_GUARD
    worst = 0.0
    for cfg in _deployments().values():
        budget = link_budget(cfg)
        s = cfg.users_total
        eps_r, eps_t = cfg.panel.radiation_reflect, cfg.panel.radiation_transmit
        x = np.concatenate([np.linspace(1.0, s - 1.0, SCAN_POINTS),
                            [1e-9, 0.5 / s, s / 3.0, s - 0.5 / s, s - 1e-9]])
        arrays = type_rate_arrays(s, eps_r, eps_t, budget.link_constant, x)
        for (rate, _), values in zip(type_curves(cfg, budget).values(), arrays):
            exact = np.array([rate(v) for v in x.tolist()])
            worst = max(worst, float(np.max(np.abs(values - exact) / np.abs(exact))))
    assert worst <= 1e-14
    assert 1e-14 <= SCAN_GUARD / 100.0


def test_scan_rows_do_not_depend_on_the_batch():
    # a tuple's row is the same alone, in a batch, and in a batch of mixed S
    rng = np.random.default_rng(9)
    keys = []
    for _ in range(40):
        cfg = random_config(rng)
        keys.append(crossing_key(cfg, link_budget(cfg)))
    keys.append((2, 0.5, 0.5, 3.0))
    signs, low, high = scan_differences(keys)
    assert signs.shape == (len(keys), 3, SCAN_POINTS)
    assert low.shape == high.shape == (len(keys), 3)
    for key, row, row_low, row_high in zip(keys, signs, low, high):
        alone_signs, alone_low, alone_high = scan_differences([key])
        np.testing.assert_array_equal(alone_signs[0], row)
        np.testing.assert_array_equal(alone_low[0], row_low)
        np.testing.assert_array_equal(alone_high[0], row_high)
