"""The array scan of the threshold search against the scalar scan it replaced.

`_scalar_find_thresholds` is the search as it was before the scan became
one array pass: every curve evaluated by its closure at each grid point,
and each root searched on the grid interval where the closures' signs
change. The array scan must give the same crossings and the same violation
verdicts, bit for bit, in its one-call form and with entries from one
`scan_differences` call over many tuples.
"""

import math
import operator
from dataclasses import replace

import numpy as np

from conftest import make_config, near_isotropic_config, random_config
from ris_select import (
    RegimeViolationError,
    RisType,
    find_thresholds,
    link_budget,
    type_curves,
)
from ris_select.capacity import _type_curves, type_rate_arrays
from ris_select.selection import (
    NO_CROSSING,
    NOT_MONOTONE,
    SCAN_GUARD,
    SCAN_POINTS,
    UNSURE,
    SelectionThresholds,
    _itp_root,
    _regime_report,
    _sign_pattern_monotone,
    crossing_key,
    scan_differences,
)
from test_curves import _deployments


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


def _outcome(search, *args):
    """The crossings as float.hex strings, or the violation message."""
    try:
        th = search(*args)
    except RegimeViolationError as exc:
        return ("violation", str(exc))
    return tuple(None if v is None else float(v).hex() for v in (
        th.split_reflect_transmit, th.split_reflect_hybrid,
        th.split_transmit_hybrid, th.rate_at_equal_split))


def _assert_scan_matches_oracle(deployments):
    """One-call and batched searches equal the oracle; returns the number of
    scanned values left to the closures and the violations seen."""
    keys = [crossing_key(cfg, budget) for cfg, budget in deployments]
    signs, brackets = scan_differences(keys)
    violations = 0
    for (cfg, budget), row, bracket in zip(deployments, signs, brackets.tolist()):
        expected = _outcome(_scalar_find_thresholds, cfg, budget)
        assert _outcome(find_thresholds, cfg, budget) == expected, \
            crossing_key(cfg, budget)
        assert _outcome(find_thresholds, cfg, budget, (row, bracket)) == expected
        violations += expected[0] == "violation"
    return int(np.isnan(signs[:, :, 1:-1]).sum()), violations


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
    # a scanned value is NaN or has the closures' sign at that grid point,
    # and a row's bracket code follows from its signs: UNSURE with a NaN,
    # else the one sign change in the difference's direction (rising for
    # the first and third difference, falling for the second), NO_CROSSING
    # without a change and NOT_MONOTONE otherwise
    rng = np.random.default_rng(5)
    codes = set()
    for _ in range(200):
        cfg = near_isotropic_config(rng)
        budget = link_budget(cfg)
        signs, brackets = scan_differences([crossing_key(cfg, budget)])
        curves = [rate for rate, _ in type_curves(cfg, budget).values()]
        grid = np.linspace(1.0, cfg.users_total - 1.0, SCAN_POINTS).tolist()
        for (i, j), values, bracket, rising in zip(
                ((1, 0), (0, 2), (1, 2)), signs[0].tolist(), brackets[0].tolist(),
                (True, False, True)):
            for x, value in zip(grid, values):
                if not math.isnan(value):
                    exact = curves[i](x) - curves[j](x)
                    assert (value > 0.0) == (exact > 0.0) and exact != 0.0
            changes = [k for k in range(SCAN_POINTS - 1) if values[k] != values[k + 1]]
            if any(map(math.isnan, values)):
                expected = UNSURE
            elif not changes:
                expected = NO_CROSSING
            elif len(changes) == 1 and (values[changes[0]] < 0.0) == rising:
                expected = changes[0]
            else:
                expected = NOT_MONOTONE
            assert bracket == expected
            codes.add(min(bracket, 0))
    assert codes >= {0, NO_CROSSING}


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
    signs, brackets = scan_differences(keys)
    assert signs.shape == (len(keys), 3, SCAN_POINTS)
    assert brackets.shape == (len(keys), 3)
    for key, row, bracket in zip(keys, signs, brackets):
        alone_signs, alone_brackets = scan_differences([key])
        np.testing.assert_array_equal(alone_signs[0], row)
        np.testing.assert_array_equal(alone_brackets[0], bracket)
