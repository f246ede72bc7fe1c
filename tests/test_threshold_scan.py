"""The whole-interval crossing search against the grid scan it replaced.

`_scalar_find_thresholds` is the search as it was before the rate
differences were proved monotone: every curve evaluated by its closure at
each point of a 100-point grid on [1, S-1], a sign pattern that changes
sign against the difference's direction rejected as a regime violation, and
each root found by plain bisection (conftest.reference_bisection) on the
grid interval where the closures' signs change.
The search that replaced it (`find_thresholds`, and `decide_types` over many
tuples) runs on the whole range [1, S-1] and rejects only a difference that
is rounding noise at both ends. It must find every crossing the oracle finds
to within ROOT_TOL, and reject every deployment the oracle rejects.
"""

import math
import operator
from dataclasses import replace

import numpy as np

from conftest import (
    make_config,
    near_isotropic_config,
    random_config,
    reference_bisection,
)
from ris_select import (
    RegimeViolationError,
    RisType,
    brute_force_optimal,
    find_thresholds,
    link_budget,
    type_curves,
)
from ris_select.capacity import _type_curves
from ris_select.selection import (
    ROOT_TOL,
    SelectionThresholds,
    _regime_report,
    decide_types,
)

SCAN_POINTS = 100  # the oracle's grid


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
    """The closure-only scan and a plain bisection of each grid interval
    (the reference)."""
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
        roots.append(reference_bisection(lambda x, f=first, g=second: f(x) - g(x),
                                         grid[k], grid[m]))
    split_rt, split_rh, split_th = roots
    rate_eq = c_reflect(split_rt) if split_rt is not None else None
    return SelectionThresholds(split_rt, split_rh, split_th, rate_eq)


def _splits(th):
    """The three crossings of a SelectionThresholds."""
    return (th.split_reflect_transmit, th.split_reflect_hybrid,
            th.split_transmit_hybrid)


def _outcome(search, *args):
    """The thresholds, or None for a regime violation."""
    try:
        return search(*args)
    except RegimeViolationError:
        return None


def _batched_outcomes(deployments) -> list:
    """_outcome of each deployment's crossings at split 1, from one
    decide_types call over all of them."""
    cfgs = [replace(cfg, users_transmission=1) for cfg, _ in deployments]
    budgets = [budget for _, budget in deployments]
    regimes = [_regime_report(cfg, budget) for cfg, budget in zip(cfgs, budgets)]
    winners = [brute_force_optimal(cfg, budget)[0] for cfg, budget in zip(cfgs, budgets)]
    return [None if violation is not None else decision.thresholds
            for decision, violation in decide_types(cfgs, budgets, regimes, winners)]


def _compare_with_oracle(deployments, resolved=True):
    """Assert that the batched search equals the one-call search, and that
    it rejects every deployment the oracle rejects; with `resolved`, also
    that it rejects no other and finds each of the oracle's crossings
    within ROOT_TOL. Returns the oracle's and the search's rejections."""
    rejected = [0, 0]
    for (cfg, budget), batched in zip(deployments, _batched_outcomes(deployments)):
        expected = _outcome(_scalar_find_thresholds, cfg, budget)
        found = _outcome(find_thresholds, cfg, budget)
        assert batched == found
        rejected[0] += expected is None
        rejected[1] += found is None
        if expected is None:
            assert found is None, (cfg, budget)
        elif resolved:
            assert found is not None, (cfg, budget)
            for want, got in zip(_splits(expected), _splits(found)):
                assert (want is None) == (got is None)
                assert want is None or abs(want - got) <= ROOT_TOL, (cfg, budget)
    return tuple(rejected)


def test_scan_matches_scalar_oracle_over_random_deployments():
    rng = np.random.default_rng(20261018)
    deployments = []
    for draw in [random_config] * 2000 + [near_isotropic_config] * 500:
        cfg = draw(rng)
        deployments.append((cfg, link_budget(cfg)))
    assert _compare_with_oracle(deployments) == (0, 0)
    # where rounding noise breaks the oracle's sign patterns, the search
    # rejects every deployment the oracle rejects, and some more
    oracle, search = _compare_with_oracle(_noise_deployments(rng, 500), resolved=False)
    assert 10 < oracle < search


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
    assert len(ties) >= 6
    assert _compare_with_oracle(deployments) == (1, 1)  # the NaN link constant
    for cfg, budget, end in ties:
        assert find_thresholds(cfg, budget).split_reflect_transmit == end
