"""Crossover thresholds, decision table, monotonicity and asymptotics."""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    make_config,
    near_isotropic_config,
    random_config,
    regime_report,
    wiggle_hybrid_curve,
)
from ris_select import (
    RisType,
    asymptotic_checks,
    brute_force_optimal,
    dbm_to_watts,
    decide_type,
    find_thresholds,
    link_budget,
    monotonicity_certificate,
)
from ris_select import selection
from ris_select.selection import (
    CertificateError,
    _f_lemma,
    _sign_pattern_monotone,
    single_zone_slope,
)

LN2 = math.log(2.0)


def _cfg_and_budget(**overrides):
    cfg = make_config(**overrides)
    return cfg, link_budget(cfg)


# --- thresholds ------------------------------------------------------------------

def test_isotropic_even_population_splits_in_half():
    cfg, budget = _cfg_and_budget(radiation_transmit=1.0)
    thresholds = find_thresholds(cfg, budget)
    assert thresholds.split_reflect_transmit == pytest.approx(5.0, abs=1e-9)


def test_reflect_transmit_split_against_dense_scan():
    cfg, budget = _cfg_and_budget(rows=100, cols=100, bs_ris_distance=100.0,
                                  ris_ue_distance=100.0)
    thresholds = find_thresholds(cfg, budget)

    # independent oracle: inline formulas scanned at step 1e-4
    p_t = 10.0 ** 1.3
    sigma_sq = 10.0 ** -12.6
    cos_sq = (100.0 ** 2 - 15.0 ** 2) / 100.0 ** 2
    big_l = (64.0 * math.pi ** 3 * (100.0 * 100.0) ** 2 * sigma_sq
             / (p_t * 0.01 * 0.02 * 0.02 * cos_sq * 12 * 10000))
    grid = np.arange(1.0, 9.0 + 1e-12, 1e-4)
    diff = (grid * np.log2(1.0 + 0.95 / (big_l * grid))
            - (10.0 - grid) * np.log2(1.0 + 1.0 / (big_l * (10.0 - grid))))
    crossing = grid[np.searchsorted(diff > 0, True)]
    assert thresholds.split_reflect_transmit == pytest.approx(crossing, abs=2e-4)
    assert thresholds.split_reflect_transmit == pytest.approx(5.047033265, abs=1e-6)
    # near-isotropic patterns keep the crossing close to the even split
    assert abs(thresholds.split_reflect_transmit - 5.0) < 0.5


def test_reference_thresholds_frozen():
    cfg, budget = _cfg_and_budget()
    th = find_thresholds(cfg, budget)
    assert th.split_reflect_transmit == pytest.approx(5.032394081, abs=5e-9)
    assert th.split_reflect_hybrid == pytest.approx(2.037754383, abs=5e-9)
    assert th.split_transmit_hybrid == pytest.approx(7.993273595, abs=5e-9)
    assert th.rate_at_equal_split == pytest.approx(35.50642262, abs=1e-6)


def test_thresholds_satisfy_root_validity():
    from ris_select.selection import _curves

    cfg, budget = _cfg_and_budget()
    th = find_thresholds(cfg, budget)
    c_reflect, c_transmit, c_hybrid = _curves(cfg, budget)
    pairs = [
        (th.split_reflect_transmit, lambda x: c_transmit(x) - c_reflect(x)),
        (th.split_reflect_hybrid, lambda x: c_reflect(x) - c_hybrid(x)),
        (th.split_transmit_hybrid, lambda x: c_transmit(x) - c_hybrid(x)),
    ]
    for root, diff in pairs:
        slope = (diff(root + 1e-6) - diff(root - 1e-6)) / 2e-6
        assert abs(diff(root)) <= 10.0 * 1e-9 * abs(slope)


def test_hybrid_dominance_leaves_thresholds_absent():
    # a panel large enough that the hybrid curve dominates on the whole range
    cfg, budget = _cfg_and_budget(rows=350, cols=350)
    th = find_thresholds(cfg, budget)
    assert th.split_reflect_transmit is not None
    assert th.split_reflect_hybrid is None
    assert th.split_transmit_hybrid is None


def test_threshold_needs_two_users():
    cfg, budget = _cfg_and_budget(users_total=1, users_transmission=0,
                                  rows=2, cols=2)
    with pytest.raises(ValueError):
        find_thresholds(cfg, budget)


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


def test_nan_power_raises_regime_violation():
    import ris_select.selection as selection

    cfg = make_config()
    # The constructor rejects a NaN power; set it behind the check so the
    # threshold scan itself sees the NaN link constant it produces.
    object.__setattr__(cfg, "transmit_power", math.nan)
    budget = link_budget(cfg)
    assert math.isnan(budget.link_constant)
    with pytest.raises(selection.RegimeViolationError):
        find_thresholds(cfg, budget)


def test_decide_type_thresholds_never_stale():
    # decide_type searches for the crossings of each call itself (a caller
    # may pass them in); each cell must see its own thresholds.
    from conftest import random_config
    import ris_select.selection as selection

    rng = np.random.default_rng(2024)
    cells = []
    for _ in range(12):
        cfg = random_config(rng)
        # near-equal radiation constants, so the curves do cross; each
        # variant follows its base and changes one input of the crossings
        cfg = replace(cfg, panel=replace(
            cfg.panel, radiation_reflect=float(rng.uniform(0.9, 1.0)),
            radiation_transmit=float(rng.uniform(0.9, 1.0))))
        cells += [
            cfg,
            replace(cfg, transmit_power=2.0 * cfg.transmit_power),
            cfg,
            replace(cfg, panel=replace(
                cfg.panel, radiation_transmit=0.97 * cfg.panel.radiation_transmit)),
            cfg,
            replace(cfg, panel=replace(
                cfg.panel, radiation_reflect=0.97 * cfg.panel.radiation_reflect)),
        ]
    base = make_config(users_total=9, radiation_transmit=0.9)
    cells += [replace(base, users_transmission=s) for s in range(10)]
    cells += [replace(cells[-1], users_total=10, users_transmission=s)
              for s in range(1, 10)]

    interior = crossing = 0
    for cfg in cells:
        budget = link_budget(cfg)
        if not 1 <= cfg.users_transmission <= cfg.users_total - 1:
            continue
        try:
            expected = find_thresholds(cfg, budget)
        except selection.RegimeViolationError:
            with pytest.raises(selection.RegimeViolationError):
                decide_type(cfg, budget)
            continue
        assert decide_type(cfg, budget).thresholds == expected
        assert decide_type(cfg).thresholds == expected
        interior += 1
        crossing += expected.split_reflect_transmit is not None
    assert interior >= 40 and crossing >= 20


def test_non_monotone_difference_raises_with_regime(monkeypatch):
    # force a wiggly hybrid curve so the sampled sign pattern breaks
    import ris_select.selection as selection

    cfg, budget = _cfg_and_budget()
    wiggle_hybrid_curve(monkeypatch)
    with pytest.raises(selection.RegimeViolationError,
                       match="approximation regime violated") as excinfo:
        find_thresholds(cfg, budget)
    assert excinfo.value.regime.isotropic  # the report rides along
    # decide_type raises the same violation, with the same report
    with pytest.raises(selection.RegimeViolationError) as decided:
        decide_type(cfg, budget)
    assert str(decided.value) == str(excinfo.value)
    assert decided.value.regime == excinfo.value.regime


# --- the decision table -----------------------------------------------------------

def test_boundary_splits_short_circuit():
    cfg = make_config(users_transmission=0)
    decision = decide_type(cfg)
    assert decision.optimal is RisType.REFLECTIVE
    assert decision.agrees
    assert "boundary" in decision.table_row.position

    cfg = make_config(users_transmission=10)
    decision = decide_type(cfg)
    assert decision.optimal is RisType.TRANSMISSIVE
    assert decision.agrees


def test_far_deployment_first_block_transmissive():
    # hybrid loses at the crossing, so only the single-zone types compete
    cfg = make_config(rows=100, cols=100, bs_ris_distance=200.0,
                      ris_ue_distance=200.0, users_transmission=7)
    decision = decide_type(cfg)
    assert decision.table_row.sign_at_crossover <= 0
    assert decision.optimal is RisType.TRANSMISSIVE
    assert decision.brute_force_optimal is RisType.TRANSMISSIVE
    assert decision.agrees
    assert decision.table_row.position == "above reflect/transmit split"
    # far geometry leaves the high-SNR assumption unmet, so the row is advisory
    assert decision.table_row.advisory
    assert not decision.regime.ok


def test_far_deployment_first_block_reflective():
    cfg = make_config(rows=100, cols=100, bs_ris_distance=200.0,
                      ris_ue_distance=200.0, users_transmission=3)
    decision = decide_type(cfg)
    assert decision.optimal is RisType.REFLECTIVE
    assert decision.agrees
    assert decision.table_row.position == "at or below reflect/transmit split"


def test_reference_fourth_block_hybrid():
    decision = decide_type(make_config())
    assert decision.table_row.sign_at_crossover > 0
    assert decision.table_row.sign_at_low_edge < 0
    assert decision.table_row.sign_at_high_edge < 0
    assert decision.optimal is RisType.HYBRID
    assert decision.agrees
    assert decision.table_row.position == "between the hybrid splits"
    assert not decision.table_row.advisory
    assert decision.regime.ok


def test_fourth_block_edges_pick_single_zone_types():
    reflect_side = decide_type(make_config(users_transmission=1))
    assert reflect_side.optimal is RisType.REFLECTIVE
    assert reflect_side.agrees
    transmit_side = decide_type(make_config(users_transmission=9))
    assert transmit_side.optimal is RisType.TRANSMISSIVE
    assert transmit_side.agrees


def test_second_block_strong_transmit_side():
    # hybrid beats reflective at the low edge but not transmissive at the top
    base = make_config(rows=200, cols=200, bs_ris_distance=30.0,
                       ris_ue_distance=30.0, radiation_reflect=0.3,
                       radiation_transmit=1.0)
    low = decide_type(replace(base, users_transmission=5))
    assert low.table_row.sign_at_crossover > 0
    assert low.table_row.sign_at_low_edge > 0
    assert low.table_row.sign_at_high_edge <= 0
    assert low.optimal is RisType.HYBRID and low.agrees
    assert low.table_row.position == "below transmit/hybrid split"

    high = decide_type(replace(base, users_transmission=9))
    assert high.optimal is RisType.TRANSMISSIVE and high.agrees
    assert high.table_row.position == "at or above transmit/hybrid split"


def test_third_block_strong_reflect_side():
    base = make_config(rows=200, cols=200, bs_ris_distance=30.0,
                       ris_ue_distance=30.0, radiation_reflect=1.0,
                       radiation_transmit=0.3)
    low = decide_type(replace(base, users_transmission=1))
    assert low.table_row.sign_at_low_edge <= 0
    assert low.table_row.sign_at_high_edge > 0
    assert low.optimal is RisType.REFLECTIVE and low.agrees
    assert low.table_row.position == "at or below reflect/hybrid split"

    mid = decide_type(replace(base, users_transmission=5))
    assert mid.optimal is RisType.HYBRID and mid.agrees
    assert mid.table_row.position == "above reflect/hybrid split"


def test_table_agrees_with_brute_force_on_reference_grid():
    for split in range(1, 10):
        decision = decide_type(make_config(users_transmission=split))
        assert decision.agrees, split


def test_tie_break_prefers_reflective():
    cfg, budget = _cfg_and_budget(radiation_transmit=1.0, users_transmission=5)
    winner, rates = brute_force_optimal(cfg, budget)
    assert rates[RisType.REFLECTIVE] == pytest.approx(
        rates[RisType.TRANSMISSIVE], rel=1e-14)
    assert winner in (RisType.REFLECTIVE, RisType.HYBRID)
    if rates[RisType.HYBRID] <= rates[RisType.REFLECTIVE]:
        assert winner is RisType.REFLECTIVE


# --- monotonicity certificate ------------------------------------------------------

def test_lemma_point_values():
    assert _f_lemma(1.0) == 0.0
    # 2 (ln 2 * log2(2) - 1) + 1 = 2 ln 2 - 1
    assert _f_lemma(2.0) == pytest.approx(2.0 * LN2 - 1.0, rel=1e-15)
    assert _f_lemma(2.0) == pytest.approx(0.3862943611198906, rel=1e-15)


def test_certificate_on_reference_config():
    cfg, budget = _cfg_and_budget()
    cert = monotonicity_certificate(cfg, budget)
    assert cert.max_relative_error <= 1e-6
    assert np.all(cert.transmit_slope > 0.0)
    assert np.all(cert.reflect_slope < 0.0)
    assert cert.lemma_min > 0.0
    assert cert.grid.min() > 1.0 and cert.grid.max() < 9.0


def test_certificate_derivative_matches_finite_difference_at_three():
    cfg, budget = _cfg_and_budget()
    eps_t = cfg.panel.radiation_transmit
    big_l = budget.link_constant
    analytic = single_zone_slope(3.0, eps_t, big_l)
    h = 1e-6

    def rate(x):
        return x * math.log2(1.0 + eps_t / (big_l * x))

    fd = (rate(3.0 + h) - rate(3.0 - h)) / (2.0 * h)
    assert analytic == pytest.approx(fd, rel=1e-6)
    assert analytic > 0.0


def test_certificate_requires_three_users():
    cfg, budget = _cfg_and_budget(users_total=2, users_transmission=1,
                                  rows=2, cols=2)
    with pytest.raises(ValueError):
        monotonicity_certificate(cfg, budget)


def test_certificate_error_type_exists():
    assert issubclass(CertificateError, RuntimeError)


def test_certificate_rejects_a_slope_that_disagrees_with_its_curve(monkeypatch):
    cfg, budget = _cfg_and_budget()
    monkeypatch.setattr(selection, "single_zone_slope", lambda n, radiation, big_l:
                        2.0 * single_zone_slope(n, radiation, big_l))
    with pytest.raises(CertificateError, match="disagrees with finite difference"):
        monotonicity_certificate(cfg, budget)


@pytest.mark.parametrize("transmit, reflect, message", [
    (-1.0, -1.0, "transmissive slope not positive"),
    (1.0, 1.0, "reflective slope not negative"),
])
def test_certificate_rejects_a_slope_of_the_wrong_sign(monkeypatch, transmit, reflect,
                                                        message):
    # straight-line curves whose analytic slopes agree with their finite
    # differences, so only the sign check can fail
    cfg, budget = _cfg_and_budget()
    eps_t = cfg.panel.radiation_transmit
    assert cfg.panel.radiation_reflect != eps_t
    monkeypatch.setattr(selection, "_curves", lambda cfg, budget: (
        lambda x: reflect * x, lambda x: transmit * x, None))
    monkeypatch.setattr(selection, "single_zone_slope", lambda n, radiation, big_l:
                        transmit if radiation == eps_t else -reflect)
    with pytest.raises(CertificateError, match=message):
        monotonicity_certificate(cfg, budget)


def test_certificate_rejects_a_lemma_that_is_not_positive(monkeypatch):
    cfg, budget = _cfg_and_budget()
    # the slopes take f at x below 1e3, so only the lemma's own samples fail
    monkeypatch.setattr(selection, "_f_lemma", lambda x: -1.0 if x > 1e5 else _f_lemma(x))
    with pytest.raises(CertificateError, match=r"lemma positivity fails at x = 1\d{5}\.\d"):
        monotonicity_certificate(cfg, budget)


# --- asymptotics -----------------------------------------------------------------

def test_asymptotic_scale_equals_link_constant_times_panel():
    for overrides in ({}, {"rows": 100, "cols": 100, "bs_ris_distance": 100.0,
                           "ris_ue_distance": 100.0},
                      {"wavelength": 0.05, "pathloss_exponent": 2.5}):
        cfg, budget = _cfg_and_budget(**overrides)
        diag = asymptotic_checks(cfg, budget)
        # the size-free scale from first principles, independent of link_budget:
        # 64 pi^3 (D d)^alpha sigma^2 / (P_T lambda^2 G l_M l_N G_I cos^2 K_t)
        panel = cfg.panel
        dh = cfg.bs_height - cfg.ris_height
        cos_sq = (cfg.bs_ris_distance ** 2 - dh ** 2) / cfg.bs_ris_distance ** 2
        scale = 64.0 * math.pi ** 3 \
            * (cfg.bs_ris_distance * cfg.ris_ue_distance) ** cfg.pathloss_exponent \
            * cfg.noise_variance / (
                cfg.transmit_power * cfg.wavelength ** 2 * cfg.antenna_gain
                * panel.element_width * panel.element_height * panel.element_gain
                * cos_sq * cfg.bs_antennas)
        assert diag.element_count_scale == pytest.approx(scale, rel=1e-12)


def test_asymptotic_slope_terms():
    # the hybrid-slope decomposition terms at the reference split, and their
    # vanishing when the two radiation constants agree
    cfg, budget = _cfg_and_budget()
    diag = asymptotic_checks(cfg, budget)
    assert diag.log_pattern_term == pytest.approx(math.log2(0.95), rel=1e-12)
    assert diag.log_pattern_term == pytest.approx(-0.07400058144377693, rel=1e-12)
    assert diag.mismatch_reflect == pytest.approx(1.0 / 0.95 - 1.0, rel=1e-12)
    assert diag.mismatch_transmit == pytest.approx(1.0 - 0.95, rel=1e-12)
    assert diag.mismatch_term > 0.0
    cfg, budget = _cfg_and_budget(radiation_transmit=1.0)
    diag = asymptotic_checks(cfg, budget)
    assert diag.log_pattern_term == 0.0
    assert diag.mismatch_reflect == diag.mismatch_transmit == diag.mismatch_term == 0.0


def test_hybrid_slope_terms_sum_to_the_curve_slope():
    # oracle: a central difference of the hybrid rate, written out here from
    # the water-filling share, over random deployments whose reflection
    # share is not clamped
    from conftest import random_config

    def hybrid(x, s, eps_r, eps_t, big_l):
        lam = big_l * (2.0 * x / s) * (1.0 / eps_t - 1.0 / eps_r) + 1.0 / s
        share = (1.0 - (s - x) * lam) / x
        return ((s - x) * math.log2(1.0 + eps_r * lam / (2.0 * big_l))
                + x * math.log2(1.0 + eps_t * share / (2.0 * big_l)))

    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        cfg = random_config(rng)
        s, x = cfg.users_total, cfg.users_transmission
        if not 1 <= x <= s - 1:
            continue
        budget = link_budget(cfg)
        eps_r, eps_t = cfg.panel.radiation_reflect, cfg.panel.radiation_transmit
        big_l = budget.link_constant
        lam = big_l * (2.0 * x / s) * (1.0 / eps_t - 1.0 / eps_r) + 1.0 / s
        if not 0.01 < lam * (s - x) < 0.99:
            continue  # clamped, or too close to a clamp for the difference
        _, rates = brute_force_optimal(cfg, budget)
        assert rates[RisType.HYBRID] == pytest.approx(
            hybrid(x, s, eps_r, eps_t, big_l), rel=1e-12)
        h = 1e-6
        slope = (hybrid(x + h, s, eps_r, eps_t, big_l)
                 - hybrid(x - h, s, eps_r, eps_t, big_l)) / (2.0 * h)
        diag = asymptotic_checks(cfg, budget)
        assert abs(diag.log_pattern_term + diag.mismatch_term - slope) \
            <= 1e-6 * max(1.0, abs(slope)), (checked, slope)
        checked += 1


def test_asymptotic_exponents_symmetric_case():
    cfg, budget = _cfg_and_budget(radiation_reflect=1.0, radiation_transmit=1.0,
                                  users_transmission=5)
    diag = asymptotic_checks(cfg, budget)
    expected = (10.0 + 10.0 * math.log2(10.0) - 5.0 * math.log2(5.0)) / 5.0
    assert diag.reflect_exponent == pytest.approx(expected, rel=1e-12)
    assert diag.transmit_exponent == pytest.approx(expected, rel=1e-12)
    assert diag.reflect_exponent == pytest.approx(6.3219280948873635, rel=1e-12)
    assert diag.element_count_threshold == pytest.approx(
        diag.element_count_scale * 2.0 ** expected, rel=1e-12)


def test_far_deployment_flags_hybrid_inferior():
    base = make_config(rows=100, cols=100, bs_ris_distance=200.0,
                       ris_ue_distance=200.0)
    budget = link_budget(base)
    for split in range(1, 10):
        cfg = replace(base, users_transmission=split)
        diag = asymptotic_checks(cfg, budget)
        assert not diag.hybrid_favored
        assert diag.element_count < diag.element_count_threshold
        _, rates = brute_force_optimal(cfg, budget)
        assert rates[RisType.HYBRID] < max(rates[RisType.REFLECTIVE],
                                           rates[RisType.TRANSMISSIVE])


def test_panel_size_threshold_is_sufficient_on_grid():
    # wherever the panel clears the threshold, the hybrid type must win exactly
    predictions = 0
    for side in (50, 100, 150):
        for distance in (50.0, 100.0):
            base = make_config(rows=side, cols=side, bs_ris_distance=distance,
                               ris_ue_distance=distance)
            budget = link_budget(base)
            for split in range(1, 10):
                cfg = replace(base, users_transmission=split)
                diag = asymptotic_checks(cfg, budget)
                if diag.element_count > diag.element_count_threshold:
                    predictions += 1
                    _, rates = brute_force_optimal(cfg, budget)
                    assert rates[RisType.HYBRID] > max(
                        rates[RisType.REFLECTIVE], rates[RisType.TRANSMISSIVE]), (
                        side, distance, split)
    assert predictions > 0


def test_distance_flips_hybrid_advantage():
    def best_margin(distance):
        base = make_config(rows=100, cols=100, bs_ris_distance=distance,
                           ris_ue_distance=distance)
        budget = link_budget(base)
        margins = []
        for split in range(1, 10):
            _, rates = brute_force_optimal(
                replace(base, users_transmission=split), budget)
            margins.append(rates[RisType.HYBRID]
                           - max(rates[RisType.REFLECTIVE],
                                 rates[RisType.TRANSMISSIVE]))
        return max(margins)

    assert best_margin(50.0) > 0.0
    assert best_margin(200.0) < 0.0


def test_hybrid_transmit_gap_estimate_accuracy():
    # far geometry driven into the high-SNR regime by a larger power budget
    base = make_config(rows=100, cols=100, bs_ris_distance=200.0,
                       ris_ue_distance=200.0,
                       transmit_power=dbm_to_watts(68.0))
    budget = link_budget(base)
    assert regime_report(base).ok
    for split in range(1, 10):
        cfg = replace(base, users_transmission=split)
        diag = asymptotic_checks(cfg, budget)
        _, rates = brute_force_optimal(cfg, budget)
        exact = rates[RisType.HYBRID] - rates[RisType.TRANSMISSIVE]
        rel_err = abs(exact - diag.hybrid_vs_transmit_approx) / abs(exact)
        assert rel_err <= 0.05, (split, rel_err)


def test_element_count_threshold_past_the_float_range_does_not_raise():
    # radiation_reflect = 1.3e-304 puts the reflect exponent past 1024, where
    # 2.0 ** exponent raised OverflowError; the threshold is inf there, and
    # finite when a small enough link constant brings the product back
    cfg, budget = _cfg_and_budget(users_transmission=1, radiation_reflect=1.3e-304)
    diag = asymptotic_checks(cfg, budget)
    assert diag.reflect_exponent > 1024.0
    assert diag.element_count_threshold == math.inf and not diag.hybrid_favored
    small = replace(budget, link_constant=budget.link_constant * 2.0 ** -60)
    diag = asymptotic_checks(cfg, small)
    expected = 2.0 ** (math.log2(diag.element_count_scale) + diag.reflect_exponent)
    assert math.isfinite(diag.element_count_threshold)
    assert diag.element_count_threshold == pytest.approx(expected, rel=1e-12)


def test_asymptotics_need_both_zones():
    cfg, budget = _cfg_and_budget(users_transmission=0)
    with pytest.raises(ValueError):
        asymptotic_checks(cfg, budget)


# --- invariants over random deployments in the regime ---------------------------------

# hybrid_favored compares the panel size with a high-SNR threshold; within
# this factor of it the terms the threshold drops can decide (seen in
# near-isotropic samples: hybrid lost at M N / threshold of 1.005 to 1.056,
# by 0.004 to 0.13 b/s/Hz).
THRESHOLD_MARGIN = 1.1


@functools.lru_cache(maxsize=1)
def _regime_cells():
    """(cfg, budget, decision) for each interior split of 800 near-isotropic
    deployments whose regime report holds."""
    rng = np.random.default_rng(909)
    cells = []
    for _ in range(800):
        base = near_isotropic_config(rng)
        budget = link_budget(base)
        for split in range(1, base.users_total):
            cfg = replace(base, users_transmission=split)
            decision = decide_type(cfg, budget)
            if decision.regime.ok:
                cells.append((cfg, budget, decision))
    return cells


def test_hybrid_favored_implies_hybrid_wins_in_the_regime():
    favored = near = 0
    for cfg, budget, _ in _regime_cells():
        diag = asymptotic_checks(cfg, budget)
        if not diag.hybrid_favored:
            continue
        favored += 1
        _, rates = brute_force_optimal(cfg, budget)
        hybrid_wins = rates[RisType.HYBRID] > max(rates[RisType.REFLECTIVE],
                                                  rates[RisType.TRANSMISSIVE])
        if diag.element_count < THRESHOLD_MARGIN * diag.element_count_threshold:
            near += 1
        else:
            assert hybrid_wins, (cfg.users_total, cfg.users_transmission)
    assert len(_regime_cells()) > 300
    assert favored - near > 200


def test_table_agrees_with_brute_force_in_the_regime():
    disagreements = 0
    for cfg, _, decision in _regime_cells():
        if decision.agrees:
            continue
        disagreements += 1
        th = decision.thresholds
        nearest = min(abs(cfg.users_transmission - t) for t in (
            th.split_reflect_transmit, th.split_reflect_hybrid,
            th.split_transmit_hybrid) if t is not None)
        assert nearest <= 1.0, (cfg.users_total, cfg.users_transmission)
    assert disagreements <= 0.05 * len(_regime_cells())


def test_hybrid_favored_fails_outside_the_regime():
    # the threshold assumes near-isotropic radiation: random_config
    # deployments, which rarely are, give favored cells that hybrid loses,
    # and each of them fails the regime report
    rng = np.random.default_rng(2024)
    losses = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty served zones occur by design
        for _ in range(1724):
            cfg = random_config(rng)
            if not 1 <= cfg.users_transmission <= cfg.users_total - 1:
                continue
            budget = link_budget(cfg)
            if not asymptotic_checks(cfg, budget).hybrid_favored:
                continue
            _, rates = brute_force_optimal(cfg, budget)
            if rates[RisType.HYBRID] <= max(rates[RisType.REFLECTIVE],
                                            rates[RisType.TRANSMISSIVE]):
                losses += 1
                assert not regime_report(cfg).ok
    assert losses > 0
