"""Power allocation, closed forms, bound identity, Monte Carlo estimator."""

import math
import warnings

import numpy as np
import pytest

from conftest import make_config, mc_tolerance, random_config
from ris_select import (
    PowerAllocation,
    RisType,
    allocate_power,
    closed_form_rate,
    dbm_to_watts,
    element_monte_carlo,
    ergodic_rate_exact,
    link_budget,
    monte_carlo_capacity,
    prepare_sampler,
    upper_bound,
)
from ris_select import capacity
from ris_select.capacity import average_snr

LN2 = math.log(2.0)


def _alloc(cfg, ris_type):
    return allocate_power(cfg, ris_type, link_budget(cfg))


def test_reflective_allocation():
    cfg = make_config()
    alloc = _alloc(cfg, RisType.REFLECTIVE)
    np.testing.assert_allclose(alloc.per_ue[:3], 1.0 / 3.0)
    assert np.all(alloc.per_ue[3:] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)
    assert alloc.reflect_fraction is None


def test_transmissive_allocation():
    cfg = make_config()
    alloc = _alloc(cfg, RisType.TRANSMISSIVE)
    assert np.all(alloc.per_ue[:3] == 0.0)
    np.testing.assert_allclose(alloc.per_ue[3:], 1.0 / 7.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


def test_hybrid_allocation_reference_value():
    cfg = make_config()
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    # direct formula evaluation with the independently checked link constant
    expected = budget.link_constant * (14.0 / 10.0) * (1.0 / 0.95 - 1.0) + 0.1
    assert alloc.reflect_fraction == pytest.approx(expected, rel=1e-14)
    assert alloc.reflect_fraction == pytest.approx(0.10010535651724144, rel=1e-12)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(alloc.per_ue[3:],
                               (1.0 - 3.0 * alloc.reflect_fraction) / 7.0)


def test_hybrid_allocation_uniform_when_isotropic():
    cfg = make_config(radiation_transmit=1.0)
    alloc = _alloc(cfg, RisType.HYBRID)
    assert alloc.reflect_fraction == 0.1
    np.testing.assert_allclose(alloc.per_ue, 0.1)


def test_hybrid_clamp_low():
    # strong transmit side and a weak link push the raw share below zero
    cfg = make_config(radiation_reflect=0.02, radiation_transmit=1.0,
                      bs_ris_distance=300.0, ris_ue_distance=300.0,
                      rows=2, cols=2, bs_antennas=1,
                      transmit_power=dbm_to_watts(10.0),
                      noise_variance=dbm_to_watts(-80.0))
    alloc = _alloc(cfg, RisType.HYBRID)
    assert alloc.reflect_fraction == 0.0
    assert np.all(alloc.per_ue[:3] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


def test_hybrid_clamp_high():
    cfg = make_config(radiation_reflect=1.0, radiation_transmit=0.02,
                      users_transmission=9, bs_ris_distance=200.0,
                      ris_ue_distance=200.0)
    alloc = _alloc(cfg, RisType.HYBRID)
    assert alloc.reflect_fraction == 1.0  # 1 / S_R with a single reflect user
    assert np.all(alloc.per_ue[1:] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


def test_empty_served_set_warns_and_zeroes():
    cfg = make_config(users_total=5, users_transmission=5, rows=2, cols=2)
    with pytest.warns(UserWarning, match="no served UEs"):
        alloc = _alloc(cfg, RisType.REFLECTIVE)
    assert np.all(alloc.per_ue == 0.0)
    assert alloc.n_served == 0


def test_hybrid_boundary_splits():
    all_reflect = make_config(users_total=5, users_transmission=0, rows=2, cols=2)
    alloc = _alloc(all_reflect, RisType.HYBRID)
    np.testing.assert_allclose(alloc.per_ue, 0.2)
    assert alloc.reflect_fraction == pytest.approx(0.2, rel=1e-14)

    all_transmit = make_config(users_total=5, users_transmission=5, rows=2, cols=2)
    alloc = _alloc(all_transmit, RisType.HYBRID)
    np.testing.assert_allclose(alloc.per_ue, 0.2)
    assert alloc.reflect_fraction == 0.0


def test_closed_form_reference_values():
    cfg = make_config()
    budget = link_budget(cfg)
    c_r = closed_form_rate(cfg, RisType.REFLECTIVE, budget)
    # independent: 3 log2(1 + 1 / (3 L))
    assert c_r == pytest.approx(
        3.0 * math.log2(1.0 + 1.0 / (3.0 * budget.link_constant)), rel=1e-12)
    assert c_r == pytest.approx(23.613434578995488, rel=1e-12)
    assert closed_form_rate(cfg, RisType.TRANSMISSIVE, budget) \
        == pytest.approx(46.08587795155177, rel=1e-12)
    assert closed_form_rate(cfg, RisType.HYBRID, budget) \
        == pytest.approx(51.18358116986613, rel=1e-12)


def test_closed_form_empty_zones():
    cfg = make_config(users_total=6, users_transmission=0, rows=2, cols=2)
    budget = link_budget(cfg)
    assert closed_form_rate(cfg, RisType.TRANSMISSIVE, budget) == 0.0
    cfg = make_config(users_total=6, users_transmission=6, rows=2, cols=2)
    budget = link_budget(cfg)
    assert closed_form_rate(cfg, RisType.REFLECTIVE, budget) == 0.0


def test_closed_form_symmetry():
    cfg = make_config(radiation_reflect=0.9, radiation_transmit=0.9,
                      users_transmission=5)
    budget = link_budget(cfg)
    assert closed_form_rate(cfg, RisType.REFLECTIVE, budget) \
        == pytest.approx(closed_form_rate(cfg, RisType.TRANSMISSIVE, budget), rel=1e-14)


def test_upper_bound_zero_allocation_is_zero():
    cfg = make_config()
    budget = link_budget(cfg)
    alloc = PowerAllocation(per_ue=np.zeros(10), reflect_fraction=None,
                            scheme=RisType.HYBRID)
    assert upper_bound(average_snr(cfg, RisType.HYBRID, alloc, budget)) == 0.0


def test_upper_bound_with_own_allocation_matches_closed_form():
    rng = np.random.default_rng(424242)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty-zone allocations are expected here
        for _ in range(300):
            cfg = random_config(rng)
            budget = link_budget(cfg)
            for ris_type in RisType:
                alloc = allocate_power(cfg, ris_type, budget)
                bound = upper_bound(average_snr(cfg, ris_type, alloc, budget))
                closed = closed_form_rate(cfg, ris_type, budget)
                assert abs(bound - closed) <= 1e-10 * max(abs(closed), 1e-30)


def test_budget_conservation_random():
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            cfg = random_config(rng)
            budget = link_budget(cfg)
            for ris_type in RisType:
                alloc = allocate_power(cfg, ris_type, budget)
                total = float(alloc.per_ue.sum())
                if alloc.n_served:
                    assert abs(total - 1.0) <= 1e-12
                else:
                    assert total == 0.0
                assert np.all(alloc.per_ue >= 0.0)


def test_hybrid_uniform_split_isotropic_bound():
    cfg = make_config(radiation_transmit=1.0)
    budget = link_budget(cfg)
    alloc = PowerAllocation(per_ue=np.full(10, 0.1), reflect_fraction=0.1,
                            scheme=RisType.HYBRID)
    bound = upper_bound(average_snr(cfg, RisType.HYBRID, alloc, budget))
    snr = (cfg.transmit_power / cfg.noise_variance) * 0.1 \
        * budget.avg_pathloss_reflect * 12 * 2500 * 0.5
    assert bound == pytest.approx(10.0 * math.log2(1.0 + snr), rel=1e-12)


def test_monte_carlo_matches_scalar_brute_force():
    cfg = make_config(rows=1, cols=1, bs_antennas=1, users_total=2,
                      users_transmission=1)
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    mean, stderr = element_monte_carlo(cfg, RisType.HYBRID, alloc, budget, trials=1,
                                       base_seed=5)

    entries = prepare_sampler(cfg, RisType.HYBRID, budget)((5, 0))
    expected = 0.0
    for s in range(2):
        row_power = sum(abs(entries[s, k]) ** 2 for k in range(1))
        gain = cfg.transmit_power / cfg.noise_variance * alloc.per_ue[s]
        expected += math.log2(1.0 + gain * row_power)
    assert mean == pytest.approx(expected, rel=1e-12)
    assert stderr == 0.0


def test_monte_carlo_zero_allocation():
    cfg = make_config(rows=2, cols=2)
    alloc = PowerAllocation(per_ue=np.zeros(10), reflect_fraction=None,
                            scheme=RisType.HYBRID)
    mean, stderr = element_monte_carlo(cfg, RisType.HYBRID, alloc, link_budget(cfg),
                                       trials=4, base_seed=0)
    assert mean == 0.0
    assert stderr == 0.0


def test_monte_carlo_requires_a_trial():
    cfg = make_config(rows=2, cols=2)
    alloc = _alloc(cfg, RisType.HYBRID)
    with pytest.raises(ValueError):
        element_monte_carlo(cfg, RisType.HYBRID, alloc, link_budget(cfg), trials=0,
                            base_seed=0)
    with pytest.raises(ValueError):
        monte_carlo_capacity(average_snr(cfg, RisType.HYBRID, alloc, link_budget(cfg)),
                             cfg.bs_antennas, trials=0, base_seed=0)


def test_monte_carlo_below_bound_all_types():
    cfg = make_config(rows=20, cols=20)
    budget = link_budget(cfg)
    for ris_type in RisType:
        alloc = allocate_power(cfg, ris_type, budget)
        mean, stderr = element_monte_carlo(cfg, ris_type, alloc, budget, trials=60,
                                           base_seed=3)
        bound = upper_bound(average_snr(cfg, ris_type, alloc, budget))
        assert mean <= bound + 2.0 * stderr
        assert bound == pytest.approx(closed_form_rate(cfg, ris_type, budget), rel=1e-10)


def test_bound_gap_shrinks_with_antennas_times_elements():
    # same panel, growing antenna count: the averaged-channel bound tightens
    gaps = []
    for kt, trials in ((2, 1500), (8, 1500), (32, 1500)):
        cfg = make_config(rows=20, cols=20, bs_antennas=kt)
        budget = link_budget(cfg)
        alloc = allocate_power(cfg, RisType.REFLECTIVE, budget)
        mean, _ = element_monte_carlo(cfg, RisType.REFLECTIVE, alloc, budget,
                                      trials=trials, base_seed=13)
        bound = upper_bound(average_snr(cfg, RisType.REFLECTIVE, alloc, budget))
        gaps.append((bound - mean) / bound)
    assert gaps[0] > gaps[1] > gaps[2]


def test_upper_bound_increasing_concave_in_power():
    cfg = make_config()
    budget0 = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget0)
    powers = np.linspace(1.0, 60.0, 13)
    values = []
    for p in powers:
        cfg_p = make_config(transmit_power=float(p))
        values.append(upper_bound(average_snr(cfg_p, RisType.HYBRID, alloc,
                                              link_budget(cfg_p))))
    first = np.diff(values)
    second = np.diff(first)
    assert np.all(first > 0.0)
    assert np.all(second <= 1e-12)


# --- aggregate sampler and exact ergodic rate ------------------------------------

EULER_GAMMA = 0.5772156649015329


def _exact_and_mc(cfg, trials, seed, sampler):
    budget = link_budget(cfg)
    for index, ris_type in enumerate(RisType):
        alloc = allocate_power(cfg, ris_type, budget)
        snr = average_snr(cfg, ris_type, alloc, budget)
        if sampler == "aggregate":
            estimate = monte_carlo_capacity(snr, cfg.bs_antennas, trials, (seed, index))
        else:
            estimate = element_monte_carlo(cfg, ris_type, alloc, budget, trials,
                                           (seed, index))
        yield ris_type, ergodic_rate_exact(snr, cfg.bs_antennas), estimate


def test_exact_rate_reference_values():
    cfg = make_config()
    budget = link_budget(cfg)
    expected = {RisType.REFLECTIVE: 23.43227029, RisType.TRANSMISSIVE: 45.66875389,
                RisType.HYBRID: 50.61113132}
    for ris_type, value in expected.items():
        alloc = allocate_power(cfg, ris_type, budget)
        snr = average_snr(cfg, ris_type, alloc, budget)
        exact = ergodic_rate_exact(snr, cfg.bs_antennas)
        assert exact == pytest.approx(value, abs=1e-8)
        # Jensen: strictly below the averaged-channel bound
        assert exact < upper_bound(snr)


def test_aggregate_monte_carlo_matches_exact_rate():
    for ris_type, exact, (mean, stderr) in _exact_and_mc(make_config(), 4000, 17,
                                                         "aggregate"):
        assert abs(mean - exact) <= 3.0 * stderr, (ris_type, mean, exact)


def test_element_monte_carlo_matches_exact_rate():
    # the row-power law is exact for any panel size, so a small panel suffices
    cfg = make_config(rows=4, cols=4)
    for ris_type, exact, (mean, stderr) in _exact_and_mc(cfg, 2000, 23, "element"):
        assert abs(mean - exact) <= 3.0 * stderr, (ris_type, mean, exact)


def test_rate_invariants_over_random_deployments():
    # over random deployments and every type: the exact ergodic rate lies
    # below the averaged-channel bound, the bound under the type's own
    # allocation is the closed form, and the Gamma row-power Monte Carlo
    # lies within its six-sigma tolerance of the exact rate
    rng = np.random.default_rng(20261018)
    trials = 200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty-zone allocations are expected here
        for deployment in range(100):
            cfg = random_config(rng)
            budget = link_budget(cfg)
            tol = mc_tolerance(cfg, trials)
            for index, ris_type in enumerate(RisType):
                snr = average_snr(cfg, ris_type, allocate_power(cfg, ris_type, budget),
                                  budget)
                bound = upper_bound(snr)
                exact = ergodic_rate_exact(snr, cfg.bs_antennas)
                mean, _ = monte_carlo_capacity(snr, cfg.bs_antennas, trials,
                                               (deployment, index))
                assert exact <= bound, (deployment, ris_type, exact, bound)
                assert bound == pytest.approx(
                    closed_form_rate(cfg, ris_type, budget), rel=1e-10)
                assert abs(mean - exact) <= tol, (deployment, ris_type, mean, exact)


@pytest.mark.parametrize("bs_antennas", [1, 12, 64])
@pytest.mark.parametrize("transmit_power", [1e-12, 20.0, 1e4, 1e8])
def test_exact_rate_converges_in_node_count(monkeypatch, bs_antennas, transmit_power):
    # 20 W and 10 kW put the per-user scale near 3 and 1e3; with one antenna
    # the log singularity at x = -1/scale then sits next to the Gamma(1)
    # mass at 0, where Gauss-Laguerre in x converges only like 1/n
    cfg = make_config(bs_antennas=bs_antennas, transmit_power=transmit_power)
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    snr = average_snr(cfg, RisType.HYBRID, alloc, budget)
    values = []
    for n in (256, 512, 1024):
        monkeypatch.setattr(capacity, "EXACT_POINTS", n)
        values.append(ergodic_rate_exact(snr, bs_antennas))
    for coarse, fine in zip(values, values[1:]):
        assert fine == pytest.approx(coarse, rel=1e-12)

    # independent limits of E[ln(1 + a X)] for X ~ Gamma(K_t, 1): a K_t at
    # low SNR, ln a + digamma(K_t) at high SNR
    scale = average_snr(cfg, RisType.HYBRID, alloc, budget) / bs_antennas
    if transmit_power < 1e-6:
        assert np.all(scale * bs_antennas < 1e-6)
        limit = float(np.sum(scale * bs_antennas)) / LN2
        assert values[-1] == pytest.approx(limit, rel=1e-5)
    elif transmit_power > 1e6:
        assert np.all(scale > 1e6)
        digamma = -EULER_GAMMA + sum(1.0 / j for j in range(1, bs_antennas))
        limit = float(np.sum(np.log(scale) + digamma)) / LN2
        assert values[-1] == pytest.approx(limit, rel=1e-5)


def test_aggregate_sampler_is_deterministic():
    cfg = make_config()
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    snr = average_snr(cfg, RisType.HYBRID, alloc, budget)
    first, second = (monte_carlo_capacity(snr, cfg.bs_antennas, trials=50,
                                          base_seed=(4, 2))
                     for _ in range(2))
    assert first == second
    other = monte_carlo_capacity(snr, cfg.bs_antennas, trials=50, base_seed=(5, 2))
    assert other[0] != first[0]


def test_element_sampler_uses_the_given_budget(monkeypatch):
    import ris_select.channel as channel

    cfg = make_config(rows=3, cols=3)
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    expected = element_monte_carlo(cfg, RisType.HYBRID, alloc, budget, trials=3,
                                   base_seed=4)

    def recomputed(cfg):
        raise AssertionError("link_budget computed again")

    monkeypatch.setattr(channel, "link_budget", recomputed)
    report = element_monte_carlo(cfg, RisType.HYBRID, alloc, budget, trials=3,
                                 base_seed=4)
    assert report == expected


def test_aggregate_sampler_zero_allocation():
    cfg = make_config(rows=2, cols=2)
    budget = link_budget(cfg)
    alloc = PowerAllocation(per_ue=np.zeros(10), reflect_fraction=None,
                            scheme=RisType.HYBRID)
    snr = average_snr(cfg, RisType.HYBRID, alloc, budget)
    mean, stderr = monte_carlo_capacity(snr, cfg.bs_antennas, trials=4, base_seed=0)
    assert mean == 0.0
    assert stderr == 0.0
    assert ergodic_rate_exact(snr, cfg.bs_antennas) == 0.0

