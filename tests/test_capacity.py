"""Power allocation, closed forms, bound identity, Monte Carlo estimator."""

import math
import warnings

import numpy as np
import pytest

from conftest import make_config, mc_tolerance, random_config
from ris_select import (
    ConfigValidationError,
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
from ris_select.channel import rng_for_seed
from ris_select.scenario import min_served_snr

LN2 = math.log(2.0)


def _alloc(cfg, ris_type):
    return allocate_power(cfg, ris_type, link_budget(cfg))


def test_reflective_allocation():
    cfg = make_config()
    alloc = _alloc(cfg, RisType.REFLECTIVE)
    np.testing.assert_allclose(alloc.per_ue[:3], 1.0 / 3.0)
    assert np.all(alloc.per_ue[3:] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


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
    assert alloc.per_ue[0] == pytest.approx(expected, rel=1e-14)
    assert alloc.per_ue[0] == pytest.approx(0.10010535651724144, rel=1e-12)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(alloc.per_ue[3:], (1.0 - 3.0 * alloc.per_ue[0]) / 7.0)


def test_hybrid_allocation_uniform_when_isotropic():
    cfg = make_config(radiation_transmit=1.0)
    alloc = _alloc(cfg, RisType.HYBRID)
    assert alloc.per_ue[0] == 0.1
    np.testing.assert_allclose(alloc.per_ue, 0.1)


def test_hybrid_clamp_low():
    # strong transmit side and a weak link push the raw share below zero
    cfg = make_config(radiation_reflect=0.02, radiation_transmit=1.0,
                      bs_ris_distance=300.0, ris_ue_distance=300.0,
                      rows=2, cols=2, bs_antennas=1,
                      transmit_power=dbm_to_watts(10.0),
                      noise_variance=dbm_to_watts(-80.0))
    alloc = _alloc(cfg, RisType.HYBRID)
    assert np.all(alloc.per_ue[:3] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


def test_hybrid_clamp_high():
    cfg = make_config(radiation_reflect=1.0, radiation_transmit=0.02,
                      users_transmission=9, bs_ris_distance=200.0,
                      ris_ue_distance=200.0)
    alloc = _alloc(cfg, RisType.HYBRID)
    assert alloc.per_ue[0] == 1.0  # 1 / S_R with a single reflect user
    assert np.all(alloc.per_ue[1:] == 0.0)
    assert alloc.per_ue.sum() == pytest.approx(1.0, abs=1e-12)


def test_empty_served_set_warns_and_zeroes():
    cfg = make_config(users_total=5, users_transmission=5, rows=2, cols=2)
    with pytest.warns(UserWarning, match="no served UEs"):
        alloc = _alloc(cfg, RisType.REFLECTIVE)
    assert np.all(alloc.per_ue == 0.0)


def test_hybrid_boundary_splits():
    all_reflect = make_config(users_total=5, users_transmission=0, rows=2, cols=2)
    alloc = _alloc(all_reflect, RisType.HYBRID)
    np.testing.assert_allclose(alloc.per_ue, 0.2)
    assert alloc.per_ue[0] == pytest.approx(0.2, rel=1e-14)

    all_transmit = make_config(users_total=5, users_transmission=5, rows=2, cols=2)
    alloc = _alloc(all_transmit, RisType.HYBRID)
    np.testing.assert_allclose(alloc.per_ue, 0.2)


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
    alloc = PowerAllocation(per_ue=np.zeros(10))
    assert upper_bound(average_snr(cfg, RisType.HYBRID, alloc, budget)) == 0.0


def test_upper_bound_with_own_allocation_matches_closed_form():
    # equal up to rounding: the two sides round different products (8.0e-16
    # relative at most over 3000 of these deployments x 3 types)
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
                assert abs(bound - closed) <= 1e-14 * max(abs(closed), 1e-30)


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
                if alloc.per_ue.any():
                    assert abs(total - 1.0) <= 1e-12
                else:
                    assert total == 0.0
                assert np.all(alloc.per_ue >= 0.0)


def test_hybrid_uniform_split_isotropic_bound():
    cfg = make_config(radiation_transmit=1.0)
    budget = link_budget(cfg)
    alloc = PowerAllocation(per_ue=np.full(10, 0.1))
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


def test_element_monte_carlo_equals_a_serial_loop():
    # trial t draws from base_seed + (t,) and writes only its own rate, so
    # the two threads give the serial loop's mean and standard error bit for bit
    cfg = make_config(rows=6, cols=5, users_total=4, users_transmission=1,
                      bs_antennas=3)
    budget = link_budget(cfg)
    for ris_type in RisType:
        alloc = allocate_power(cfg, ris_type, budget)
        gain = (cfg.transmit_power / cfg.noise_variance) * alloc.per_ue
        for fading in ("gaussian", "uniform_phase", "sign"):
            draw = prepare_sampler(cfg, ris_type, budget, fading)
            rates = np.empty(37)
            for t in range(rates.size):
                entries = draw((7, 1, t))
                row_power = np.sum(entries.real ** 2 + entries.imag ** 2, axis=1)
                rates[t] = float(np.sum(np.log1p(gain * row_power)) / LN2)
            expected = (float(rates.mean()),
                        float(rates.std(ddof=1) / math.sqrt(rates.size)))
            assert element_monte_carlo(cfg, ris_type, alloc, budget, rates.size,
                                       (7, 1), fading) == expected


def test_monte_carlo_zero_allocation():
    cfg = make_config(rows=2, cols=2)
    alloc = PowerAllocation(per_ue=np.zeros(10))
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


def test_monte_carlo_block_limit_does_not_depend_on_the_host(monkeypatch):
    # 2**27 rate terms (1 GiB) is the fixed limit; a block past it is
    # refused before anything is allocated, one at it runs
    assert capacity.MONTE_CARLO_BLOCK_VALUES == 2 ** 27
    snr = np.full((2, 3, 4), 5.0)  # 6 vectors of 4 users
    with pytest.raises(ConfigValidationError, match="at most 2\\*\\*27"):
        monte_carlo_capacity(snr, 4, 2 ** 32, 0)
    monkeypatch.setattr(capacity, "MONTE_CARLO_BLOCK_VALUES", 6 * 4 * 5)
    assert monte_carlo_capacity(snr, 4, 5, 0)[0].shape == (2, 3)
    with pytest.raises(ConfigValidationError, match="6 Monte Carlo trials per cell"):
        monte_carlo_capacity(snr, 4, 6, 0)

    # a block inside the limit that the host cannot allocate fails alike
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(capacity.np, "empty", refuse)
    with pytest.raises(ConfigValidationError, match="5 Monte Carlo trials per cell"):
        monte_carlo_capacity(snr, 4, 5, 0)


def test_mean_and_stderr_are_numpys_bit_for_bit():
    # the estimators' summary replays rates.mean(-1) and rates.std(-1, ddof=1)
    # on a vector and on 2-D and 3-D blocks along their last axis
    rng = np.random.default_rng(41)
    for trials in list(range(1, 40)) + [127, 128, 129, 1000]:
        for _ in range(5):
            rates = rng.gamma(3.0, rng.uniform(0.1, 50.0), size=trials)
            expected_stderr = (float(rates.std(ddof=1) / math.sqrt(trials))
                               if trials > 1 else 0.0)
            assert capacity._mean_and_stderr(rates) == (float(rates.mean()),
                                                        expected_stderr), trials
        for lead in ((4,), (2, 3)):
            rates = rng.gamma(3.0, rng.uniform(0.1, 50.0), size=(*lead, trials))
            mean, stderr = capacity._mean_and_stderr(rates)
            expected_stderr = (rates.std(-1, ddof=1) / math.sqrt(trials)
                               if trials > 1 else np.zeros(lead))
            assert mean.shape == stderr.shape == lead
            assert mean.tobytes() == rates.mean(-1).tobytes(), (lead, trials)
            assert stderr.tobytes() == expected_stderr.tobytes(), (lead, trials)


def test_block_estimates_equal_the_per_vector_ones():
    # a (cells, types, users) block with one K_t per cell and unserved users
    # (one row serves nobody): every entry is its vector's own result, drawn
    # from its cell's key
    rng = np.random.default_rng(23)
    snr = rng.uniform(0.0, 50.0, size=(3, 2, 7)) * (rng.uniform(size=(3, 2, 7)) > 0.3)
    snr[1, 0] = 0.0
    antennas = np.array([1, 4, 12])
    bounds, lows = upper_bound(snr), min_served_snr(snr)
    for trials in (1, 2, 17, 100):
        mean, stderr = monte_carlo_capacity(snr, antennas, trials, (5,))
        for a in range(3):
            for i in range(2):
                k = int(antennas[a])
                assert (mean[a, i], stderr[a, i]) == monte_carlo_capacity(
                    snr[a, i], k, trials, (5, a))
                assert bounds[a, i] == upper_bound(snr[a, i])
                assert lows[a, i] == min_served_snr(snr[a, i])
        # one cell's types alone: the cell axes are empty, the key is the base
        one_mean, one_stderr = monte_carlo_capacity(snr[2], 12, trials, (5, 2))
        assert one_mean.tobytes() == mean[2].tobytes()
        assert one_stderr.tobytes() == stderr[2].tobytes()
    assert lows[1, 0] == 0.0


def test_two_cell_axes_key_each_cell_in_c_order():
    # a (2, 3, types, users) block: cell [i, j] draws from base + (i, j), its
    # K_t is entry [i, j] of the antennas, and its estimates equal the vector
    # calls under that key bit for bit
    rng = np.random.default_rng(31)
    snr = rng.uniform(0.0, 40.0, size=(2, 3, 3, 6))
    antennas = rng.integers(1, 9, size=(2, 3))
    for trials in (1, 3, 9):
        mean, stderr = monte_carlo_capacity(snr, antennas, trials, (8, 1))
        assert mean.shape == stderr.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                k, key = int(antennas[i, j]), (8, 1, i, j)
                cell_mean, cell_stderr = monte_carlo_capacity(snr[i, j], k, trials, key)
                assert cell_mean.tobytes() == mean[i, j].tobytes()
                assert cell_stderr.tobytes() == stderr[i, j].tobytes()
                for t in range(3):
                    assert (mean[i, j, t], stderr[i, j, t]) == monte_carlo_capacity(
                        snr[i, j, t], k, trials, key)
        # one K_t broadcast over both cell axes
        shared, _ = monte_carlo_capacity(snr, 5, trials, (8, 1))
        assert shared[1, 2].tobytes() == monte_carlo_capacity(
            snr[1, 2], 5, trials, (8, 1, 1, 2))[0].tobytes()


def test_a_cells_types_share_each_trials_draw():
    # the types of a cell scale one fading draw, so equal type rows give
    # equal estimates bit for bit, and rows of other cells draw other streams
    row = np.random.default_rng(29).uniform(0.0, 50.0, size=9)
    snr = np.broadcast_to(row, (2, 3, 9))
    for trials in (1, 8, 100):
        mean, stderr = monte_carlo_capacity(snr, 4, trials, (7,))
        for a in range(2):
            assert len({(m, e) for m, e in zip(mean[a], stderr[a])}) == 1
        assert mean[0, 0] != mean[1, 0]


def test_block_snr_needs_one_user_count():
    cfgs = [make_config(), make_config(users_total=11, users_transmission=4)]
    with pytest.raises(ValueError, match="share users_total"):
        capacity.average_snr_block(cfgs, [link_budget(cfg) for cfg in cfgs])


def test_a_shorter_run_is_the_head_of_a_longer_one():
    # trial t is row t of one standard_gamma draw, so 37 trials replay the
    # first 37 rows of a 1000-row draw from the same key
    snr = np.random.default_rng(31).uniform(0.0, 50.0, size=10)
    for k in (1, 2, 12, 64):
        rows = rng_for_seed((3, 1, 2)).standard_gamma(k, size=(1000, 10))[:37]
        rates = np.sum(np.log1p((snr / float(k)) * rows), axis=-1) / LN2
        mean, stderr = capacity._mean_and_stderr(rates)
        assert monte_carlo_capacity(snr, k, 37, (3, 1, 2)) == (float(mean),
                                                               float(stderr)), k


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
    alloc = PowerAllocation(per_ue=np.zeros(10))
    snr = average_snr(cfg, RisType.HYBRID, alloc, budget)
    mean, stderr = monte_carlo_capacity(snr, cfg.bs_antennas, trials=4, base_seed=0)
    assert mean == 0.0
    assert stderr == 0.0
    assert ergodic_rate_exact(snr, cfg.bs_antennas) == 0.0

