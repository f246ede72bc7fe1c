"""Link budget and channel sampling: formulas, statistics, determinism."""

import math
import threading

import numpy as np
import pytest

from conftest import make_config
from ris_select import (
    DegenerateGeometryError,
    FADING_LAWS,
    FadingLaw,
    RisType,
    link_budget,
    prepare_sampler,
    zone_gain_statistics,
)
from ris_select import channel
from ris_select.channel import (
    element_coefficients,
    gaussian_fading,
    resolve_fading,
    rng_for_seed,
    uniform_phase_fading,
)


def test_link_budget_reference_value():
    cfg = make_config()
    budget = link_budget(cfg)
    # independent evaluation of the full expression
    p_t = 10.0 ** 1.3
    sigma_sq = 10.0 ** -12.6
    cos_sq = (50.0 ** 2 - 15.0 ** 2) / 50.0 ** 2
    expected = (64.0 * math.pi ** 3 * (50.0 * 50.0) ** 2 * sigma_sq
                / (p_t * 0.1 ** 2 * 1.0 * 0.02 * 0.02 * 1.0 * cos_sq * 12 * 2500))
    assert budget.link_constant == pytest.approx(expected, rel=1e-12)
    assert budget.link_constant == pytest.approx(1.430e-3, rel=1e-3)
    assert budget.cos_sq_incidence == pytest.approx(0.91, abs=1e-15)


def test_link_budget_identity_both_zones():
    for overrides in (
        {},
        {"radiation_transmit": 0.3, "pathloss_exponent": 2.7},
        {"bs_ris_distance": 120.0, "ris_ue_distance": 35.0, "wavelength": 0.05},
        {"rows": 7, "cols": 13, "bs_antennas": 5, "antenna_gain": 2.5},
    ):
        cfg = make_config(**overrides)
        budget = link_budget(cfg)
        mn = cfg.panel.element_count
        for beta, eps in ((budget.avg_pathloss_reflect, cfg.panel.radiation_reflect),
                          (budget.avg_pathloss_transmit, cfg.panel.radiation_transmit)):
            lhs = budget.link_constant * beta * cfg.transmit_power * cfg.bs_antennas * mn
            assert lhs == pytest.approx(cfg.noise_variance * eps, rel=1e-12)


def test_pathloss_ratio_is_radiation_ratio():
    cfg = make_config(radiation_reflect=0.8, radiation_transmit=0.3)
    budget = link_budget(cfg)
    assert budget.avg_pathloss_reflect / budget.avg_pathloss_transmit \
        == pytest.approx(0.8 / 0.3, rel=1e-14)


def test_equal_radiation_equal_pathloss():
    budget = link_budget(make_config(radiation_transmit=1.0))
    assert budget.avg_pathloss_reflect == budget.avg_pathloss_transmit


def test_distance_doubling_scales_link_constant_sixteenfold():
    # equal heights so the incidence factor stays fixed at 1
    near = link_budget(make_config(bs_height=20.0, ris_height=20.0))
    far = link_budget(make_config(bs_height=20.0, ris_height=20.0,
                                  bs_ris_distance=100.0, ris_ue_distance=100.0))
    assert far.link_constant == pytest.approx(16.0 * near.link_constant, rel=1e-12)


def test_grazing_incidence_raises():
    cfg = make_config(bs_ris_distance=15.0, bs_height=30.0, ris_height=15.0)
    with pytest.raises(DegenerateGeometryError):
        link_budget(cfg)


def test_reflective_type_zeroes_transmission_rows():
    cfg = make_config(rows=4, cols=4, users_total=5, users_transmission=2)
    entries = prepare_sampler(cfg, RisType.REFLECTIVE, link_budget(cfg))(1)
    assert np.all(entries[cfg.users_reflection:, :] == 0.0)
    assert np.all(entries[: cfg.users_reflection, :] != 0.0)


def test_single_element_reduction():
    # one element, flat phases: entry = sqrt(beta_zone) * g / sqrt(2)
    cfg = make_config(rows=1, cols=1, users_total=2, users_transmission=1,
                      bs_antennas=3)
    seed = 99
    entries = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))(seed)
    budget = link_budget(cfg)
    g = gaussian_fading(rng_for_seed(seed), (2, 3, 1))[:, :, 0]
    amp = np.array([math.sqrt(budget.avg_pathloss_reflect),
                    math.sqrt(budget.avg_pathloss_transmit)])
    expected = g * math.sqrt(0.5) * amp[:, None]
    np.testing.assert_allclose(entries, expected, rtol=1e-14)


def test_channel_matrix_shape_and_finiteness():
    cfg = make_config(rows=5, cols=3, users_total=6, users_transmission=2,
                      bs_antennas=4)
    for law in sorted(FADING_LAWS):
        entries = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg), fading=law)(8)
        assert entries.shape == (6, 4)
        assert np.all(np.isfinite(entries))


def test_sampling_is_bit_deterministic():
    cfg = make_config(rows=6, cols=6)
    a = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))(1234)
    b = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))(1234)
    c = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))(1235)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tuple_seeds_give_distinct_streams():
    cfg = make_config(rows=6, cols=6)
    draw = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))
    assert not np.array_equal(draw((7, 0)), draw((7, 1)))


def test_zero_mean_and_variance_law():
    cfg = make_config(rows=20, cols=20)
    budget = link_budget(cfg)
    mn = cfg.panel.element_count
    trials = 2500
    draw = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))
    entries = np.stack([draw((5, t)) for t in range(trials)])

    mask = np.zeros(cfg.users_total, bool)
    mask[: cfg.users_reflection] = True
    beta = np.where(mask, budget.avg_pathloss_reflect, budget.avg_pathloss_transmit)
    target = beta * mn * 0.5  # hybrid squared amplitude is 1/2

    emp_mean = entries.mean(axis=0)
    bound = (4.0 / math.sqrt(trials)) * np.sqrt(target)
    assert np.all(np.abs(emp_mean) <= bound[:, None])

    power = np.abs(entries) ** 2
    emp_var = power.mean(axis=0)
    stderr = power.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(emp_var - target[:, None]) <= 3.0 * stderr)


def test_hybrid_energy_split_conserved():
    cfg = make_config(rows=20, cols=20)
    budget = link_budget(cfg)
    mn = cfg.panel.element_count
    trials = 2500
    draw = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))
    entries = np.stack([draw((6, t)) for t in range(trials)])
    s_r = cfg.users_reflection

    reflect = (np.abs(entries[:, :s_r, :]) ** 2 / budget.avg_pathloss_reflect).ravel()
    transmit = (np.abs(entries[:, s_r:, :]) ** 2 / budget.avg_pathloss_transmit).ravel()
    total = reflect.mean() + transmit.mean()
    stderr = math.hypot(reflect.std(ddof=1) / math.sqrt(reflect.size),
                        transmit.std(ddof=1) / math.sqrt(transmit.size))
    assert abs(total - mn) <= 4.0 * stderr


def test_magnitude_distribution_ignores_phase_grid():
    # deterministic two-sample z test at the 1% level on mean squared gains
    rng = np.random.default_rng(2024)
    grid = rng.uniform(0.0, 2.0 * np.pi, size=(10, 10))
    cfg_flat = make_config(rows=10, cols=10)
    cfg_twisted = make_config(rows=10, cols=10, phase_reflect=grid,
                              phase_transmit=grid[::-1])
    trials = 4000

    def mean_power(cfg, tag):
        draw = prepare_sampler(cfg, RisType.HYBRID, link_budget(cfg))
        samples = np.stack([draw((tag, t)) for t in range(trials)])
        return np.abs(samples) ** 2

    power_a = mean_power(cfg_flat, 1)
    power_b = mean_power(cfg_twisted, 2)
    za = power_a.reshape(trials, -1).mean(axis=1)
    zb = power_b.reshape(trials, -1).mean(axis=1)
    diff = za.mean() - zb.mean()
    stderr = math.hypot(za.std(ddof=1) / math.sqrt(trials),
                        zb.std(ddof=1) / math.sqrt(trials))
    assert abs(diff) <= 2.576 * stderr


@pytest.mark.parametrize("law", sorted(FADING_LAWS))
def test_aggregated_variance_matches_amplitude(law):
    cfg = make_config(rows=8, cols=8)
    for reflection in (True, False):
        stats = zone_gain_statistics(cfg, RisType.HYBRID, reflection, trials=4000,
                                     fading=law, seed=11)
        assert stats.expected_variance == pytest.approx(0.5, rel=1e-12)
        assert abs(stats.variance - stats.expected_variance) <= 3.0 * stats.variance_stderr
        assert abs(stats.mean) <= 4.0 * math.sqrt(stats.expected_variance / stats.trials)


def test_aggregated_gain_normality_for_large_panels():
    cfg = make_config(rows=50, cols=50)
    transmit, reflect = (zone_gain_statistics(cfg, RisType.TRANSMISSIVE, reflection,
                                              trials=3000, fading="uniform_phase",
                                              seed=4)
                         for reflection in (False, True))
    assert abs(transmit.kurtosis_real) < 0.25
    assert abs(transmit.kurtosis_imag) < 0.25
    # the dead zone of a single-function surface carries no energy at all
    assert reflect.variance == 0.0


def test_single_element_keeps_fading_law_shape():
    cfg = make_config(rows=1, cols=1)
    stats = zone_gain_statistics(cfg, RisType.REFLECTIVE, True, trials=4000,
                                 fading="uniform_phase", seed=12)
    # unit-modulus law: cos(theta) has excess kurtosis -1.5, nothing like a normal
    assert stats.variance == pytest.approx(1.0, abs=0.05)
    assert stats.kurtosis_real < -1.0


def test_statistics_require_enough_trials():
    with pytest.raises(ValueError):
        zone_gain_statistics(make_config(rows=2, cols=2), RisType.HYBRID, True, 99)


def test_unknown_fading_law_rejected():
    with pytest.raises(ValueError, match="unknown fading law"):
        resolve_fading("rayleigh_of_unusual_size")


def test_fading_laws_are_unit_variance():
    rng = rng_for_seed(5)
    for name, law in FADING_LAWS.items():
        batch = law(rng, (20000,))
        assert abs(batch.mean()) < 0.02, name
        assert np.mean(np.abs(batch) ** 2) == pytest.approx(1.0, abs=0.03), name


# --- the threaded element path: failures and plain callables -------------------

class FinishFailed(RuntimeError):
    pass


def _run_with_watchdog(call, seconds=60.0):
    """Run call() on its own thread; return the exception it raised (or None)
    once it ends, failing the test if it is still running after `seconds`."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(seconds)
    assert not caller.is_alive(), "the element path hung"
    return outcome[0], caller


@pytest.fixture
def handoff(monkeypatch):
    # 2500 elements: every 128-row block after the first goes to a worker
    monkeypatch.setattr(channel, "_HANDOFF_RATIO", 0.0)


def test_worker_failure_propagates_with_its_own_type(handoff):
    cfg = make_config()
    before = threading.active_count()
    finished_on = []

    def finish(raw):
        finished_on.append(threading.current_thread())
        if len(finished_on) > 1:  # the first block is timed on the caller
            raise FinishFailed("finish failed")
        return gaussian_fading.finish(raw)

    law = FadingLaw(gaussian_fading.draw, finish)
    error, caller = _run_with_watchdog(
        lambda: zone_gain_statistics(cfg, RisType.HYBRID, True, 1000, fading=law))
    assert isinstance(error, FinishFailed)
    assert any(thread is not caller for thread in finished_on[1:])
    assert threading.active_count() == before


def test_draw_failure_with_blocks_in_flight_leaves_no_thread(handoff):
    cfg = make_config()
    before = threading.active_count()
    calls = []

    def draw(rng, shape):
        calls.append(shape)
        if len(calls) == 4:
            raise FinishFailed("draw failed")
        return gaussian_fading.draw(rng, shape)

    law = FadingLaw(draw, gaussian_fading.finish)
    error, _ = _run_with_watchdog(
        lambda: zone_gain_statistics(cfg, RisType.HYBRID, True, 1000, fading=law))
    assert isinstance(error, FinishFailed)
    assert len(calls) == 4
    assert threading.active_count() == before


def test_plain_callable_law_matches_an_inline_reference():
    cfg = make_config()
    mn = cfg.panel.element_count
    trials = 1000
    callers = set()

    def law(rng, shape):
        callers.add(threading.current_thread())
        return uniform_phase_fading(rng, shape)

    stats = zone_gain_statistics(cfg, RisType.HYBRID, True, trials, fading=law, seed=8)
    # a plain callable runs whole on the calling thread
    assert callers == {threading.current_thread()}

    # one whole-panel draw from the zone's stream and one product, no threads
    g = uniform_phase_fading(rng_for_seed((8, 0)), (trials, mn))
    coeff = element_coefficients(cfg.panel, RisType.HYBRID, True)
    samples = (g @ coeff) * (1.0 / math.sqrt(mn))
    mean = complex(samples.mean())
    centered = samples - mean
    sq = np.abs(centered) ** 2

    def kurtosis(x):
        m2 = float(np.mean(x * x))
        return float(np.mean(x ** 4)) / (m2 * m2) - 3.0

    assert stats.mean == mean
    assert stats.variance == float(sq.mean())
    assert stats.variance_stderr == float(sq.std(ddof=1) / math.sqrt(trials))
    assert stats.kurtosis_real == kurtosis(centered.real)
    assert stats.kurtosis_imag == kurtosis(centered.imag)
