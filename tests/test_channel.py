"""Link budget and channel sampling: formulas, statistics, determinism."""

import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import REFERENCE_SCENARIO, make_config, replay_gain_statistics
from ris_select import (
    DegenerateGeometryError,
    FADING_LAWS,
    RisType,
    link_budget,
    load_scenario,
    prepare_sampler,
    zone_gain_statistics,
)
from ris_select import channel
from ris_select.channel import (
    gaussian_fading,
    resolve_fading,
    rng_for_seed,
    rng_for_seeds,
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


def _raw(bit_generator, n=16):
    return bit_generator.random_raw(n)


def test_rng_for_seed_is_sfc64_over_seed_sequence():
    # every key selects the stream of SFC64(SeedSequence(key)): random keys
    # of 1-6 words, the edge words, plain ints, numpy ints and the keys
    # that leave [0, 2**32)
    rng = np.random.default_rng(17)
    keys = [tuple(int(w) for w in rng.integers(0, 2 ** 32, size=n))
            for n in range(1, 7) for _ in range(20)]
    keys += [(0,), (1,), (2 ** 32 - 1,), (0, 0, 0, 0), (2 ** 32 - 1, 0, 1, 2 ** 32 - 1),
             (7, 1, 2 ** 32 - 1, 0, 1, 5)]
    keys += [0, 1, 9, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, (2 ** 32, 1), (True, 2),
             (np.uint32(3), 2), np.int64(5)]
    for key in keys:
        expected = np.random.SFC64(np.random.SeedSequence(key))
        assert np.array_equal(_raw(rng_for_seed(key).bit_generator),
                              _raw(expected)), key


def test_rng_for_seed_keeps_aliases_and_errors():
    def stream(key):
        return _raw(rng_for_seed(key).bit_generator)

    # SeedSequence splits 2**32 into the words (0, 1) and pads short keys
    assert np.array_equal(stream(2 ** 32), stream((0, 1)))
    assert np.array_equal(stream(9), stream((9, 0)))
    assert not np.array_equal(stream((9, 1)), stream((9, 0)))
    for negative in (-1, (3, -1), (-2 ** 40,)):
        with pytest.raises(ValueError):
            rng_for_seed(negative)
    # a uint32 conversion would truncate these silently
    for fractional in (5.5, (1, 5.5), (5.0, 2), (1, np.float64(2.0))):
        with pytest.raises(TypeError):
            rng_for_seed(fractional)


def test_rng_for_seeds_matches_sfc64_over_seed_sequence_bit_for_bit():
    # 3000 random keys of 1-5 words seeded in one call: each generator is
    # Generator(SFC64(SeedSequence(key))). Keys that numpy seeds on its own
    # path (words past 2**32, numpy ints, bools) keep their place.
    rng = np.random.default_rng(16)
    keys = [tuple(int(w) for w in rng.integers(0, 2 ** 32, size=rng.integers(1, 6)))
            for _ in range(3000)]
    keys[::500] = [2 ** 32, np.int64(5), (2 ** 40, 1), 7, (True, 2), (2 ** 32 - 1,)]
    generators = rng_for_seeds(keys)
    assert len(generators) == len(keys)
    for key, generator in zip(keys, generators):
        expected = np.random.SFC64(np.random.SeedSequence(key))
        assert np.array_equal(_raw(generator.bit_generator), _raw(expected)), key
    assert rng_for_seeds([]) == []
    with pytest.raises(ValueError):
        rng_for_seeds([(1, 2), (3, -1)])


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


# --- the uniform_phase kernel: table-driven unit phasors -----------------------

def _assert_close_to_exp(u):
    """The kernel's phasors of u against exp(2 pi i u) in extended precision."""
    phasors = channel._unit_phasors(u.copy())
    angles = u.astype(np.longdouble) * (2 * np.arccos(np.longdouble(-1)))
    error = np.hypot((phasors.real - np.cos(angles)).astype(float),
                     (phasors.imag - np.sin(angles)).astype(float))
    assert error.max() <= 2e-15
    assert np.abs(np.abs(phasors) - 1.0).max() <= 1e-15
    return phasors


def test_unit_phasors_match_an_extended_precision_reference():
    u = rng_for_seed(21).random((40, 2500))
    assert _assert_close_to_exp(u).shape == u.shape


def test_unit_phasors_at_edge_inputs():
    ulp = 2.0 ** -53
    steps = np.arange(256) / 256
    u = np.concatenate([[0.0, 1.0 - ulp, 0.25, 0.5, 0.75], steps, steps[1:] - ulp,
                        steps + ulp])
    phasors = _assert_close_to_exp(u)
    # the quarter turns are exact, and a grid point takes its table entry
    assert phasors[[0, 2, 3, 4]].tolist() == [1, 1j, -1, -1j]
    assert phasors[1] == 1.0 - 2j * math.pi * ulp
    cos, sin = channel._PHASOR_TABLE
    assert np.array_equal(phasors[5:5 + 256], (cos + 1j * sin)[:256])
    assert not channel._PHASOR_TABLE.flags.writeable


@pytest.mark.parametrize("chunk", [7, 1000, 8192, 32768])
def test_unit_phasors_do_not_depend_on_the_offset(monkeypatch, chunk):
    # a sample's bits are the same wherever it sits in the array and however
    # the array is cut into passes; the input spans several full passes at
    # the module's pass size
    size = 3 * channel._PHASOR_CHUNK + 123
    u = rng_for_seed(22).random(size)
    whole = channel._unit_phasors(u.copy())
    monkeypatch.setattr(channel, "_PHASOR_CHUNK", chunk)
    for start, stop in ((0, size), (1, 2500), (3, 8195), (8191, 20000), (5, 6),
                        (12345, size), (32767, 2 * 32768 + 1)):
        part = channel._unit_phasors(u[start:stop].copy())
        assert part.tobytes() == whole[start:stop].tobytes(), (start, stop)
    rows = channel._unit_phasors(u[:24000].reshape(8, 3000).copy())
    assert rows.tobytes() == whole[:24000].tobytes()


def _on_a_fresh_thread(call):
    """call() run on a new thread, which holds no kernel scratch yet."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()))
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive()
    return result[0]


def test_unit_phasors_do_not_depend_on_the_scratch(monkeypatch):
    u = rng_for_seed(23).random(2 * channel._PHASOR_CHUNK + 77)
    large, small = u, u[:1000]

    def phasors(v):
        return channel._unit_phasors(v.copy()).tobytes()

    def held():
        return channel._phasor_scratch(0)[0].size // 2

    want_large = _on_a_fresh_thread(lambda: phasors(large))
    want_small = _on_a_fresh_thread(lambda: phasors(small))
    # the calling thread, with the scratch of earlier calls
    assert phasors(large) == want_large and phasors(small) == want_small
    # a smaller call after a larger one keeps the scratch; a larger call
    # after a smaller one grows it
    larger_first = _on_a_fresh_thread(lambda: (phasors(large), phasors(small), held()))
    assert larger_first == (want_large, want_small, channel._PHASOR_CHUNK)
    smaller_first = _on_a_fresh_thread(
        lambda: (phasors(small), held(), phasors(large), held()))
    assert smaller_first == (want_small, small.size, want_large, channel._PHASOR_CHUNK)
    # an empty first call
    empty_first = _on_a_fresh_thread(lambda: (phasors(u[:0]), phasors(small)))
    assert empty_first == (b"", want_small)
    # passes longer than the scratch this thread holds
    grown = held() + 4096
    monkeypatch.setattr(channel, "_PHASOR_CHUNK", grown)
    assert phasors(large) == want_large
    assert held() == grown


def test_concurrent_unit_phasor_calls_keep_their_own_scratch():
    # more threads than cores, switching often: a scratch shared between
    # threads would mix their passes
    inputs = [rng_for_seed(26 + i).random(2 * channel._PHASOR_CHUNK + 1000 * i)
              for i in range(4)]
    expected = [channel._unit_phasors(u).tobytes() for u in inputs]
    results = [[] for _ in inputs]

    def call(i):
        for _ in range(5):
            results[i].append(channel._unit_phasors(inputs[i]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [[want] * 5 for want in expected]


def test_a_repeated_unit_phasor_call_allocates_only_its_output():
    u = rng_for_seed(24).random(3 * channel._PHASOR_CHUNK + 12345)
    channel._unit_phasors(u)  # this thread now holds its scratch
    held = channel._phasor_scratch(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = channel._unit_phasors(u)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the call used the buffers this thread already holds; new scratch would
    # also show in the peak, 40 bytes per value of a pass
    assert channel._phasor_scratch(0) is held
    # beyond the output, numpy's iterator buffer for the float -> int casts
    # of the table index and a few array views
    slack = np.getbufsize() * 8 + 8192
    assert out.nbytes <= peak <= out.nbytes + slack


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_keeps_its_own_scratch():
    # the child inherits the scratch this thread holds; parent and child
    # run different inputs through it at once, each on its own copy
    inputs = [rng_for_seed(27 + i).random(2 * channel._PHASOR_CHUNK + 500 * i)
              for i in range(2)]
    expected = [channel._unit_phasors(u).tobytes() for u in inputs]
    context = multiprocessing.get_context("fork")
    start = context.Barrier(2, timeout=60.0)
    receiver, sender = context.Pipe(duplex=False)

    def mismatches(i):
        start.wait()
        return sum(channel._unit_phasors(inputs[i]).tobytes() != expected[i]
                   for _ in range(200))

    child = context.Process(target=lambda: sender.send(mismatches(1)))
    child.start()
    try:
        assert mismatches(0) == 0
        assert receiver.poll(60.0)
        assert receiver.recv() == 0
    finally:
        child.join(60.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_starts_its_own_worker():
    # fork copies only the calling thread, not the parent's worker: a child
    # handing blocks to that worker would wait for it for ever
    expected = repr(_gain_call("uniform_phase"))
    assert channel._WORKER.thread.is_alive()
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=lambda: sender.send(repr(_gain_call("uniform_phase"))))
    child.start()
    try:
        assert receiver.poll(60.0), "the forked child's call hung"
        assert receiver.recv() == expected
    finally:
        child.join(60.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_uniform_phase_samples_share_no_memory_with_their_draw():
    drawn = []

    class Recording:
        """A generator that keeps what its random() returns."""

        def random(self, *args, **kwargs):
            drawn.append(rng_for_seed(25).random(*args, **kwargs))
            return drawn[-1]

    for shape in ((), (5,), (32, 2500), (2 * channel._PHASOR_CHUNK + 3,)):
        samples = uniform_phase_fading(Recording(), shape)
        assert samples.shape == shape
        assert not np.shares_memory(samples, drawn[-1]), shape
        assert samples.tobytes() == channel._unit_phasors(drawn[-1]).tobytes()


# --- the element path on two threads ------------------------------------------

class DrawFailed(RuntimeError):
    pass


class WorkerFailed(LookupError):
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


def _gain_call(law, trials=1000):
    """One 2500-element statistics call: 31 blocks of 32 rows and one of 8."""
    return zone_gain_statistics(make_config(), RisType.HYBRID, True, trials,
                                fading=law, seed=8)


def _threads_beyond(before):
    """Threads running now that did not run at `before`, other than the
    element worker (which lives as long as the process)."""
    return set(threading.enumerate()) - before - {channel._WORKER.thread}


def _serial(task, count):
    for index in range(count):
        task(index)


def test_worker_failure_propagates_with_its_own_type():
    before = set(threading.enumerate())
    worker_in = threading.Event()
    callers, calls = [], []

    def law(rng, shape):
        thread = threading.current_thread()
        calls.append(thread)
        if thread is callers[0]:
            # hold the caller's block until the worker has failed on one
            assert worker_in.wait(10.0)
            return uniform_phase_fading(rng, shape)
        worker_in.set()
        raise DrawFailed("worker draw failed")

    def call():
        callers.append(threading.current_thread())
        _gain_call(law)

    error, caller = _run_with_watchdog(call)
    assert isinstance(error, DrawFailed)
    # the worker failed on its first block, and the caller started no block
    # after it (it may have taken none: the worker can fail first)
    assert [thread is caller for thread in calls].count(False) == 1
    assert len(calls) <= 2
    assert _threads_beyond(before) == set()


def test_draw_failure_with_blocks_in_flight_leaves_no_thread():
    before = set(threading.enumerate())
    worker_in, failed = threading.Event(), threading.Event()
    callers, calls = [], []

    def law(rng, shape):
        thread = threading.current_thread()
        calls.append(thread)
        if thread is callers[0]:
            assert worker_in.wait(10.0)
            failed.set()
            raise DrawFailed("caller draw failed")
        # the worker's block is in flight when the caller fails
        worker_in.set()
        assert failed.wait(10.0)
        return uniform_phase_fading(rng, shape)

    def call():
        callers.append(threading.current_thread())
        _gain_call(law)

    error, caller = _run_with_watchdog(call)
    assert isinstance(error, DrawFailed)
    # the worker finished the block it held and started no other
    assert sorted(thread is caller for thread in calls) == [False, True]
    assert _threads_beyond(before) == set()


def test_one_worker_thread_finishes_every_handed_block():
    # every call hands blocks to the same one worker, the only thread that
    # starts beyond those running before (the first element-path call in
    # the process starts it), and the caller and the worker draw every block
    # exactly once between them
    before = set(threading.enumerate())
    workers = []
    for _ in range(3):
        worker_in = threading.Event()
        shapes, threads = [], set()

        def law(rng, shape):
            thread = threading.current_thread()
            threads.add(thread)
            if thread is threading.main_thread():
                assert worker_in.wait(10.0)
            else:
                worker_in.set()
            shapes.append(shape)
            return uniform_phase_fading(rng, shape)

        _gain_call(law)
        workers.append(threads - {threading.main_thread()})
        assert sorted(shapes) == sorted([(32, 2500)] * 31 + [(8, 2500)])
    assert workers == [{channel._WORKER.thread}] * 3
    assert channel._WORKER.thread.daemon and channel._WORKER.thread.is_alive()
    assert _threads_beyond(before) == set()


@pytest.mark.parametrize("first", ["worker", "caller"])
def test_caller_failure_wins_when_both_threads_fail(monkeypatch, first):
    # the caller's block and the worker's block both raise, in either order:
    # the caller's exception type propagates, and no thread is left running
    # or reports an exception of its own
    before = set(threading.enumerate())
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    caller_in, worker_in, caller_out, worker_out = (threading.Event() for _ in range(4))
    callers = []

    def task(index):
        # each thread holds a block before either fails
        if threading.current_thread() is callers[0]:
            caller_in.set()
            assert worker_in.wait(10.0)
            if first == "worker":
                assert worker_out.wait(10.0)
            caller_out.set()
            raise DrawFailed("caller block failed")
        worker_in.set()
        assert caller_in.wait(10.0)
        if first == "caller":
            assert caller_out.wait(10.0)
            time.sleep(0.05)  # the caller's exception is on its way
        worker_out.set()
        raise WorkerFailed("worker block failed")

    def call():
        callers.append(threading.current_thread())
        channel._on_two_threads(task, 8)

    error, _ = _run_with_watchdog(call)
    assert type(error) is DrawFailed
    assert worker_out.is_set() and caller_out.is_set()
    assert _threads_beyond(before) == set()
    assert hooked == []


def test_two_threads_run_every_index_exactly_once():
    # three callers at once (six threads on fewer cores) with a short switch
    # interval: an index run twice or skipped would show in its count
    counts = [[0] * 3000 for _ in range(3)]

    def call(row):
        def task(index):
            row[index] += 1
        channel._on_two_threads(task, len(row))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(row,)) for row in counts]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert counts == [[1] * 3000 for _ in range(3)]


def test_concurrent_gain_calls_share_one_worker(monkeypatch):
    # four callers (more than the cores) switching often: one call at a time
    # hands blocks to the worker and the others run theirs alone, and every
    # result equals the serial one
    laws = ["uniform_phase", "gaussian", "sign", "uniform_phase"]
    with monkeypatch.context() as patch:
        patch.setattr(channel, "_on_two_threads", _serial)
        expected = {law: repr(_gain_call(law, 300)) for law in set(laws)}
    before = set(threading.enumerate())
    results = [[] for _ in laws]

    def call(i):
        for _ in range(4):
            results[i].append(repr(_gain_call(laws[i], 300)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,), daemon=True)
                   for i in range(len(laws))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [[expected[law]] * 4 for law in laws]
    assert _threads_beyond(before) == set()


def test_a_call_nested_in_a_task_runs_on_its_own_thread():
    # the worker is busy with the outer call, so a call made from inside one
    # of its tasks, on either thread, runs every inner task on that thread
    before = set(threading.enumerate())
    worker_in, caller_done = threading.Event(), threading.Event()
    callers, ran = [], {}

    def task(index):
        thread = threading.current_thread()
        if thread is callers[0]:
            assert worker_in.wait(10.0)
        else:
            worker_in.set()
        inner = []
        channel._on_two_threads(lambda i: inner.append(threading.current_thread()), 5)
        ran[index] = thread, inner
        if thread is callers[0]:
            caller_done.set()
        else:  # keep the worker busy until the caller's nested call is done
            assert caller_done.wait(10.0)

    def call():
        callers.append(threading.current_thread())
        channel._on_two_threads(task, 2)

    error, caller = _run_with_watchdog(call)
    assert error is None
    assert sorted(thread is caller for thread, _ in ran.values()) == [False, True]
    assert all(inner == [thread] * 5 for thread, inner in ran.values())
    assert _threads_beyond(before) == set()


@pytest.mark.parametrize("name", sorted(FADING_LAWS))
def test_gain_statistics_do_not_depend_on_thread_timing(monkeypatch, name):
    # compared by repr, which is exact for floats and equal for NaN (the
    # sign law's imaginary kurtosis on a zero phase grid)
    expected = repr(_gain_call(name))
    with monkeypatch.context() as patch:
        patch.setattr(channel, "_on_two_threads", _serial)
        assert repr(_gain_call(name)) == expected

    delayed = []

    def late(rng, shape):
        if threading.current_thread() is not threading.main_thread() and not delayed:
            delayed.append(shape)
            time.sleep(0.05)  # the worker holds its first block; the caller runs on
        return FADING_LAWS[name](rng, shape)

    assert repr(_gain_call(late)) == expected


def test_sampler_draws_stay_on_the_calling_thread():
    reference = load_scenario(REFERENCE_SCENARIO)
    threads = set()

    def law(rng, shape):
        threads.add(threading.current_thread())
        return gaussian_fading(rng, shape)

    draw = prepare_sampler(reference, RisType.HYBRID, link_budget(reference), law)
    before = set(threading.enumerate())
    draw((3,))
    assert threads == {threading.current_thread()}
    assert _threads_beyond(before) == set()


def test_plain_callable_law_matches_an_inline_reference():
    # block b of the zone draws law(rng_for_seed(zone key + (b,)), shape) and
    # sums it over the panel, whichever thread runs it
    def law(rng, shape):
        return uniform_phase_fading(rng, shape)

    cfg = make_config()
    stats = _gain_call(law)
    assert stats == replay_gain_statistics(cfg, RisType.HYBRID, True, 1000, law,
                                           8, channel._STAT_CHUNK)
    assert stats == _gain_call("uniform_phase")
