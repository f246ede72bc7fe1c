"""Pathloss aggregation and random channel synthesis.

The cascaded base-station -> element -> user channel is modeled per element as
sqrt(pathloss) * fading * element_coefficient, then summed over the panel.
Because the panel is far from both ends, per-element distances and angles are
collapsed to their center values, so one averaged pathloss per zone multiplies
the whole aggregate.

Sampling is pure given (config, type, seed): seeds are ints or tuples of
ints keyed through SeedSequence, so tuple-extended substreams are
replayable and safe to farm out in parallel.

Fading laws are plain callables law(rng, shape); uniform_phase computes
exp(2 pi i u) by a table-driven unit-phasor kernel, in passes of
_PHASOR_CHUNK values through scratch that each thread allocates once, as
plain arrays, and keeps.
zone_gain_statistics cuts its trials into blocks of _STAT_CHUNK rows, and
block b draws from its own generator zone_seed + (b,). _on_two_threads
runs such keyed tasks on the calling thread and the one element worker
thread, which starts on first use and lives as long as the process; the
two take the next index from one shared iterator. Each task writes only
its own rows, so a sample's bits depend on the seed and the block cut,
never on threads or timing. numpy's generator fills release the GIL, so
the two threads' draws overlap, where one generator's draws stay serial.
prepare_sampler's draw is one stream, drawn a few user rows at a time in
stream order on the calling thread; element_monte_carlo runs its keyed
trials through _on_two_threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .scenario import (
    ConfigValidationError,
    RisType,
    ScenarioConfig,
    incident_angle_factor,
    reflection_zone_mask,
)

_PATHLOSS_DENOM = 64.0 * math.pi ** 3
# Rows per zone_gain_statistics block. Each block draws from its own key, so
# the cut is part of the stream contract: another block size gives other
# samples. Small blocks keep the two threads' shares of a call even and
# bound what each holds: at 2500 elements a block is 80000 values, 1.28 MB
# of complex samples.
_STAT_CHUNK = 32
# prepare_sampler groups whole user rows into blocks of about this many
# values (one row once a row holds more), so a draw holds a few user rows,
# not the whole (S, K_t, M N) array. The draw is one stream in row order,
# so its samples do not depend on this size.
_BLOCK_VALUES = 1 << 16


class DegenerateGeometryError(ValueError):
    """Grazing incidence: the surface collects no power."""


@dataclass(frozen=True)
class LinkBudget:
    """Derived link scalars shared by every rate formula.

    `avg_pathloss_reflect` / `avg_pathloss_transmit` are the zone-averaged
    pathlosses including the zone radiation constant (the only factor that
    differs between the two). `link_constant` aggregates geometry, noise,
    power, gains and panel size into a single small-is-good scalar; the
    per-user received SNR of a served user is (power share) * epsilon_zone *
    |amplitude|^2 / link_constant.
    """

    avg_pathloss_reflect: float
    avg_pathloss_transmit: float
    link_constant: float
    cos_sq_incidence: float


def link_budget(cfg: ScenarioConfig) -> LinkBudget:
    """Average per-zone pathloss and the composite link constant.

    beta_zone = lambda^2 G l_M l_N / (64 pi^3) * G_I cos^2(theta) eps_zone
                / (D d)^alpha
    L = 64 pi^3 (D d)^alpha sigma^2
        / (P_T lambda^2 G l_M l_N G_I cos^2(theta) K_t M N)

    The two are tied by L * beta_zone * P_T * K_t * M * N = sigma^2 * eps_zone.
    Raises DegenerateGeometryError at grazing incidence, and
    ConfigValidationError when the pathloss or L over- or underflows a
    float (so that it is zero or infinite).
    """
    try:
        cos_sq = incident_angle_factor(cfg)
    except ZeroDivisionError:  # D^2 underflows to zero
        cos_sq = math.nan
    if cos_sq <= 0.0:
        raise DegenerateGeometryError(
            "grazing incidence: bs_ris_distance equals the BS/RIS height offset"
        )
    panel = cfg.panel
    try:
        base = (cfg.wavelength ** 2 * cfg.antenna_gain * panel.element_width
                * panel.element_height) / _PATHLOSS_DENOM
        spread = (cfg.bs_ris_distance * cfg.ris_ue_distance) ** cfg.pathloss_exponent
        beta_common = base * panel.element_gain * cos_sq / spread
        link_constant = cfg.noise_variance / (
            cfg.transmit_power * cfg.bs_antennas * panel.element_count * beta_common
        )
    except (OverflowError, ZeroDivisionError):
        link_constant = 0.0
    # Over- or underflow leaves a NaN incidence factor (D^2 is 0 or inf) or an
    # L of 0 or inf; a NaN field set behind validation passes through.
    if math.isnan(cos_sq) or link_constant in (0.0, math.inf):
        raise ConfigValidationError(
            "link budget out of floating-point range: the pathloss or the link "
            "constant over- or underflows; check wavelength_m, the distances and "
            "pathloss_exponent")
    return LinkBudget(
        avg_pathloss_reflect=beta_common * panel.radiation_reflect,
        avg_pathloss_transmit=beta_common * panel.radiation_transmit,
        link_constant=link_constant,
        cos_sq_incidence=cos_sq,
    )


# --- small-scale fading laws -------------------------------------------------

def gaussian_fading(rng, shape):
    """Circularly symmetric complex normal, unit variance per sample."""
    pairs = rng.standard_normal(tuple(shape) + (2,))
    pairs *= math.sqrt(0.5)
    return pairs.view(np.complex128)[..., 0]


# exp(2 pi i u) by table and polynomial (Tang's table-driven method): with
# t = 256 u, n = rint(t) and r = t - n, all exact for u a multiple of 2**-53
# in [0, 1), it is table[n] * (cos + i sin)(2 pi r / 256), |r| <= 1/2. The
# table's 257 entries are rounded once from extended precision (its quarter
# turns are exact); the degree 6 and 7 Taylor polynomials of cos and sin
# leave truncation errors below 1e-19.
_PHASOR_STEPS = 256
# Values per pass of the kernel. Each of a pass's 16 numpy calls can hand
# the GIL to the element path's other thread, so a call must last long
# enough for the hand-off to be cheap: at 8192 values (about 6 us a call)
# two threads ran uniform_phase no faster than one, at half again the CPU.
# The real and imaginary parts share calls as the rows of (2, n) arrays for
# the same reason. Longer passes need the scratch to outlive the call:
# buffers allocated per call and this large fall above glibc's mmap
# threshold and fault their pages in again on every call (about 25000
# faults per 3 zone calls at 16384 values, 12 at 8192), so each thread
# allocates its scratch once (_phasor_scratch) and keeps it (the element
# worker for the life of the process): 1.25 MB, inside a core's 2 MB L2.
_PHASOR_CHUNK = 32768
_SCRATCH = threading.local()


def _phasor_table() -> np.ndarray:
    """Rows cos and sin of 2 pi n / _PHASOR_STEPS for n = 0 .. _PHASOR_STEPS."""
    turns = np.arange(_PHASOR_STEPS + 1, dtype=np.longdouble)
    angles = turns * (2 * np.arccos(np.longdouble(-1)) / _PHASOR_STEPS)
    table = np.array([np.cos(angles), np.sin(angles)], dtype=float)
    table[:, ::_PHASOR_STEPS // 4] = [(1, 0, -1, 0, 1), (0, 1, 0, -1, 0)]
    table.setflags(write=False)
    return table


_PHASOR_TABLE = _phasor_table()
# Horner rows in x = r**2: row j holds the coefficients of x**(3 - j) in
# cos(a r) and in sin(a r) / r, a = 2 pi / _PHASOR_STEPS.
_PHASOR_POLY = np.array([
    [(-1) ** k * (math.tau / _PHASOR_STEPS) ** (2 * k + odd) / math.factorial(2 * k + odd)
     for odd in (0, 1)] for k in (3, 2, 1, 0)])[:, :, None]


def _phasor_scratch(size: int) -> tuple:
    """The running thread's kernel buffers, plain arrays: two flat ones of
    2 size floats and one of size int64 table indices, allocated on the
    thread's first call, again only when a call needs more, and kept while
    the thread lives (the element worker's, as long as the process)."""
    held = getattr(_SCRATCH, "buffers", None)
    if held is None or held[2].size < size:
        held = np.empty(2 * size), np.empty(2 * size), np.empty(size, dtype=np.int64)
        _SCRATCH.buffers = held
    return held


def _unit_phasors(u):
    """Unit-modulus samples with uniform phase; mean 0, unit variance.

    Each sample is exp(2 pi i u) to within about 3e-16. The kernel works in
    flat passes of _PHASOR_CHUNK values, on the real and imaginary parts as
    the two rows of (2, n) arrays held in the running thread's scratch, with
    real elementwise ufuncs only: a sample's bits do not depend on where it
    sits in the array, nor on the machine's fused multiply-add (a complex
    multiply may use one). The result is a new array.
    """
    out = np.empty(u.shape, dtype=complex)
    flat = u.reshape(-1)
    parts = out.reshape(-1).view(float).reshape(-1, 2).T  # rows real, imag
    scratch_rx, scratch_p, indices = _phasor_scratch(min(_PHASOR_CHUNK, flat.size))
    for start in range(0, flat.size, _PHASOR_CHUNK):
        v = flat[start:start + _PHASOR_CHUNK]
        n = v.size
        # contiguous (2, n) views, so that np.take writes its rows in place
        rx, p = scratch_rx[:2 * n].reshape(2, n), scratch_p[:2 * n].reshape(2, n)
        r, x = rx
        np.multiply(v, _PHASOR_STEPS, out=r)
        k = indices[:n]
        np.rint(r, out=k, casting="unsafe")
        r -= k
        np.multiply(r, r, out=x)
        np.multiply(x, _PHASOR_POLY[0], out=p)
        for c in _PHASOR_POLY[1:-1]:
            p += c
            p *= x
        p += _PHASOR_POLY[-1]
        p[1] *= r  # p = (cos, sin)(2 pi r / 256)
        table = rx  # the reduced argument is spent
        np.take(_PHASOR_TABLE, k, axis=1, out=table, mode="clip")
        o = parts[:, start:start + n]
        np.multiply(table[0], p, out=o)
        p *= table[1]
        o[0] -= p[1]
        o[1] += p[0]
    return out


def sign_fading(rng, shape):
    """Random +/-1, a two-point law with mean 0 and unit variance."""
    bits = rng.integers(0, 2, size=shape)
    bits *= 2
    bits -= 1
    return bits.astype(complex)


def uniform_phase_fading(rng, shape):
    """Unit-modulus samples exp(2 pi i u), u uniform on [0, 1)."""
    return _unit_phasors(rng.random(shape))


FADING_LAWS = {
    "gaussian": gaussian_fading,
    "uniform_phase": uniform_phase_fading,
    "sign": sign_fading,
}


def resolve_fading(fading):
    if callable(fading):
        return fading
    try:
        return FADING_LAWS[fading]
    except KeyError:
        known = ", ".join(sorted(FADING_LAWS))
        raise ValueError(f"unknown fading law {fading!r}; known laws: {known}") from None


def rng_for_seed(seed) -> np.random.Generator:
    """Deterministic generator for an int seed or a tuple of ints.

    SFC64 keyed through SeedSequence: substreams for tuple-extended seeds
    are replayable, so streams can be farmed out in parallel without
    coordination. Distinct keys give independent streams only when they have
    the same length and every word lies in [0, 2**32): SeedSequence pads its
    entropy with zeros and splits larger ints into 32-bit words, so
    (9, 0, 3) and (9, 0, 3, 0) are one stream, as are 9 and (9, 0), and
    2**32 and (0, 1). The CLI keeps to that rule (two-word (seed, cell)
    keys, seeds below 2**32). SFC64 is the fastest generator shipped with
    numpy, which keeps large Monte Carlo sweeps inside their wall-clock
    budgets. This is rng_for_seeds for one key.
    """
    return rng_for_seeds((seed,))[0]


# SeedSequence.generate_state's output mix for the six uint32 words of an
# SFC64 state (numpy/random/bit_generator.pyx): word i takes pool word i % 4,
# xors it with INIT_B * MULT_B**i, multiplies it by INIT_B * MULT_B**(i + 1)
# (all modulo 2**32) and xors in its own top half.
_MIX_XOR, _MIX_MUL = (np.array([0x8B51F9DD * 0x58F38DED ** (i + j) & 0xFFFFFFFF
                                for i in range(6)], dtype="<u4") for j in (0, 1))
_POOL_WORDS = np.array([0, 1, 2, 3, 0, 1])


@functools.cache
def _state_row_type() -> type:
    """The ISeedSequence that hands SFC64 one precomputed state row in place
    of the SeedSequence whose generate_state(3, np.uint64) it equals. It is
    built on first use, because deriving from a numpy.random class at import
    would load numpy.random (about 20 ms and 2.5 MB) in every process."""

    class StateRow(np.random.bit_generator.ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return StateRow


def _words(seed):
    """The key as a uint32 array when it is an int or a tuple of ints in
    [0, 2**32) (SeedSequence reads the same words from either), else None."""
    key = seed if type(seed) is tuple else (seed,)
    if set(map(type, key)) == {int}:
        try:
            return np.array(key, dtype=np.uint32)
        except OverflowError:
            pass
    return None


def rng_for_seeds(seeds) -> list:
    """rng_for_seed of every key in `seeds`, built in one pass: the streams
    are those of Generator(SFC64(SeedSequence(key))), bit for bit.

    SeedSequence still mixes each uint32-word key into its pool, but the
    output mix that turns the pools into SFC64 states runs once over all of
    them as uint32 array operations, and each SFC64 is seeded from its row.
    Any other key goes to SeedSequence as it is and keeps its stream or its
    error.
    """
    seeds = list(seeds)
    words = [_words(seed) for seed in seeds]
    pools = [np.random.SeedSequence(w).pool for w in words if w is not None]
    if pools:
        state = np.array(pools, dtype="<u4").take(_POOL_WORDS, axis=1)
        state ^= _MIX_XOR
        state *= _MIX_MUL
        state ^= state >> 16
        rows = iter(state.view("<u8").astype(np.uint64, copy=False))
    state_row = _state_row_type()
    return [np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed) if w is None else state_row(next(rows))))
        for seed, w in zip(seeds, words)]


# --- blockwise panel sums --------------------------------------------------------

def _row_bounds(rows: int, step: int) -> list:
    """Cut points of `rows` rows in runs of `step`; a lone last row joins the
    run before it."""
    bounds = list(range(0, rows, step)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def _panel_sum(g, coeff, scale, out) -> None:
    """out[...] = (g @ coeff) * scale, two matrix rows per BLAS call.

    g is (..., rows, M N) and coeff (..., M N, 1). A row's matrix-vector
    product is the same whichever other rows share the call, but not when it
    is alone (numpy then takes a dot product), so the rows go in pairs (the
    last three together when their number is odd). One numpy call loops
    over the pairs without the GIL, and a pair is too small to wake a
    multithreaded BLAS's pool, which would otherwise spin against the
    element path's two threads after every call.
    """
    rows = g.shape[-2]
    if rows < 4:
        out[...] = (g @ coeff) * scale
        return
    head = rows - 3 * (rows % 2)
    lead = g.shape[:-2]
    pairs = g[..., :head, :].reshape(lead + (head // 2, 2, g.shape[-1]))
    out[..., :head, :] = (pairs @ coeff[..., None, :, :]).reshape(lead + (head, 1))
    if head < rows:
        out[..., head:, :] = g[..., head:, :] @ coeff
    out *= scale


class _Worker:
    """The element path's one worker thread, started on first use and kept
    for the life of the process. A caller hands it a job by taking `free`,
    pushing the job to `jobs` and releasing `ready`; the job releases `free`
    once it has run, so a busy worker is never handed another. Fork copies
    only the forking thread, so a child forgets its parent's worker."""

    def __init__(self):
        self.free, self.ready, self.jobs, self.thread = (
            threading.Lock(), threading.Lock(), [], None)
        self.ready.acquire()

    def serve(self):
        while True:
            self.ready.acquire()
            self.jobs.pop()()


_WORKER = _Worker()
if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_WORKER.__init__)


def _on_two_threads(task, count: int) -> None:
    """Run task(0) .. task(count - 1) on the calling thread and the element
    worker (_Worker), both taking the next index from one shared range
    iterator (one C call under the GIL: no index runs twice or is skipped).
    The tasks must be independent, each writing only its own output, so
    that it does not depend on which thread ran which index, nor when. A
    call that finds the worker busy (another thread's call, or one nested in
    a task) runs every task itself. A thread whose task raises takes the
    indices left. The call returns once the worker's share is finished; the
    caller's exception wins, else the worker's is raised as is."""
    indices, failed, worker, done = iter(range(count)), [], _WORKER, threading.Lock()

    def run():
        try:
            for index in indices:
                task(index)
        finally:  # after a failure, no thread starts another task
            for _ in indices:
                pass

    def work():
        try:
            run()
        except BaseException as exc:
            failed.append(exc)
        worker.free.release()
        done.release()

    handed = worker.free.acquire(blocking=False)
    if handed:
        if worker.thread is None:
            worker.thread = threading.Thread(target=worker.serve, daemon=True)
            worker.thread.start()
        done.acquire()
        worker.jobs.append(work)
        worker.ready.release()
    try:
        run()
    finally:
        if handed:
            done.acquire()
    if failed:
        raise failed.pop()


# --- channel synthesis --------------------------------------------------------

def element_coefficients(panel, ris_type: RisType, reflection_zone: bool) -> np.ndarray:
    """Flat per-element response amplitude * exp(-j phase) toward one zone."""
    amp = ris_type.amplitude(reflection_zone)
    phases = panel.phase_reflect if reflection_zone else panel.phase_transmit
    return amp * np.exp(-1j * phases).ravel()


def prepare_sampler(cfg: ScenarioConfig, ris_type: RisType, budget: LinkBudget,
                    fading="gaussian"):
    """Build a draw(seed) -> entries closure with the per-config setup hoisted.

    Entry (s, k) of draw(seed) is sqrt(beta_zone(s)) times the sum over
    elements of g[s, k, element] * coefficient[zone(s), element], with g a
    unit-variance fading block of shape (S, K_t, M*N) drawn in stream order,
    a few whole user rows (K_t, M*N) at a time (one row on a large panel),
    so a seed always gives a bit-identical matrix and a draw holds a few
    user rows, not the whole (S, K_t, M*N) array. The draw runs on the
    calling thread, and concurrent draws share no state.
    """
    law = resolve_fading(fading)
    panel = cfg.panel
    mask = reflection_zone_mask(cfg)

    coeff_reflect = element_coefficients(panel, ris_type, True)
    coeff_transmit = element_coefficients(panel, ris_type, False)
    coeff = np.where(mask[:, None], coeff_reflect[None, :], coeff_transmit[None, :])
    coeff = coeff[:, :, None]
    amplitude = np.where(mask,
                         math.sqrt(budget.avg_pathloss_reflect),
                         math.sqrt(budget.avg_pathloss_transmit))[:, None]
    users, antennas, mn = cfg.users_total, cfg.bs_antennas, panel.element_count
    bounds = _row_bounds(users, max(1, _BLOCK_VALUES // (antennas * mn)))
    blocks = [((stop - start, antennas, mn), coeff[start:stop],
               amplitude[start:stop, :, None], slice(start, stop))
              for start, stop in zip(bounds, bounds[1:])]

    def draw(seed) -> np.ndarray:
        rng = rng_for_seed(seed)
        out = np.empty((users, antennas, 1), dtype=complex)
        for shape, coeff_rows, scale, rows in blocks:
            _panel_sum(np.asarray(law(rng, shape)), coeff_rows, scale, out[rows])
        return out[:, :, 0]

    return draw


# --- aggregated-gain statistics ------------------------------------------------

@dataclass(frozen=True)
class GainStatistics:
    """Empirical moments of the normalized aggregated element gain."""

    mean: complex
    variance: float
    variance_stderr: float
    kurtosis_real: float
    kurtosis_imag: float
    expected_variance: float
    trials: int


def _excess_kurtosis(x: np.ndarray) -> float:
    m2 = float(np.mean(x * x))
    if m2 == 0.0:
        return float("nan")
    m4 = float(np.mean(x ** 4))
    return m4 / (m2 * m2) - 3.0


def zone_gain_statistics(cfg: ScenarioConfig, ris_type: RisType,
                         reflection_zone: bool, trials: int,
                         fading="gaussian", seed=0) -> GainStatistics:
    """Moments of (sum over elements of g * coefficient) / sqrt(M N) toward
    one zone. The zone's key is seed + (0,) for the reflection zone and
    seed + (1,) for the transmission zone (an int seed counts as a 1-tuple).
    The trials are cut into blocks of _STAT_CHUNK rows (a lone last row
    joins the block before it), and block b draws its (rows, M N) fading
    from the generator keyed by zone key + (b,), on either of two threads.

    For a large panel the aggregate has mean 0 and variance equal to the
    squared response amplitude of the zone under any unit-variance law. It
    tends to a complex normal only for a circular law, E[g^2] = 0 (gaussian,
    uniform_phase); sign on a constant phase grid gives a rotated real normal.
    The kurtosis columns test normality for any law. Requires trials >= 100.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100 for stable statistics")
    law = resolve_fading(fading)
    mn = cfg.panel.element_count
    coeff = element_coefficients(cfg.panel, ris_type, reflection_zone)
    samples = np.zeros((trials, 1), dtype=complex)
    if np.any(coeff != 0.0):
        coeff, scale = coeff[:, None], 1.0 / math.sqrt(mn)
        bounds = _row_bounds(trials, _STAT_CHUNK)
        base = seed if isinstance(seed, tuple) else (seed,)
        zone_seed = base + (0 if reflection_zone else 1,)
        rngs = rng_for_seeds([zone_seed + (b,) for b in range(len(bounds) - 1)])

        def block(b):
            start, stop = bounds[b], bounds[b + 1]
            g = np.asarray(law(rngs[b], (stop - start, mn)))
            _panel_sum(g, coeff, scale, samples[start:stop])

        _on_two_threads(block, len(rngs))
    samples = samples[:, 0]
    mean = complex(samples.mean())
    centered = samples - mean
    sq = np.abs(centered) ** 2
    return GainStatistics(
        mean=mean,
        variance=float(sq.mean()),
        variance_stderr=float(sq.std(ddof=1) / math.sqrt(trials)),
        kurtosis_real=_excess_kurtosis(centered.real),
        kurtosis_imag=_excess_kurtosis(centered.imag),
        expected_variance=ris_type.amplitude(reflection_zone) ** 2,
        trials=trials,
    )
