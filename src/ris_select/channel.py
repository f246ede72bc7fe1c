"""Pathloss aggregation and random channel synthesis.

The cascaded base-station -> element -> user channel is modeled per element as
sqrt(pathloss) * fading * element_coefficient, then summed over the panel.
Because the panel is far from both ends, per-element distances and angles are
collapsed to their center values, so one averaged pathloss per zone multiplies
the whole aggregate.

Sampling is pure given (config, type, seed): seeds are ints or tuples of
ints keyed through SeedSequence, so per-trial substreams are cheap,
replayable and safe to farm out in parallel.

Each named fading law is a FadingLaw: an in-order `draw` that only calls
the generator and a pure, row-wise `finish`. The per-element paths
(prepare_sampler and zone_gain_statistics) draw blocks of rows in stream
order on the calling thread. When a block's finish costs more than its
draw, a worker thread finishes and reduces blocks while the calling thread
draws the next one (and finishes that one too if the worker is still busy).
A sample's bits depend only on the seed, never on the block size, the
thread count or the timing.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .scenario import (
    RisType,
    ScenarioConfig,
    incident_angle_factor,
    reflection_zone_mask,
)

_PATHLOSS_DENOM = 64.0 * math.pi ** 3
# Rows per zone_gain_statistics draw block. The draw stays in stream order
# whatever the block size, so this sets memory and handoff granularity only.
_STAT_CHUNK = 128
# prepare_sampler groups whole user rows into blocks of about this many
# values. Blocks smaller than this are finished on the calling thread, where
# a thread handoff (about 0.1 ms) would cost more than it saves.
_BLOCK_VALUES = 1 << 16
# The worker takes over only when finishing a block costs at least this
# share of drawing it (uniform_phase: ~13; sign: ~0.7; gaussian: ~0.08).
# Below that, overlapping the finish with the next draw saves less than the
# handoff and the cross-core cache traffic cost, measured on 2 cores.
_HANDOFF_RATIO = 1.0


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
    """
    cos_sq = incident_angle_factor(cfg)
    if cos_sq <= 0.0:
        raise DegenerateGeometryError(
            "grazing incidence: bs_ris_distance equals the BS/RIS height offset"
        )
    panel = cfg.panel
    base = (cfg.wavelength ** 2 * cfg.antenna_gain * panel.element_width
            * panel.element_height) / _PATHLOSS_DENOM
    spread = (cfg.bs_ris_distance * cfg.ris_ue_distance) ** cfg.pathloss_exponent
    beta_common = base * panel.element_gain * cos_sq / spread
    link_constant = cfg.noise_variance / (
        cfg.transmit_power * cfg.bs_antennas * panel.element_count * beta_common
    )
    return LinkBudget(
        avg_pathloss_reflect=beta_common * panel.radiation_reflect,
        avg_pathloss_transmit=beta_common * panel.radiation_transmit,
        link_constant=link_constant,
        cos_sq_incidence=cos_sq,
    )


# --- small-scale fading laws -------------------------------------------------

@dataclass(frozen=True)
class FadingLaw:
    """A unit-variance fading law split where the generator is done.

    `draw(rng, shape)` makes only generator calls, so draws must run in
    stream order; `finish(raw)` is pure and row-wise (it may overwrite
    `raw`) and turns the draw into complex samples of the given shape.
    Calling the law runs both. Any other callable law(rng, shape) counts as
    all draw: it runs whole on the calling thread.
    """

    draw: Callable
    finish: Callable

    def __call__(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.finish(self.draw(rng, shape))


def _normal_pairs(rng, shape):
    return rng.standard_normal(tuple(shape) + (2,))


def _circular_normal(pairs):
    """Circularly symmetric complex normal, unit variance per sample."""
    pairs *= math.sqrt(0.5)
    return pairs.view(np.complex128)[..., 0]


def _uniforms(rng, shape):
    return rng.random(shape)


def _unit_phasors(u):
    """Unit-modulus samples with uniform phase; mean 0, unit variance."""
    u *= 2.0 * np.pi
    out = np.empty(u.shape, dtype=complex)
    np.cos(u, out=out.real)
    np.sin(u, out=out.imag)
    return out


def _bits(rng, shape):
    return rng.integers(0, 2, size=shape)


def _signs(bits):
    """Random +/-1, a two-point law with mean 0 and unit variance."""
    bits *= 2
    bits -= 1
    return bits.astype(complex)


gaussian_fading = FadingLaw(_normal_pairs, _circular_normal)
uniform_phase_fading = FadingLaw(_uniforms, _unit_phasors)
sign_fading = FadingLaw(_bits, _signs)

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
    are cheap to create and replayable, so per-trial streams can be farmed
    out in parallel without coordination. Distinct keys give independent
    streams only when they have the same length and every word lies in
    [0, 2**32): SeedSequence pads its entropy with zeros and splits larger
    ints into 32-bit words, so (9, 0, 3) and (9, 0, 3, 0) are one stream,
    as are 9 and (9, 0), and 2**32 and (0, 1). The CLI keeps to that rule
    (four-word trial keys, seeds below 2**32). SFC64 is the fastest
    generator shipped with numpy, which keeps large Monte Carlo sweeps
    inside their wall-clock budgets.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


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
    workers after every call.
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


def _reduce_blocks(law, rng: np.random.Generator, blocks, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the panel sums of blocks drawn in stream order.

    Block (shape, coeff, scale, index) draws g = law(rng, shape), in list
    order on the calling thread, and sets out[index] = (g @ coeff) * scale.
    When there is more than one block and blocks hold at least _BLOCK_VALUES
    values, the first block is timed on the calling thread, and the rest go
    through _pipeline if finishing it took at least _HANDOFF_RATIO times as
    long as drawing it. Otherwise the calling thread does it all.
    """
    draw, finish = (law.draw, law.finish) if isinstance(law, FadingLaw) \
        else (law, np.asarray)
    rest = iter(blocks)
    if len(blocks) > 1 and math.prod(blocks[0][0]) >= _BLOCK_VALUES:
        shape, coeff, scale, index = next(rest)
        started = time.perf_counter()
        raw = draw(rng, shape)
        drawn = time.perf_counter()
        _panel_sum(finish(raw), coeff, scale, out[index])
        if time.perf_counter() - drawn >= _HANDOFF_RATIO * (drawn - started):
            _pipeline(draw, finish, rng, rest, out)
            return out
    for shape, coeff, scale, index in rest:
        _panel_sum(finish(draw(rng, shape)), coeff, scale, out[index])
    return out


def _pipeline(draw, finish, rng, blocks, out) -> None:
    """Draw each block here and hand it to a new worker thread that finishes
    and reduces it while the next one is drawn, with at most one worker at a
    time: with this thread it keeps both cores of a 2-core host busy, and a
    second worker only adds cache traffic. When the worker is still busy,
    this thread finishes the block itself rather than wait. A worker's
    exception is re-raised here once the worker has stopped.
    """
    errors = []

    def work(raw, coeff, scale, index):
        try:
            _panel_sum(finish(raw), coeff, scale, out[index])
        except Exception as exc:
            errors.append(exc)

    worker = None
    try:
        for shape, coeff, scale, index in blocks:
            raw = draw(rng, shape)
            if errors:
                break
            if worker is None or not worker.is_alive():
                worker = threading.Thread(target=work, args=(raw, coeff, scale, index))
                worker.start()
            else:
                work(raw, coeff, scale, index)
    finally:
        if worker is not None:
            worker.join()
    if errors:
        raise errors[0]


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
    blocks, not the whole (S, K_t, M*N) array.
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
        out = np.empty((users, antennas, 1), dtype=complex)
        return _reduce_blocks(law, rng_for_seed(seed), blocks, out)[:, :, 0]

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


def _zone_statistics(coeff, mn, trials, law, seed, expected) -> GainStatistics:
    samples = np.zeros((trials, 1), dtype=complex)
    if np.any(coeff != 0.0):
        scale = 1.0 / math.sqrt(mn)
        bounds = _row_bounds(trials, _STAT_CHUNK)
        blocks = [((stop - start, mn), coeff[:, None], scale, slice(start, stop))
                  for start, stop in zip(bounds, bounds[1:])]
        _reduce_blocks(law, rng_for_seed(seed), blocks, samples)
    samples = samples[:, 0]
    mean = complex(samples.mean())
    centered = samples - mean
    sq = np.abs(centered) ** 2
    variance = float(sq.mean())
    stderr = float(sq.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return GainStatistics(
        mean=mean,
        variance=variance,
        variance_stderr=stderr,
        kurtosis_real=_excess_kurtosis(centered.real),
        kurtosis_imag=_excess_kurtosis(centered.imag),
        expected_variance=expected,
        trials=trials,
    )


def zone_gain_statistics(cfg: ScenarioConfig, ris_type: RisType,
                         reflection_zone: bool, trials: int,
                         fading="gaussian", seed=0) -> GainStatistics:
    """Moments of (sum over elements of g * coefficient) / sqrt(M N) toward
    one zone, from the stream seeded by seed + (0,) for the reflection zone
    and seed + (1,) for the transmission zone (an int seed counts as a
    1-tuple).

    For a large panel the aggregate tends to a complex normal with mean 0 and
    variance equal to the squared response amplitude of the zone, whatever the
    unit-variance fading law; the kurtosis columns let tests check the
    normality claim for non-Gaussian laws. Requires trials >= 100.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100 for stable statistics")
    law = resolve_fading(fading)
    panel = cfg.panel
    coeff = element_coefficients(panel, ris_type, reflection_zone)
    expected = ris_type.amplitude(reflection_zone) ** 2
    base = seed if isinstance(seed, tuple) else (seed,)
    zone_seed = base + (0 if reflection_zone else 1,)
    return _zone_statistics(coeff, panel.element_count, trials, law,
                            zone_seed, expected)
