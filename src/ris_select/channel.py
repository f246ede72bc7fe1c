"""Pathloss aggregation and random channel synthesis.

The cascaded base-station -> element -> user channel is modeled per element as
sqrt(pathloss) * fading * element_coefficient, then summed over the panel.
Because the panel is far from both ends, per-element distances and angles are
collapsed to their center values, so one averaged pathloss per zone multiplies
the whole aggregate.

Sampling is pure given (config, type, seed): seeds are ints or tuples of
ints keyed through SeedSequence, so per-trial substreams are cheap,
replayable and safe to farm out in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import (
    RisType,
    ScenarioConfig,
    incident_angle_factor,
    reflection_zone_mask,
)

_PATHLOSS_DENOM = 64.0 * math.pi ** 3
_STAT_CHUNK = 512  # fixed draw-block size; part of the deterministic stream layout


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

def gaussian_fading(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex normal, unit variance per sample."""
    z = rng.standard_normal(tuple(shape) + (2,))
    z *= math.sqrt(0.5)
    return z.view(np.complex128)[..., 0]


def uniform_phase_fading(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-modulus samples with uniform phase; mean 0, unit variance."""
    theta = (2.0 * np.pi) * rng.random(shape)
    out = np.empty(theta.shape, dtype=complex)
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def sign_fading(rng: np.random.Generator, shape) -> np.ndarray:
    """Random +/-1, a two-point law with mean 0 and unit variance."""
    return (rng.integers(0, 2, size=shape) * 2 - 1).astype(complex)


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
    unit-variance fading block drawn in one law call of shape (S, K_t, M*N);
    that layout is fixed, so a seed always gives a bit-identical matrix.
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
    shape = (cfg.users_total, cfg.bs_antennas, panel.element_count)

    def draw(seed) -> np.ndarray:
        g = law(rng_for_seed(seed), shape)
        return np.matmul(g, coeff)[:, :, 0] * amplitude

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


@dataclass(frozen=True)
class AggregatedGainReport:
    reflect: GainStatistics
    transmit: GainStatistics
    ris_type: RisType
    element_count: int
    fading: str


def _excess_kurtosis(x: np.ndarray) -> float:
    m2 = float(np.mean(x * x))
    if m2 == 0.0:
        return float("nan")
    m4 = float(np.mean(x ** 4))
    return m4 / (m2 * m2) - 3.0


def _zone_statistics(coeff, mn, trials, law, seed, expected) -> GainStatistics:
    samples = np.zeros(trials, dtype=complex)
    if np.any(coeff != 0.0):
        rng = rng_for_seed(seed)
        scale = 1.0 / math.sqrt(mn)
        done = 0
        while done < trials:
            n = min(_STAT_CHUNK, trials - done)
            g = law(rng, (n, mn))
            samples[done:done + n] = (g @ coeff) * scale
            done += n
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
    """Aggregated-gain moments for a single zone; see aggregated_gain_statistics."""
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


def aggregated_gain_statistics(cfg: ScenarioConfig, ris_type: RisType, trials: int,
                               fading="gaussian", seed=0) -> AggregatedGainReport:
    """Moments of (sum over elements of g * coefficient) / sqrt(M N) per zone.

    For a large panel the aggregate tends to a complex normal with mean 0 and
    variance equal to the squared response amplitude of the zone, whatever the
    unit-variance fading law; the kurtosis columns let tests check the
    normality claim for non-Gaussian laws. Requires trials >= 100.
    """
    return AggregatedGainReport(
        reflect=zone_gain_statistics(cfg, ris_type, True, trials, fading, seed),
        transmit=zone_gain_statistics(cfg, ris_type, False, trials, fading, seed),
        ris_type=ris_type,
        element_count=cfg.panel.element_count,
        fading=fading if isinstance(fading, str) else getattr(fading, "__name__", "custom"),
    )
