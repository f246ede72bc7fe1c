"""Sum-rate evaluation: power allocation, closed forms, bound, Monte Carlo.

All rates are in bits/s/Hz (base-2 logs). Power allocation is long-term: it
depends on pathloss and the user split only, never on a fading realization,
so the Monte Carlo estimator and the closed forms share the same allocation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, prepare_sampler, rng_for_seed
from .scenario import RisType, ScenarioConfig, reflection_zone_mask

LN2 = math.log(2.0)


def _log2_1p(x: float) -> float:
    return math.log1p(x) / LN2


# --- scalar rate curves (user counts may be fractional) -----------------------

def reflective_rate(n_reflect: float, radiation_reflect: float,
                    link_constant: float) -> float:
    """Sum rate serving only the reflection zone, power split equally."""
    if n_reflect <= 0.0:
        return 0.0
    return n_reflect * _log2_1p(radiation_reflect / (link_constant * n_reflect))


def transmissive_rate(n_transmit: float, radiation_transmit: float,
                      link_constant: float) -> float:
    """Sum rate serving only the transmission zone, power split equally."""
    if n_transmit <= 0.0:
        return 0.0
    return n_transmit * _log2_1p(radiation_transmit / (link_constant * n_transmit))


def hybrid_reflect_fraction(n_transmit: float, n_total: float,
                            radiation_reflect: float, radiation_transmit: float,
                            link_constant: float, simplified: bool = False) -> float:
    """Optimal per-user power share for reflection-zone users (hybrid mode).

    The unconstrained optimum is
        L * (2 n_T / n) * (1/eps_t - 1/eps_r) + 1/n,
    clamped to [0, 1/n_R] so the transmission-zone share stays feasible.
    `simplified=True` returns the unclamped value, which is the form the
    asymptotic diagnostics differentiate. When the reflection zone is empty
    the share is irrelevant; 0.0 is returned so the transmission zone gets
    the whole budget.
    """
    raw = link_constant * (2.0 * n_transmit / n_total) \
        * (1.0 / radiation_transmit - 1.0 / radiation_reflect) + 1.0 / n_total
    if simplified:
        return raw
    n_reflect = n_total - n_transmit
    if n_reflect <= 0.0:
        return 0.0
    return min(max(raw, 0.0), 1.0 / n_reflect)


def hybrid_rate(n_transmit: float, n_total: float, radiation_reflect: float,
                radiation_transmit: float, link_constant: float,
                reflect_fraction: float | None = None) -> float:
    """Sum rate of the hybrid mode; both zones served, energy split halved.

    Uses the clamped optimal reflect fraction unless one is supplied. Empty
    zones contribute zero (the n*log2(1 + c/n) terms extend continuously to
    zero at n = 0).
    """
    n_reflect = n_total - n_transmit
    lam = reflect_fraction
    if lam is None:
        lam = hybrid_reflect_fraction(n_transmit, n_total, radiation_reflect,
                                      radiation_transmit, link_constant)
    rate = 0.0
    if n_reflect > 0.0:
        rate += n_reflect * _log2_1p(radiation_reflect * lam / (2.0 * link_constant))
    if n_transmit > 0.0:
        share = (1.0 - n_reflect * lam) / n_transmit
        rate += n_transmit * _log2_1p(radiation_transmit * share / (2.0 * link_constant))
    return rate


# --- allocation ----------------------------------------------------------------

@dataclass(frozen=True)
class PowerAllocation:
    """Per-user fractions of the total transmit power (they sum to 1 when
    anyone is served, and to 0 otherwise)."""

    per_ue: np.ndarray
    reflect_fraction: float | None
    scheme: RisType

    def __post_init__(self):
        per_ue = np.asarray(self.per_ue, dtype=float)
        per_ue.flags.writeable = False
        object.__setattr__(self, "per_ue", per_ue)

    @property
    def n_served(self) -> int:
        return int(np.count_nonzero(self.per_ue))


def allocate_power(cfg: ScenarioConfig, ris_type: RisType,
                   budget: LinkBudget) -> PowerAllocation:
    """Long-term power split for one surface type.

    Reflective and transmissive modes put equal shares on their own zone and
    nothing on the other. The hybrid mode gives every reflection-zone user
    the clamped optimal fraction and spreads the remainder equally over the
    transmission zone. An empty served set yields the all-zero allocation and
    a warning.
    """
    s = cfg.users_total
    s_r = cfg.users_reflection
    s_t = cfg.users_transmission
    per_ue = np.zeros(s)
    lam = None

    if ris_type is RisType.REFLECTIVE:
        if s_r == 0:
            warnings.warn("no served UEs: reflective surface with an empty "
                          "reflection zone", stacklevel=2)
        else:
            per_ue[:s_r] = 1.0 / s_r
    elif ris_type is RisType.TRANSMISSIVE:
        if s_t == 0:
            warnings.warn("no served UEs: transmissive surface with an empty "
                          "transmission zone", stacklevel=2)
        else:
            per_ue[s_r:] = 1.0 / s_t
    else:
        panel = cfg.panel
        lam = hybrid_reflect_fraction(s_t, s, panel.radiation_reflect,
                                      panel.radiation_transmit, budget.link_constant)
        per_ue[:s_r] = lam
        if s_t > 0:
            per_ue[s_r:] = (1.0 - s_r * lam) / s_t
    return PowerAllocation(per_ue=per_ue, reflect_fraction=lam, scheme=ris_type)


# --- rate evaluation -------------------------------------------------------------

@dataclass(frozen=True)
class CapacityReport:
    """Per-type rates: canonical closed form, bound for the given allocation,
    and the Monte Carlo estimate with its standard error."""

    closed_form: float
    upper_bound: float
    monte_carlo_mean: float
    monte_carlo_stderr: float
    trials: int
    ris_type: RisType


def closed_form_rate(cfg: ScenarioConfig, ris_type: RisType,
                     budget: LinkBudget) -> float:
    """Canonical sum rate of one type under its own long-term allocation."""
    panel = cfg.panel
    eps_r, eps_t = panel.radiation_reflect, panel.radiation_transmit
    big_l = budget.link_constant
    if ris_type is RisType.REFLECTIVE:
        return reflective_rate(cfg.users_reflection, eps_r, big_l)
    if ris_type is RisType.TRANSMISSIVE:
        return transmissive_rate(cfg.users_transmission, eps_t, big_l)
    return hybrid_rate(cfg.users_transmission, cfg.users_total, eps_r, eps_t, big_l)


def average_snr(cfg: ScenarioConfig, ris_type: RisType, alloc: PowerAllocation,
                budget: LinkBudget) -> np.ndarray:
    """Per-user received SNR averaged over the fading.

    (P_T / sigma^2) * share * beta_zone * K_t * M N * amplitude_zone^2: the
    mean of the SNR that a channel draw gives the user, since the squared
    norm of the user's channel row averages beta_zone * K_t * M N *
    amplitude_zone^2 under any unit-variance fading law.
    """
    mask = reflection_zone_mask(cfg)
    beta = np.where(mask, budget.avg_pathloss_reflect, budget.avg_pathloss_transmit)
    gamma_sq = np.where(mask, ris_type.amplitude_reflect ** 2,
                        ris_type.amplitude_transmit ** 2)
    return (cfg.transmit_power / cfg.noise_variance) * alloc.per_ue * beta \
        * cfg.bs_antennas * cfg.panel.element_count * gamma_sq


def upper_bound(cfg: ScenarioConfig, ris_type: RisType, alloc: PowerAllocation,
                budget: LinkBudget) -> float:
    """Averaged-channel bound on the ergodic sum rate for a given allocation.

    Per user: log2(1 + average_snr). By Jensen's inequality this bounds the
    per-user ergodic rate E[log2(1 + average_snr * X / K_t)], where X / K_t
    is the unit-mean normalized row power. With the type's own allocation it
    equals the closed form exactly.
    """
    return float(np.sum(np.log1p(average_snr(cfg, ris_type, alloc, budget))) / LN2)


def ergodic_rate_exact(cfg: ScenarioConfig, ris_type: RisType,
                       alloc: PowerAllocation, budget: LinkBudget,
                       points: int = 256) -> float:
    """Ergodic sum rate under i.i.d. complex Gaussian fading, without sampling.

    Each user's element sum is exactly complex normal for any phase grid, so
    the row power over K_t antennas is a scaled Gamma(K_t, 1) variate X and
    the rate is sum over users of E[log2(1 + average_snr * X / K_t)] (the
    Gamma-SNR ergodic capacity integral of Alouini and Goldsmith, IEEE TVT
    1999). The expectation is taken over u = ln X with the trapezoid rule on
    `points` evenly spaced nodes. Both factors of the integrand are analytic
    in a strip around the real u axis whose width does not depend on the SNR,
    so the error falls exponentially in `points` for every SNR and K_t; at
    the default it is at the level of float rounding for K_t up to 1024.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    k = cfg.bs_antennas
    # The density of ln X decays like exp(K_t u) to the left of the mode and
    # like exp(-e^u) to the right; beyond these limits it is below e^-40.
    lo = math.log(k) - 40.0 / math.sqrt(k)
    hi = math.log(k + 12.0 * math.sqrt(k) + 40.0)
    u, step = np.linspace(lo, hi, points, retstep=True)
    x = np.exp(u)
    weights = np.exp(k * u - x - math.lgamma(k)) * step
    scale = average_snr(cfg, ris_type, alloc, budget) / k
    return float(np.sum(np.log1p(np.outer(scale, x)) @ weights) / LN2)


SAMPLERS = ("element", "aggregate")


def monte_carlo_capacity(cfg: ScenarioConfig, ris_type: RisType,
                         alloc: PowerAllocation, budget: LinkBudget, trials: int,
                         base_seed, fading="gaussian", sampler="element") -> CapacityReport:
    """Estimate the ergodic sum rate by averaging over channel draws.

    Each trial draws an independent channel and computes the sum over users
    of log2(1 + (P_T / sigma^2) * share_s * row_power_s), with row_power_s
    the squared norm of the user's channel row; the report carries the
    sample mean and standard error. Trial t uses the generator seeded by
    base_seed + (t,) (an int base_seed counts as a 1-tuple), so runs are
    reproducible and trials could be farmed out in parallel without changing
    the result; the final reduction is a fixed-order sum over the per-trial
    array.

    `sampler` selects what a trial draws:

    * "element" (any fading law) draws the full (S, K_t, M N) fading block
      and sums it over the panel, as prepare_sampler's draw does.
    * "aggregate" (Gaussian fading only) uses that, under i.i.d. complex
      Gaussian fading, each panel sum is exactly complex normal for any
      phase grid, so row_power_s is beta_zone * amplitude_zone^2 * M N * X_s
      with X_s ~ Gamma(K_t, 1), independent over users. A trial draws one
      standard_gamma(K_t, size=S) vector, and its rate is the sum over
      users of log2(1 + average_snr_s * X_s / K_t). The law is that of
      "element" and the cost does not grow with the panel, but the stream
      differs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; known samplers: "
                         f"{', '.join(SAMPLERS)}")
    if sampler == "aggregate" and fading != "gaussian":
        raise ValueError("the aggregate sampler requires gaussian fading; "
                         f"got {fading!r}")
    base = base_seed if isinstance(base_seed, tuple) else (base_seed,)
    if sampler == "aggregate":
        k, users = cfg.bs_antennas, cfg.users_total
        scale = average_snr(cfg, ris_type, alloc, budget) / k
        row_gamma = np.empty((trials, users))
        for t in range(trials):
            row_gamma[t] = rng_for_seed(base + (t,)).standard_gamma(k, size=users)
        rates = np.sum(np.log1p(scale * row_gamma), axis=1) / LN2
    else:
        gain = (cfg.transmit_power / cfg.noise_variance) * alloc.per_ue
        draw = prepare_sampler(cfg, ris_type, fading)
        rates = np.empty(trials)
        for t in range(trials):
            entries = draw(base + (t,))
            row_power = np.sum(entries.real ** 2 + entries.imag ** 2, axis=1)
            rates[t] = float(np.sum(np.log1p(gain * row_power)) / LN2)
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return CapacityReport(
        closed_form=closed_form_rate(cfg, ris_type, budget),
        upper_bound=upper_bound(cfg, ris_type, alloc, budget),
        monte_carlo_mean=mean,
        monte_carlo_stderr=stderr,
        trials=trials,
        ris_type=ris_type,
    )
