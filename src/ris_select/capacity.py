"""Sum-rate evaluation: power allocation, closed forms, bound, Monte Carlo.

All rates are in bits/s/Hz (base-2 logs). Power allocation is long-term: it
depends on pathloss and the user split only, never on a fading realization,
so the Monte Carlo estimator and the closed forms share the same allocation.
Downstream of it, the bound, the exact rate and the Gamma Monte Carlo take
one input: the per-user averaged-SNR vector that average_snr gives.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .channel import LinkBudget, _on_two_threads, prepare_sampler, rng_for_seeds
from .scenario import ConfigValidationError, RisType, ScenarioConfig, reflection_zone_mask

LN2 = math.log(2.0)
# The most rate terms one monte_carlo_capacity block may hold: 1 GiB of
# float64 (the draw they scale adds 1/types of that), whatever the host
# could allocate (fig2a at 10000 trials: 4.8e6).
MONTE_CARLO_BLOCK_VALUES = 2 ** 27


# --- the surface types: one rule each ------------------------------------------

def hybrid_share(n_other, n_total, radiation_own, radiation_other,
                 link_constant):
    """Unclamped optimal per-user power share of a hybrid user in one zone,
    with n_other of the n_total users in the other zone:
    L (2 n_other / n) (1/eps_other - 1/eps_own) + 1/n. The shares of the
    two zones satisfy n_R share_R + n_T share_T = 1 and equalize
    2 L / eps + share, the water-filling optimum of the hybrid rate."""
    return link_constant * (2.0 * n_other / n_total) \
        * (1.0 / radiation_other - 1.0 / radiation_own) + 1.0 / n_total


def type_curves(cfg: ScenarioConfig, budget: LinkBudget):
    """Each surface type's rate curve and per-zone power shares.

    Returns a read-only mapping RisType -> (rate, shares), in RisType order,
    of functions of the number x of transmission-zone users out of
    cfg.users_total, continuous on [0, S]: rate(x) is the closed-form sum
    rate in bits/s/Hz and shares(x) the per-user fractions of the transmit
    power (reflection zone, transmission zone). This is the one place each
    type's rule is written:

    * reflective and transmissive: all energy goes to one side, whose users
      split the power equally; the other zone gets nothing.
    * hybrid: each element sends half its energy to either side. A
      reflection-zone user gets hybrid_share clamped to [0, 1/n_R] (0 when
      the zone is empty), and the transmission zone splits the rest.

    A user's averaged SNR is eps_zone * amplitude_zone^2 * share / L, with
    L = budget.link_constant, and a zone without users adds nothing to the
    rate (n log2(1 + c/n) extends continuously to 0 at n = 0).

    The curves depend on (S, eps_r, eps_t, L) alone, none of which moves
    along a user-split sweep, so they are built once per distinct tuple (a
    bounded LRU cache) rather than on every allocation or closed form.
    """
    panel = cfg.panel
    return _type_curves(cfg.users_total, panel.radiation_reflect,
                        panel.radiation_transmit, budget.link_constant)


@functools.lru_cache(maxsize=32)
def _type_curves(s, eps_r, eps_t, big_l):
    # Each rate is one straight-line closure. hybrid_rate writes
    # hybrid_shares out (hybrid_share's formula and the clamp) with the same
    # operations in the same order, so it equals the rate at hybrid_shares(x)
    # bit for bit in half the time of a call through hybrid_shares (0.53
    # against 1.10 us); the closed forms and the root searches call it often.
    def reflect_rate(x):
        n = s - x
        return n * (math.log1p(eps_r / (big_l * n)) / LN2) if n > 0.0 else 0.0

    def reflect_shares(x):
        n = s - x
        return (1.0 / n if n > 0.0 else 0.0), 0.0

    def transmit_rate(x):
        return x * (math.log1p(eps_t / (big_l * x)) / LN2) if x > 0.0 else 0.0

    def transmit_shares(x):
        return 0.0, (1.0 / x if x > 0.0 else 0.0)

    def hybrid_shares(x):
        n_r = s - x
        lam = 0.0
        if n_r > 0.0:
            lam = min(max(hybrid_share(x, s, eps_r, eps_t, big_l), 0.0), 1.0 / n_r)
        return lam, ((1.0 - n_r * lam) / x if x > 0.0 else 0.0)

    gap, inv_s, two_l = 1.0 / eps_t - 1.0 / eps_r, 1.0 / s, 2.0 * big_l

    def hybrid_rate(x):
        n_r = s - x
        lam = total = 0.0
        if n_r > 0.0:
            lam = big_l * (2.0 * x / s) * gap + inv_s
            if lam < 0.0:
                lam = 0.0
            elif lam > 1.0 / n_r:
                lam = 1.0 / n_r
            total += n_r * (math.log1p(eps_r * lam / two_l) / LN2)
        if x > 0.0:
            total += x * (math.log1p(eps_t * ((1.0 - n_r * lam) / x) / two_l) / LN2)
        return total

    return MappingProxyType({
        RisType.REFLECTIVE: (reflect_rate, reflect_shares),
        RisType.TRANSMISSIVE: (transmit_rate, transmit_shares),
        RisType.HYBRID: (hybrid_rate, hybrid_shares),
    })


# --- allocation ----------------------------------------------------------------

def _served_shares(cfg: ScenarioConfig, ris_type: RisType, shares) -> tuple:
    """A type's (reflection, transmission) per-user shares at the configured
    split; warns, on behalf of the caller's caller, when nobody is served."""
    share_r, share_t = shares(cfg.users_transmission)
    if share_r == share_t == 0.0:
        zone = "reflection" if ris_type is RisType.REFLECTIVE else "transmission"
        warnings.warn(f"no served UEs: {ris_type.value} surface with an empty "
                      f"{zone} zone", stacklevel=3)
    return share_r, share_t


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user fractions of the total transmit power (they sum to 1 when
    anyone is served, and to 0 otherwise)."""

    per_ue: np.ndarray

    def __post_init__(self):
        per_ue = np.asarray(self.per_ue, dtype=float)
        per_ue.flags.writeable = False
        object.__setattr__(self, "per_ue", per_ue)


def allocate_power(cfg: ScenarioConfig, ris_type: RisType,
                   budget: LinkBudget) -> PowerAllocation:
    """Long-term power split for one surface type: the shares of
    type_curves at the configured split. An empty served set yields the
    all-zero allocation and a warning.
    """
    _, shares = type_curves(cfg, budget)[ris_type]
    share_r, share_t = _served_shares(cfg, ris_type, shares)
    return PowerAllocation(
        [share_r] * cfg.users_reflection + [share_t] * cfg.users_transmission)


# --- rate evaluation -------------------------------------------------------------

# Trapezoid nodes of ergodic_rate_exact.
EXACT_POINTS = 256


@dataclass(frozen=True)
class CapacityReport:
    """Per-type rates: canonical closed form, bound for the given allocation,
    the Monte Carlo estimate with its standard error (None when not
    computed) and the exact ergodic rate (None when not computed)."""

    closed_form: float
    upper_bound: float
    monte_carlo_mean: float | None
    monte_carlo_stderr: float | None
    trials: int
    ris_type: RisType
    ergodic_exact: float | None = None


def closed_form_rate(cfg: ScenarioConfig, ris_type: RisType,
                     budget: LinkBudget) -> float:
    """Canonical sum rate of one type under its own long-term allocation."""
    rate, _ = type_curves(cfg, budget)[ris_type]
    return rate(cfg.users_transmission)


def _snr_product(power_ratio, shares, pathloss, antennas, elements, gamma_sq):
    """The averaged-SNR product, written once for a vector and for a block:
    every factor is an array broadcast to the output's shape, or a scalar,
    and numpy rounds each elementwise product the same way in either case."""
    return power_ratio * shares * pathloss * antennas * elements * gamma_sq


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
    gamma_sq = np.where(mask, ris_type.amplitude(True) ** 2,
                        ris_type.amplitude(False) ** 2)
    return _snr_product(cfg.transmit_power / cfg.noise_variance, alloc.per_ue, beta,
                        cfg.bs_antennas, cfg.panel.element_count, gamma_sq)


# Squared amplitudes toward each zone, one row per type in RisType order.
_GAIN_SQ_REFLECT = np.array([[t.amplitude(True) ** 2] for t in RisType])
_GAIN_SQ_TRANSMIT = np.array([[t.amplitude(False) ** 2] for t in RisType])


def average_snr_block(cfgs, budgets) -> np.ndarray:
    """Averaged SNR of every cell, type and user in one array pass.

    `cfgs` share users_total S and `budgets[a]` is link_budget(cfgs[a]).
    Returns a (cells, 3, S) array whose [a, i] row is, bit for bit,
    average_snr(cfgs[a], t, allocate_power(cfgs[a], t, budgets[a]),
    budgets[a]) for the i-th type t in RisType order: the shares come from
    type_curves per cell and the product is _snr_product's. Warns once per
    cell and type with an empty served set, as allocate_power does. A user
    count too large to allocate is a ConfigValidationError.
    """
    s = cfgs[0].users_total
    if any(cfg.users_total != s for cfg in cfgs):
        raise ValueError("the cells of a block must share users_total")
    shares = []
    for cfg, budget in zip(cfgs, budgets):
        for ris_type, (_, type_shares) in type_curves(cfg, budget).items():
            shares.append(_served_shares(cfg, ris_type, type_shares))
    shares = np.array(shares).reshape(len(cfgs), len(RisType), 2)
    try:
        users = np.arange(s)
    except (MemoryError, ValueError):  # numpy: cannot allocate, or "too big"
        raise ConfigValidationError(f"{s} users are too many to allocate") from None
    mask = users < np.array([cfg.users_reflection for cfg in cfgs])[:, None]
    zone = mask[:, None, :]
    per_ue = np.where(zone, shares[:, :, :1], shares[:, :, 1:])
    beta = np.where(mask, np.array([b.avg_pathloss_reflect for b in budgets])[:, None],
                    np.array([b.avg_pathloss_transmit for b in budgets])[:, None])
    gamma_sq = np.where(zone, _GAIN_SQ_REFLECT, _GAIN_SQ_TRANSMIT)

    def column(values):
        return np.array(values, dtype=float)[:, None, None]

    return _snr_product(
        column([cfg.transmit_power / cfg.noise_variance for cfg in cfgs]), per_ue,
        beta[:, None, :], column([cfg.bs_antennas for cfg in cfgs]),
        column([cfg.panel.element_count for cfg in cfgs]), gamma_sq)


def upper_bound(snr):
    """Averaged-channel bound on the ergodic sum rate: the sum over users of
    log2(1 + snr). By Jensen's inequality this bounds each user's ergodic
    rate E[log2(1 + snr * X / K_t)], where X / K_t is the unit-mean
    normalized row power. With the type's own allocation it equals the
    closed form up to rounding, within about 1e-15 relative.

    Users run along the last axis: a vector gives a float, and a block an
    array of the same sums bit for bit (one pairwise sum per row).
    """
    bound = np.sum(np.log1p(snr), axis=-1) / LN2
    return float(bound) if np.ndim(bound) == 0 else bound


@functools.lru_cache(maxsize=32)
def _exact_nodes(k: int) -> tuple:
    """ergodic_rate_exact's trapezoid nodes x = e^u and weights for K_t = k."""
    # The density of ln X decays like exp(K_t u) to the left of the mode and
    # like exp(-e^u) to the right; beyond these limits it is below e^-40.
    lo = math.log(k) - 40.0 / math.sqrt(k)
    hi = math.log(k + 12.0 * math.sqrt(k) + 40.0)
    u, step = np.linspace(lo, hi, EXACT_POINTS, retstep=True)
    x = np.exp(u)
    weights = np.exp(k * u - x - math.lgamma(k)) * step
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def ergodic_rate_exact(snr, bs_antennas: int):
    """Ergodic sum rate under i.i.d. complex Gaussian fading, without sampling.

    Each user's element sum is exactly complex normal for any phase grid, so
    the row power over K_t = bs_antennas antennas is a scaled Gamma(K_t, 1)
    variate X and the rate is the sum over users of
    E[log2(1 + snr * X / K_t)] (the Gamma-SNR ergodic capacity integral of
    Alouini and Goldsmith, IEEE TVT 1999). The expectation is taken over
    u = ln X with the trapezoid rule on EXACT_POINTS evenly spaced nodes.
    Both factors of the integrand are analytic in a strip around the real u
    axis whose width does not depend on the SNR, so the error falls
    exponentially in the node count for every SNR and K_t; at 256 nodes it
    is at the level of float rounding for K_t up to 1024.

    Users run along the last axis: a vector gives a float, and a block an
    array of the same rates bit for bit, from one pass over all its rows.
    """
    k = bs_antennas
    x, weights = _exact_nodes(k)
    terms = (np.asarray(snr, dtype=float) / k)[..., None] * x
    rate = np.sum(np.log1p(terms, out=terms) @ weights, axis=-1) / LN2
    return float(rate) if np.ndim(rate) == 0 else rate


def _base_key(trials: int, base_seed) -> tuple:
    """base_seed as a tuple key (an int is a 1-tuple), once trials >= 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return base_seed if isinstance(base_seed, tuple) else (base_seed,)


def _mean_and_stderr(rates: np.ndarray) -> tuple:
    """Mean and standard error (0 for one trial) of the per-trial rates,
    which run along the last axis: rates.mean(-1) and rates.std(-1, ddof=1)
    / sqrt(trials) bit for bit, from the ufuncs numpy's std calls in the
    same order, with the mean taken from its first sum."""
    trials = rates.shape[-1]
    mean = np.sum(rates, axis=-1, keepdims=True) / trials
    if trials < 2:
        return mean[..., 0], np.zeros(mean.shape[:-1])
    deviation = rates - mean
    np.square(deviation, out=deviation)
    var = np.sum(deviation, axis=-1) / (trials - 1)
    return mean[..., 0], np.sqrt(var) / math.sqrt(trials)


def monte_carlo_capacity(snr, bs_antennas, trials: int, base_seed):
    """Monte Carlo ergodic sum rate under i.i.d. complex Gaussian fading:
    (mean, standard error) over `trials` draws.

    Each panel sum is exactly complex normal for any phase grid, so user s's
    row power is its averaged power times X_s / K_t with X_s ~ Gamma(K_t, 1),
    independent over users. Trial t is row t of one
    standard_gamma(K_t, size=(trials, S)) draw from the generator seeded by
    base_seed (so a longer run extends a shorter one), and its rate is the
    sum over users of log2(1 + snr_s * X_s / K_t). The law is that of
    element_monte_carlo with Gaussian fading and the cost does not grow with
    the panel, but the stream differs. ergodic_rate_exact is its oracle.

    Users run along the last axis. A vector is one cell of one type and
    gives two floats. In a block, the axis before the users holds one
    cell's types, which share every trial's draw (a type only scales each
    user's averaged SNR), and each index idx of the axes before it is a cell
    that draws from base_seed + idx with K_t = bs_antennas broadcast to
    those axes. The block gives two arrays over its leading axes in one
    pass; entry [idx, i] equals the vector call on snr[idx, i] with key
    base_seed + idx bit for bit. The cells' generators are seeded in one
    channel.rng_for_seeds call. A block whose rate terms (cells x types x
    trials x users) outnumber MONTE_CARLO_BLOCK_VALUES, or one the host
    cannot allocate, is a ConfigValidationError raised before anything is
    drawn.
    """
    base = _base_key(trials, base_seed)
    snr = np.asarray(snr, dtype=float)
    lead, users = snr.shape[:-1], snr.shape[-1]
    cell_axes = lead[:-1]
    antennas = np.broadcast_to(bs_antennas, cell_axes).ravel().tolist()
    types = lead[-1] if lead else 1
    scale = snr.reshape(len(antennas), types, users) / np.array(
        antennas, dtype=float)[:, None, None]
    too_large = ConfigValidationError(
        f"{trials} Monte Carlo trials per cell are too large to allocate "
        f"(a block holds at most 2**27 rate terms)")
    if scale.size * trials > MONTE_CARLO_BLOCK_VALUES:
        raise too_large
    try:
        gamma = np.empty((len(antennas), trials, users))
        terms = np.empty((*scale.shape[:2], trials, users))
    except MemoryError:
        raise too_large from None
    rngs = rng_for_seeds([base + index for index in np.ndindex(cell_axes)])
    for rng, k, cell_gamma in zip(rngs, antennas, gamma):
        rng.standard_gamma(k, out=cell_gamma)
    np.multiply(gamma[:, None], scale[:, :, None], out=terms)
    mean, stderr = _mean_and_stderr(
        np.sum(np.log1p(terms, out=terms), axis=-1) / LN2)
    if not lead:
        return float(mean[0, 0]), float(stderr[0, 0])
    return mean.reshape(lead), stderr.reshape(lead)


def element_monte_carlo(cfg: ScenarioConfig, ris_type: RisType,
                        alloc: PowerAllocation, budget: LinkBudget, trials: int,
                        base_seed, fading="gaussian") -> tuple:
    """Per-element Monte Carlo ergodic sum rate under any fading law:
    (mean, standard error) over `trials` draws.

    Trial t draws the full (S, K_t, M N) fading block from the generator
    seeded by base_seed + (t,) and sums it over the panel, as
    prepare_sampler's draw does; its rate is the sum over users of
    log2(1 + (P_T / sigma^2) * share_s * row_power_s), with row_power_s the
    squared norm of the user's channel row. The trials run on the calling
    thread and one worker (channel._on_two_threads); trial t writes only
    its own rate, so the result does not depend on the threads.
    """
    base = _base_key(trials, base_seed)
    gain = (cfg.transmit_power / cfg.noise_variance) * alloc.per_ue
    draw = prepare_sampler(cfg, ris_type, budget, fading)
    rates = np.empty(trials)

    def trial(t):
        entries = draw(base + (t,))
        row_power = np.sum(entries.real ** 2 + entries.imag ** 2, axis=1)
        rates[t] = float(np.sum(np.log1p(gain * row_power)) / LN2)

    _on_two_threads(trial, trials)
    mean, stderr = _mean_and_stderr(rates)
    return float(mean), float(stderr)
