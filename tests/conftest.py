"""Shared helpers: reference scenario path, a config factory, scenario text,
the regime report, the Monte Carlo tolerance."""

import math
from dataclasses import replace
from pathlib import Path

from ris_select import (
    RisPanel,
    RisType,
    ScenarioConfig,
    allocate_power,
    average_snr,
    dbm_to_watts,
    link_budget,
    validate_approximation_regime,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SCENARIO = REPO_ROOT / "scenarios" / "reference.cfg"

_PANEL_DEFAULTS = dict(
    rows=50,
    cols=50,
    element_width=0.02,
    element_height=0.02,
    element_gain=1.0,
    radiation_reflect=1.0,
    radiation_transmit=0.95,
    phase_reflect=None,
    phase_transmit=None,
)

_CONFIG_DEFAULTS = dict(
    bs_antennas=12,
    bs_ris_distance=50.0,
    ris_ue_distance=50.0,
    bs_height=30.0,
    ris_height=15.0,
    users_total=10,
    users_transmission=7,
    transmit_power=dbm_to_watts(43.0),
    noise_variance=dbm_to_watts(-96.0),
    wavelength=0.1,
    antenna_gain=1.0,
    pathloss_exponent=2.0,
)


def make_config(**overrides) -> ScenarioConfig:
    """Reference deployment with keyword overrides (panel keys accepted too)."""
    panel_kwargs = dict(_PANEL_DEFAULTS)
    config_kwargs = dict(_CONFIG_DEFAULTS)
    for key, value in overrides.items():
        if key in panel_kwargs:
            panel_kwargs[key] = value
        elif key in config_kwargs:
            config_kwargs[key] = value
        else:
            raise TypeError(f"unknown override {key!r}")
    return ScenarioConfig(panel=RisPanel(**panel_kwargs), **config_kwargs)


def scenario_text(cfg: ScenarioConfig) -> str:
    """Scenario-file text that loads back to `cfg` exactly (powers in watts,
    floats as repr); phase grids are left at their all-zero default."""
    panel = cfg.panel
    values = {
        "bs_antennas": cfg.bs_antennas,
        "bs_ris_distance_m": cfg.bs_ris_distance,
        "ris_ue_distance_m": cfg.ris_ue_distance,
        "bs_height_m": cfg.bs_height,
        "ris_height_m": cfg.ris_height,
        "users_total": cfg.users_total,
        "users_transmission": cfg.users_transmission,
        "transmit_power_w": cfg.transmit_power,
        "noise_w": cfg.noise_variance,
        "wavelength_m": cfg.wavelength,
        "antenna_gain": cfg.antenna_gain,
        "pathloss_exponent": cfg.pathloss_exponent,
        "ris_rows": panel.rows,
        "ris_cols": panel.cols,
        "element_width_m": panel.element_width,
        "element_height_m": panel.element_height,
        "element_gain": panel.element_gain,
        "radiation_reflect": panel.radiation_reflect,
        "radiation_transmit": panel.radiation_transmit,
        "iso_tol": cfg.iso_tol,
        "snr_floor": cfg.snr_floor,
    }
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def regime_report(cfg: ScenarioConfig):
    """The regime report under the hybrid power split, as decide_type builds it."""
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    return validate_approximation_regime(
        cfg, average_snr(cfg, RisType.HYBRID, alloc, budget))


def wiggle_hybrid_curve(monkeypatch):
    """Add 40 sin(3 pi x) to the hybrid rate that the threshold search
    reads, in both the closures and the array form, so that its sampled
    sign patterns break and it raises RegimeViolationError."""
    import numpy as np

    import ris_select.selection as selection

    closures, arrays = selection.type_curves, selection.type_rate_arrays

    def wiggly(cfg, budget):
        curves = dict(closures(cfg, budget))
        rate, shares = curves[RisType.HYBRID]
        curves[RisType.HYBRID] = (
            lambda x: rate(x) + 40.0 * math.sin(3.0 * math.pi * x), shares)
        return curves

    def wiggly_arrays(s, eps_r, eps_t, big_l, x):
        reflect, transmit, hybrid = arrays(s, eps_r, eps_t, big_l, x)
        return reflect, transmit, hybrid + 40.0 * np.sin(3.0 * np.pi * x)

    monkeypatch.setattr(selection, "type_curves", wiggly)
    monkeypatch.setattr(selection, "type_rate_arrays", wiggly_arrays)


def random_config(rng) -> ScenarioConfig:
    """Draw a random valid deployment; spans extreme radiation ratios."""
    import numpy as np

    s = int(rng.integers(2, 12))
    bs_h = float(rng.uniform(0.0, 40.0))
    ris_h = float(rng.uniform(0.0, 25.0))
    d_min = abs(bs_h - ris_h) + 1.0
    return make_config(
        bs_antennas=int(rng.integers(1, 16)),
        rows=int(rng.integers(1, 40)),
        cols=int(rng.integers(1, 40)),
        users_total=s,
        users_transmission=int(rng.integers(0, s + 1)),
        bs_ris_distance=float(rng.uniform(d_min, 400.0)),
        ris_ue_distance=float(rng.uniform(5.0, 400.0)),
        bs_height=bs_h,
        ris_height=ris_h,
        wavelength=float(rng.uniform(0.01, 0.3)),
        antenna_gain=float(rng.uniform(0.5, 4.0)),
        pathloss_exponent=float(rng.uniform(1.5, 3.0)),
        element_width=float(rng.uniform(0.005, 0.05)),
        element_height=float(rng.uniform(0.005, 0.05)),
        element_gain=float(rng.uniform(0.5, 4.0)),
        radiation_reflect=float(np.exp(rng.uniform(np.log(0.02), 0.0))),
        radiation_transmit=float(np.exp(rng.uniform(np.log(0.02), 0.0))),
        transmit_power=dbm_to_watts(float(rng.uniform(10.0, 50.0))),
        noise_variance=dbm_to_watts(float(rng.uniform(-110.0, -70.0))),
    )


def near_isotropic_config(rng) -> ScenarioConfig:
    """A random_config deployment with eps_t within 4% of eps_r, transmit
    power 10-70 dBm and noise -120 to -70 dBm: about one interior split in
    eight passes the regime report (random_config's 0.02-1 radiation range
    almost never does)."""
    cfg = random_config(rng)
    eps_t = min(1.0, cfg.panel.radiation_reflect * float(rng.uniform(0.96, 1.04)))
    return replace(cfg, panel=replace(cfg.panel, radiation_transmit=eps_t),
                   transmit_power=dbm_to_watts(float(rng.uniform(10.0, 70.0))),
                   noise_variance=dbm_to_watts(float(rng.uniform(-120.0, -70.0))))


def mc_tolerance(cfg, trials):
    """Six standard deviations of a Monte Carlo mean of the sum rate.

    Each user's row power is a scaled Gamma(K_t, 1) variate X, and the
    user's rate is (1/ln 2)-Lipschitz in ln X, whose variance is
    psi'(K_t) (the trigamma function; for integer K_t it is
    pi^2/6 - sum_{j<K_t} 1/j^2). Users are independent, so one trial's sum
    rate has standard deviation at most sqrt(S psi'(K_t)) / ln 2.
    """
    trigamma = math.pi ** 2 / 6.0 - sum(1.0 / j ** 2 for j in range(1, cfg.bs_antennas))
    sigma = math.sqrt(cfg.users_total * trigamma) / math.log(2.0)
    return 6.0 * sigma / math.sqrt(trials)
