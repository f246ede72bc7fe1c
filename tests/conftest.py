"""Shared helpers: reference scenario path, a config factory, the regime report."""

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


def regime_report(cfg: ScenarioConfig):
    """The regime report under the hybrid power split, as decide_type builds it."""
    budget = link_budget(cfg)
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    return validate_approximation_regime(
        cfg, average_snr(cfg, RisType.HYBRID, alloc, budget))


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
