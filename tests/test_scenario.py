"""Config ingestion, unit conversion, geometry and regime checks."""

import numpy as np
import pytest

from conftest import REFERENCE_SCENARIO, make_config, regime_report
from ris_select import (
    ConfigSyntaxError,
    ConfigValidationError,
    RisPanel,
    RisType,
    config_digest,
    dbm_to_watts,
    incident_angle_factor,
    load_scenario,
    parse_scenario,
)


def test_dbm_reference_values():
    # direct evaluation of 10 ** ((dBm - 30) / 10)
    assert dbm_to_watts(43.0) == pytest.approx(10.0 ** 1.3, rel=1e-14)
    assert dbm_to_watts(43.0) == pytest.approx(19.952623149688797, rel=1e-14)
    assert dbm_to_watts(-96.0) == pytest.approx(10.0 ** -12.6, rel=1e-14)
    assert dbm_to_watts(-96.0) == pytest.approx(2.511886431509582e-13, rel=1e-14)


def test_load_reference_scenario():
    cfg = load_scenario(REFERENCE_SCENARIO)
    assert cfg.bs_antennas == 12
    assert cfg.users_total == 10
    assert cfg.users_transmission == 7
    assert cfg.users_reflection == 3
    assert cfg.bs_ris_distance == 50.0
    assert cfg.ris_ue_distance == 50.0
    assert cfg.transmit_power == pytest.approx(19.952623149688797, rel=1e-14)
    assert cfg.noise_variance == pytest.approx(2.511886431509582e-13, rel=1e-14)
    assert cfg.panel.rows == cfg.panel.cols == 50
    assert cfg.panel.radiation_transmit == 0.95
    assert np.all(cfg.panel.phase_reflect == 0.0)
    assert cfg.panel.phase_reflect.shape == (50, 50)


MINIMAL = """
bs_antennas = 2
bs_ris_distance_m = 50
ris_ue_distance_m = 50
bs_height_m = 30
ris_height_m = 15
users_total = 10
users_transmission = 7
transmit_power_dbm = 43
noise_dbm = -96
wavelength_m = 0.1
antenna_gain = 1
pathloss_exponent = 2
ris_rows = 2
ris_cols = 2
element_width_m = 0.02
element_height_m = 0.02
element_gain = 1
radiation_reflect = 1.0
radiation_transmit = 0.95
"""


def _edit(text, key, replacement):
    lines = []
    for line in text.strip().splitlines():
        if line.split("=")[0].strip() == key:
            if replacement is not None:
                lines.append(replacement)
        else:
            lines.append(line)
    return "\n".join(lines)


def test_user_split_rejected():
    bad = _edit(MINIMAL, "users_transmission", "users_transmission = 11")
    with pytest.raises(ConfigValidationError, match="users_transmission exceeds users_total"):
        parse_scenario(bad)


def test_unknown_key_names_line():
    bad = MINIMAL.strip() + "\nmystery_key = 3\n"
    with pytest.raises(ConfigSyntaxError, match="line 20.*mystery_key"):
        parse_scenario(bad)


def test_duplicate_key_rejected():
    bad = MINIMAL.strip() + "\nantenna_gain = 2\n"
    with pytest.raises(ConfigSyntaxError, match="duplicate key"):
        parse_scenario(bad)


def test_missing_key_rejected():
    bad = _edit(MINIMAL, "wavelength_m", None)
    with pytest.raises(ConfigValidationError, match="wavelength_m"):
        parse_scenario(bad)


def test_both_power_spellings_rejected():
    bad = MINIMAL.strip() + "\ntransmit_power_w = 20\n"
    with pytest.raises(ConfigValidationError, match="transmit_power"):
        parse_scenario(bad)


def test_power_in_watts_accepted():
    cfg = parse_scenario(_edit(MINIMAL, "transmit_power_dbm", "transmit_power_w = 20"))
    assert cfg.transmit_power == 20.0


def test_malformed_line_reports_location():
    bad = MINIMAL.strip() + "\njust some words\n"
    with pytest.raises(ConfigSyntaxError, match="line 20"):
        parse_scenario(bad)


def test_non_numeric_value_rejected():
    bad = _edit(MINIMAL, "antenna_gain", "antenna_gain = lots")
    with pytest.raises(ConfigSyntaxError, match="antenna_gain"):
        parse_scenario(bad)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n" + MINIMAL.strip() + "   # trailing\n"
    assert parse_scenario(text).users_total == 10


def test_phase_scalar_key_builds_constant_grid():
    cfg = parse_scenario(MINIMAL.strip() + "\nphase_reflect_rad = 0.5\n")
    assert np.all(cfg.panel.phase_reflect == 0.5)
    assert np.all(cfg.panel.phase_transmit == 0.0)


def test_geometry_must_be_realizable():
    with pytest.raises(ConfigValidationError, match="geometry"):
        make_config(bs_ris_distance=10.0, bs_height=30.0, ris_height=15.0)


@pytest.mark.parametrize("field,value", [
    ("bs_ris_distance", -1.0),
    ("ris_ue_distance", 0.0),
    ("wavelength", 0.0),
    ("pathloss_exponent", 0.5),
    ("users_total", 0),
])
def test_nonpositive_fields_rejected(field, value):
    with pytest.raises(ConfigValidationError):
        make_config(**{field: value})


def test_panel_grid_shape_enforced():
    with pytest.raises(ConfigValidationError, match="phase_reflect"):
        RisPanel(rows=2, cols=3, element_width=0.02, element_height=0.02,
                 phase_reflect=np.zeros((3, 2)))


def test_panel_radiation_bounds():
    with pytest.raises(ConfigValidationError, match="radiation_transmit"):
        make_config(radiation_transmit=0.0)
    with pytest.raises(ConfigValidationError, match="radiation_reflect"):
        make_config(radiation_reflect=1.2)


def test_ris_type_amplitudes_conserve_energy():
    assert (RisType.REFLECTIVE.amplitude(True),
            RisType.REFLECTIVE.amplitude(False)) == (1.0, 0.0)
    assert (RisType.TRANSMISSIVE.amplitude(True),
            RisType.TRANSMISSIVE.amplitude(False)) == (0.0, 1.0)
    assert RisType.HYBRID.amplitude(True) ** 2 == pytest.approx(0.5, rel=1e-15)
    assert RisType.HYBRID.amplitude(False) ** 2 == pytest.approx(0.5, rel=1e-15)
    for ris_type in RisType:
        total = ris_type.amplitude(True) ** 2 + ris_type.amplitude(False) ** 2
        assert total == pytest.approx(1.0, rel=1e-15)


def test_incident_angle_reference_value():
    cfg = make_config()
    # (50^2 - 15^2) / 50^2
    assert incident_angle_factor(cfg) == pytest.approx(0.91, abs=1e-15)


def test_incident_angle_normal_incidence():
    cfg = make_config(bs_height=20.0, ris_height=20.0)
    assert incident_angle_factor(cfg) == 1.0


def test_incident_angle_grazing_is_zero():
    cfg = make_config(bs_ris_distance=15.0, bs_height=30.0, ris_height=15.0)
    assert incident_angle_factor(cfg) == 0.0


def test_incident_angle_monotone_in_distance():
    values = [incident_angle_factor(make_config(bs_ris_distance=d))
              for d in np.linspace(16.0, 500.0, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_regime_isotropy_flags():
    report = regime_report(make_config())
    assert report.isotropic
    assert report.isotropy_ratio == pytest.approx(0.05, rel=1e-12)

    equal = regime_report(make_config(radiation_transmit=1.0))
    assert equal.isotropic and equal.isotropy_ratio == 0.0

    skewed = regime_report(make_config(radiation_transmit=0.5))
    assert not skewed.isotropic


def test_regime_high_snr_reference():
    # weakest hybrid user: transmission zone, SNR = eps_t * share / (2 L)
    report = regime_report(make_config())
    assert report.high_snr
    assert report.min_received_snr == pytest.approx(33.20553624817076, rel=1e-9)
    assert report.ok


def test_regime_low_snr_flagged():
    noisy = make_config(noise_variance=dbm_to_watts(-56.0))
    report = regime_report(noisy)
    assert not report.high_snr
    assert not report.ok


def test_config_digest_tracks_content():
    a = config_digest(make_config())
    b = config_digest(make_config())
    c = config_digest(make_config(radiation_transmit=0.9))
    assert a == b
    assert a != c
    assert len(a) == 12


def test_phase_grids_are_read_only():
    cfg = make_config()
    with pytest.raises(ValueError):
        cfg.panel.phase_reflect[0, 0] = 1.0
