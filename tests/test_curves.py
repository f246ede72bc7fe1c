"""Golden rate curves: every type's rate and shares, bit for bit.

tests/data/curves.json pins, for 200 `conftest.random_config` deployments
and the 16 cells of the `fig2a` preset, the float.hex of each type's
`rate(x)` and both `shares(x)` at integer and non-integer splits x in
[0, S], plus the `find_thresholds` crossings and `rate_at_equal_split`. The
curve values of one deployment are stored as the sha256 of their hex
strings, the crossings as hex. The file was recorded by dumping
`curve_record()` as JSON (sorted keys, indent 1); a change to any bit of
these outputs changes every verdict and CSV built from them, and has to be
made on purpose.
"""

import hashlib
import json
import math

import numpy as np

from conftest import REFERENCE_SCENARIO, REPO_ROOT, random_config
from ris_select import (
    RegimeViolationError,
    RisType,
    find_thresholds,
    link_budget,
    load_scenario,
    type_curves,
)
from ris_select.capacity import LN2, hybrid_share
from ris_select.cli import apply_axis_value, preset_variants

GOLDEN = REPO_ROOT / "tests" / "data" / "curves.json"
RANDOM_DEPLOYMENTS = 200


def _deployments() -> dict:
    """name -> config: the random deployments, then the fig2a cells."""
    rng = np.random.default_rng(20261018)
    cells = {f"random/{i:03d}": random_config(rng)
             for i in range(RANDOM_DEPLOYMENTS)}
    (variant,) = preset_variants("fig2a", trials=1, base_seed=0)
    base = load_scenario(REFERENCE_SCENARIO)
    for axis, value in variant.settings:
        base = apply_axis_value(base, axis, value)
    for value in variant.spec.values:
        cells[f"fig2a/{value:g}"] = apply_axis_value(base, variant.spec.axis, value)
    return cells


def _splits(s: int, rng) -> list:
    """Quarter steps over [0, S] (the integers among them), points just
    inside both ends, and three uniform draws."""
    grid = [0.25 * k for k in range(4 * s + 1)]
    return grid + [1e-9, 0.5 / s, s - 0.5 / s, s - 1e-9] \
        + rng.uniform(0.0, s, 3).tolist()


def _hex(value):
    return None if value is None else float(value).hex()


def curve_record() -> dict:
    """Per deployment: sha256 of the curve values and the crossings."""
    rng = np.random.default_rng(7)
    record = {}
    for name, cfg in _deployments().items():
        budget = link_budget(cfg)
        values = []
        for x in _splits(cfg.users_total, rng):
            for ris_type, (rate, shares) in type_curves(cfg, budget).items():
                share_r, share_t = shares(x)
                values.append(f"{ris_type.value} {x.hex()} {_hex(rate(x))} "
                              f"{_hex(share_r)} {_hex(share_t)}")
        entry = {"curves_sha256":
                 hashlib.sha256("\n".join(values).encode()).hexdigest()}
        try:
            th = find_thresholds(cfg, budget)
        except RegimeViolationError:
            entry["thresholds"] = "regime violation"
        else:
            entry["thresholds"] = [_hex(v) for v in (
                th.split_reflect_transmit, th.split_reflect_hybrid,
                th.split_transmit_hybrid, th.rate_at_equal_split)]
        record[name] = entry
    return record


def test_curves_match_golden_file():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = curve_record()
    assert current.keys() == recorded.keys()
    changed = [name for name in current if current[name] != recorded[name]]
    assert not changed, f"{len(changed)} deployments changed, first {changed[:5]}"


def _rate_from_shares(x, s, eps_r, eps_t, big_l, lam, share):
    """The hybrid sum rate at shares (lam, share), in the curve's operation
    order."""
    total = 0.0
    if s - x > 0.0:
        total += (s - x) * (math.log1p(eps_r * lam / (2.0 * big_l)) / LN2)
    if x > 0.0:
        total += x * (math.log1p(eps_t * share / (2.0 * big_l)) / LN2)
    return total


def test_hybrid_curve_matches_the_public_share_formula():
    # the hybrid rate writes hybrid_share's formula and its clamp out: it
    # must equal the rate at shares(x) bit for bit everywhere, and shares(x)
    # must equal hybrid_share wherever the reflection share is not clamped
    rng = np.random.default_rng(11)
    unclamped = 0
    for cfg in _deployments().values():
        budget = link_budget(cfg)
        rate, shares = type_curves(cfg, budget)[RisType.HYBRID]
        s, big_l = cfg.users_total, budget.link_constant
        eps_r, eps_t = cfg.panel.radiation_reflect, cfg.panel.radiation_transmit
        for x in _splits(s, rng):
            lam, share = shares(x)
            assert rate(x) == _rate_from_shares(x, s, eps_r, eps_t, big_l,
                                                lam, share), (s, x)
            unclamped_lam = hybrid_share(x, s, eps_r, eps_t, big_l)
            if s - x > 0.0 and 0.0 <= unclamped_lam <= 1.0 / (s - x):
                assert lam == unclamped_lam, (s, x)
                unclamped += 1
    assert unclamped > 500

