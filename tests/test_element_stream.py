"""Golden element stream: fixed-seed per-element outputs, bit for bit.

tests/data/element_stream.json holds, for every fading law and surface type,
the sha256 of the bytes of one prepare_sampler draw and the float.hex of
every zone_gain_statistics moment of both zones, for two panels: an odd 3x3
panel with a non-trivial phase grid, and the 50x50 reference panel. The
trial counts are multiples of no draw-block size, so a change to how the
draw is cut into blocks shows up here. The file was recorded by dumping
`element_stream()` as JSON (sorted keys, indent 1); any change to a bit of
these outputs is a change of the stream contract and has to be made on
purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import REPO_ROOT, make_config
from ris_select import (
    FADING_LAWS,
    RisType,
    link_budget,
    prepare_sampler,
    zone_gain_statistics,
)
from ris_select import channel

GOLDEN = REPO_ROOT / "tests" / "data" / "element_stream.json"

_GRID = np.arange(9.0).reshape(3, 3)
PANELS = {
    # (config, zone_gain_statistics trials)
    "odd_3x3": (make_config(rows=3, cols=3, users_total=5, users_transmission=2,
                            bs_antennas=3, phase_reflect=0.7 * _GRID,
                            phase_transmit=1.3 * _GRID), 1000),
    "reference_50x50": (make_config(), 300),
}
SAMPLER_SEED = (11, 4)
STATS_SEED = (5, 2)


def _moments(stats) -> dict:
    return {name: float(value).hex() for name, value in (
        ("mean_real", stats.mean.real), ("mean_imag", stats.mean.imag),
        ("variance", stats.variance), ("variance_stderr", stats.variance_stderr),
        ("kurtosis_real", stats.kurtosis_real), ("kurtosis_imag", stats.kurtosis_imag))}


def element_stream(panels=tuple(PANELS)) -> dict:
    """Digest of every fixed-seed per-element output, keyed panel/law/type."""
    record = {}
    for panel in panels:
        cfg, trials = PANELS[panel]
        budget = link_budget(cfg)
        for law in sorted(FADING_LAWS):
            for ris_type in RisType:
                draw = prepare_sampler(cfg, ris_type, budget, law)
                entry = {"sampler_sha256":
                         hashlib.sha256(draw(SAMPLER_SEED).tobytes()).hexdigest()}
                for zone, reflection in (("reflect", True), ("transmit", False)):
                    entry[zone] = _moments(zone_gain_statistics(
                        cfg, ris_type, reflection, trials, law, STATS_SEED))
                record[f"{panel}/{law}/{ris_type.value}"] = entry
    return record


def _golden(panels=tuple(PANELS)) -> dict:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {key: value for key, value in recorded.items()
            if key.split("/")[0] in panels}


def test_element_outputs_match_golden_file():
    assert element_stream() == _golden()


@pytest.mark.parametrize("block_rows", [37, 512])
def test_element_outputs_ignore_the_block_size(monkeypatch, block_rows):
    monkeypatch.setattr(channel, "_STAT_CHUNK", block_rows)
    assert element_stream(("odd_3x3",)) == _golden(("odd_3x3",))


def test_element_outputs_ignore_the_pipeline(monkeypatch):
    # the 3x3 draws go through the worker pipeline, one user row per block
    monkeypatch.setattr(channel, "_BLOCK_VALUES", 0)
    monkeypatch.setattr(channel, "_HANDOFF_RATIO", 0.0)
    assert element_stream(("odd_3x3",)) == _golden(("odd_3x3",))
