"""Deployment description: geometry, surface panel, user split, propagation.

Everything is stored in linear SI units (watts, meters, radians). Log-scale
units (dBm) are accepted only at the config-file boundary, where keys carry an
explicit unit suffix. All types here are immutable after construction and safe
to share across concurrent tasks.

User indexing convention: users 0 .. S_R-1 sit in the reflection zone (the
base-station side of the surface), users S_R .. S-1 in the transmission zone.
Only the zone membership and the common surface-to-user distance enter any
formula, so individual positions are not modeled.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

ISO_TOL_DEFAULT = 0.1
SNR_FLOOR_DEFAULT = 10.0


class ConfigError(ValueError):
    """Base class for scenario ingestion failures."""


class ConfigSyntaxError(ConfigError):
    """Malformed config text: bad line, unknown key, duplicate key."""


class ConfigValidationError(ConfigError):
    """Config parsed fine but violates a documented invariant."""


def dbm_to_watts(dbm: float) -> float:
    """Convert dBm to watts; a power too large for a float gives inf, which
    config validation then rejects as non-finite."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


class RisType(enum.Enum):
    """Surface operating mode; fixes the (reflect, transmit) amplitude pair.

    The three modes conserve energy: squared amplitudes always sum to one.
    The hybrid mode splits the incident energy equally between the two sides.
    """

    REFLECTIVE = "reflective"
    TRANSMISSIVE = "transmissive"
    HYBRID = "hybrid"

    def amplitude(self, reflection_zone: bool) -> float:
        return _AMPLITUDES[self][0 if reflection_zone else 1]

    @property
    def letter(self) -> str:
        return self.value[0].upper()


_AMPLITUDES = {
    RisType.REFLECTIVE: (1.0, 0.0),
    RisType.TRANSMISSIVE: (0.0, 1.0),
    RisType.HYBRID: (math.sqrt(0.5), math.sqrt(0.5)),
}


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigValidationError(f"{name} must be finite; got {value!r}")


def _frozen_grid(obj, name: str, rows: int, cols: int):
    """Store attribute `name` as a read-only rows x cols float grid. A scalar
    fills the grid with that phase, and None with zeros; a panel too large
    to allocate, or a NaN or infinite phase, is a ConfigValidationError."""
    grid = getattr(obj, name)
    if grid is None or np.ndim(grid) == 0:
        phase = 0.0 if grid is None else float(grid)
        try:
            grid = np.full((rows, cols), phase)
        except (MemoryError, ValueError):  # numpy: cannot allocate, or "too big"
            raise ConfigValidationError(
                f"a {rows}x{cols} panel is too large to allocate") from None
    else:
        grid = np.array(grid, dtype=float)
    if grid.shape != (rows, cols):
        raise ConfigValidationError(
            f"{name} must hold exactly {rows}x{cols} entries, got shape {grid.shape}"
        )
    if not np.isfinite(grid).all():
        raise ConfigValidationError(f"{name}_rad must be finite")
    grid.flags.writeable = False
    object.__setattr__(obj, name, grid)


@dataclass(frozen=True)
class RisPanel:
    """Surface geometry and per-element electromagnetic response.

    `radiation_reflect` / `radiation_transmit` are the normalized power
    radiation constants of one element toward each zone; both must lie in
    (0, 1] but no ordering between them is enforced (near-equality is checked
    separately by `validate_approximation_regime`). Phase grids default to all
    zeros, and a scalar phase fills the whole grid; the aggregated-channel
    statistics are independent of any deterministic grid.
    """

    rows: int
    cols: int
    element_width: float
    element_height: float
    element_gain: float = 1.0
    radiation_reflect: float = 1.0
    radiation_transmit: float = 1.0
    phase_reflect: np.ndarray | float | None = None
    phase_transmit: np.ndarray | float | None = None

    def __post_init__(self):
        _require_finite(self, ("element_width", "element_height", "element_gain",
                               "radiation_reflect", "radiation_transmit"))
        if self.rows < 1:
            raise ConfigValidationError("ris_rows must be a positive integer")
        if self.cols < 1:
            raise ConfigValidationError("ris_cols must be a positive integer")
        if self.element_width <= 0.0:
            raise ConfigValidationError("element_width_m must be positive")
        if self.element_height <= 0.0:
            raise ConfigValidationError("element_height_m must be positive")
        if self.element_gain <= 0.0:
            raise ConfigValidationError("element_gain must be positive")
        for name in ("radiation_reflect", "radiation_transmit"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigValidationError(f"{name} must lie in (0, 1]")
        _frozen_grid(self, "phase_reflect", self.rows, self.cols)
        _frozen_grid(self, "phase_transmit", self.rows, self.cols)

    @property
    def element_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated deployment description in linear SI units; every float
    field must be finite."""

    bs_antennas: int
    bs_ris_distance: float
    ris_ue_distance: float
    bs_height: float
    ris_height: float
    users_total: int
    users_transmission: int
    transmit_power: float
    noise_variance: float
    wavelength: float
    antenna_gain: float
    pathloss_exponent: float
    panel: RisPanel
    iso_tol: float = ISO_TOL_DEFAULT
    snr_floor: float = SNR_FLOOR_DEFAULT

    def __post_init__(self):
        _require_finite(self, ("bs_ris_distance", "ris_ue_distance", "bs_height",
                               "ris_height", "transmit_power", "noise_variance",
                               "wavelength", "antenna_gain", "pathloss_exponent",
                               "iso_tol", "snr_floor"))
        if self.bs_antennas < 1:
            raise ConfigValidationError("bs_antennas must be a positive integer")
        if self.users_total < 1:
            raise ConfigValidationError("users_total must be a positive integer")
        if self.users_transmission < 0:
            raise ConfigValidationError("users_transmission must be non-negative")
        if self.users_transmission > self.users_total:
            raise ConfigValidationError("users_transmission exceeds users_total")
        for name in ("bs_ris_distance", "ris_ue_distance", "transmit_power",
                     "noise_variance", "wavelength", "antenna_gain"):
            if getattr(self, name) <= 0.0:
                raise ConfigValidationError(f"{name} must be positive")
        if self.pathloss_exponent < 1.0:
            raise ConfigValidationError("pathloss_exponent must be >= 1")
        if self.bs_height < 0.0 or self.ris_height < 0.0:
            raise ConfigValidationError("heights must be non-negative")
        if self.bs_ris_distance < abs(self.bs_height - self.ris_height):
            raise ConfigValidationError(
                "bs_ris_distance_m is shorter than the BS/RIS height offset; "
                "geometry not realizable"
            )
        if self.iso_tol < 0.0 or self.snr_floor <= 0.0:
            raise ConfigValidationError("iso_tol must be >= 0 and snr_floor > 0")

    @property
    def users_reflection(self) -> int:
        return self.users_total - self.users_transmission


def reflection_zone_mask(cfg: ScenarioConfig) -> np.ndarray:
    """Boolean vector over users, True for the reflection zone."""
    mask = np.zeros(cfg.users_total, dtype=bool)
    mask[: cfg.users_reflection] = True
    return mask


def incident_angle_factor(cfg: ScenarioConfig) -> float:
    """Squared cosine of the incidence angle at the surface center.

    The base station sits at distance D from the center with a height offset
    dh relative to it; the surface normal is horizontal. The incident ray then
    makes cos(theta) = sqrt(D^2 - dh^2) / D with the normal. Returns 0.0 for
    grazing incidence (D equal to the height offset); downstream link-budget
    code treats that as degenerate.
    """
    d = cfg.bs_ris_distance
    dh = abs(cfg.bs_height - cfg.ris_height)
    return (d * d - dh * dh) / (d * d)


# --- config-file ingestion -------------------------------------------------

_INT_FIELDS = {
    "bs_antennas": "bs_antennas",
    "users_total": "users_total",
    "users_transmission": "users_transmission",
}
_FLOAT_FIELDS = {
    "bs_ris_distance_m": "bs_ris_distance",
    "ris_ue_distance_m": "ris_ue_distance",
    "bs_height_m": "bs_height",
    "ris_height_m": "ris_height",
    "wavelength_m": "wavelength",
    "antenna_gain": "antenna_gain",
    "pathloss_exponent": "pathloss_exponent",
    "iso_tol": "iso_tol",
    "snr_floor": "snr_floor",
}
_PANEL_INT_FIELDS = {"ris_rows": "rows", "ris_cols": "cols"}
_PANEL_FLOAT_FIELDS = {
    "element_width_m": "element_width",
    "element_height_m": "element_height",
    "element_gain": "element_gain",
    "radiation_reflect": "radiation_reflect",
    "radiation_transmit": "radiation_transmit",
}
# Exactly one spelling of each power quantity must be present.
_POWER_ALTERNATIVES = {
    "transmit_power": ("transmit_power_dbm", "transmit_power_w"),
    "noise_variance": ("noise_dbm", "noise_w"),
}
_PHASE_KEYS = ("phase_reflect_rad", "phase_transmit_rad")
_OPTIONAL_KEYS = set(_PHASE_KEYS) | {"iso_tol", "snr_floor"}

KNOWN_KEYS = (
    set(_INT_FIELDS) | set(_FLOAT_FIELDS) | set(_PANEL_INT_FIELDS)
    | set(_PANEL_FLOAT_FIELDS) | set(_PHASE_KEYS)
    | {k for pair in _POWER_ALTERNATIVES.values() for k in pair}
)
# The keys that must each be present; of each power pair exactly one must be.
_REQUIRED_KEYS = (KNOWN_KEYS - _OPTIONAL_KEYS).difference(*_POWER_ALTERNATIVES.values())


def _iter_config_lines(text: str):
    """Yield (line_number, key, raw_value) for every assignment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not (equals and key and value):
            raise ConfigSyntaxError(f"line {lineno}: expected 'key = value', got {raw!r}")
        yield lineno, key, value


def _parse_number(lineno: int, key: str, value: str, want_int: bool):
    try:
        if want_int:
            return int(value)
        return float(value)
    except ValueError:
        kind = "an integer" if want_int else "a number"
        raise ConfigSyntaxError(
            f"line {lineno}: value for {key} must be {kind}, got {value!r}"
        ) from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse key/value config text into a validated ScenarioConfig."""
    seen: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _iter_config_lines(text):
        if key not in KNOWN_KEYS:
            raise ConfigSyntaxError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigSyntaxError(
                f"line {lineno}: duplicate key {key!r} (first on line {seen[key][0]})"
            )
        seen[key] = (lineno, value)

    def take(key: str, want_int: bool = False):
        lineno, value = seen[key]
        return _parse_number(lineno, key, value, want_int)

    missing = sorted(_REQUIRED_KEYS.difference(seen))
    if missing:
        raise ConfigValidationError(f"missing required keys: {', '.join(missing)}")

    powers = {}
    for field_name, (dbm_key, watt_key) in _POWER_ALTERNATIVES.items():
        have = [k for k in (dbm_key, watt_key) if k in seen]
        if not have:
            raise ConfigValidationError(
                f"missing required key: one of {dbm_key} or {watt_key}"
            )
        if len(have) > 1:
            raise ConfigValidationError(
                f"both {dbm_key} and {watt_key} given; pick one"
            )
        raw = take(have[0])
        powers[field_name] = dbm_to_watts(raw) if have[0] == dbm_key else raw

    panel = RisPanel(
        rows=take("ris_rows", want_int=True),
        cols=take("ris_cols", want_int=True),
        **{attr: take(key) for key, attr in _PANEL_FLOAT_FIELDS.items()},
        phase_reflect=take("phase_reflect_rad") if "phase_reflect_rad" in seen else None,
        phase_transmit=take("phase_transmit_rad") if "phase_transmit_rad" in seen else None,
    )
    kwargs = {attr: take(key, want_int=True) for key, attr in _INT_FIELDS.items()}
    kwargs.update({attr: take(key) for key, attr in _FLOAT_FIELDS.items() if key in seen})
    return ScenarioConfig(panel=panel, **powers, **kwargs)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a UTF-8 config file; parse_scenario takes text."""
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def config_digest(cfg: ScenarioConfig) -> str:
    """Stable short fingerprint of a config, for output provenance headers."""
    h = hashlib.sha256()
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "panel":
            for pf in fields(RisPanel):
                pv = getattr(value, pf.name)
                if isinstance(pv, np.ndarray):
                    h.update(pf.name.encode())
                    h.update(pv.tobytes())
                else:
                    h.update(f"{pf.name}={pv!r};".encode())
        else:
            h.update(f"{f.name}={value!r};".encode())
    return h.hexdigest()[:12]


# --- approximation-regime report -------------------------------------------

@dataclass(frozen=True)
class RegimeReport:
    """Advisory check of the assumptions behind the selection condition table.

    `isotropic` holds when the two radiation constants are within `iso_tol`
    of each other (relative to the reflect side). `high_snr` holds when the
    weakest served user under the hybrid power split still sees a received
    SNR above `snr_floor`. Selection consumers treat a failing report as
    "condition table is advisory; trust the brute-force comparison".
    """

    isotropic: bool
    isotropy_ratio: float
    iso_tol: float
    high_snr: bool
    min_received_snr: float
    snr_floor: float

    @property
    def ok(self) -> bool:
        return self.isotropic and self.high_snr


def min_served_snr(snr):
    """Smallest positive SNR along the last axis (users), 0.0 where nobody
    is served: a float for a vector, an array for a block."""
    snr = np.asarray(snr)
    served = snr > 0.0
    low = np.where(served.any(axis=-1), np.min(np.where(served, snr, np.inf), axis=-1),
                   0.0)
    return float(low) if low.ndim == 0 else low


def approximation_regime(cfg: ScenarioConfig, min_snr: float) -> RegimeReport:
    """The regime report of `cfg` whose smallest served hybrid-split SNR is
    `min_snr` (min_served_snr of the hybrid SNR vector)."""
    eps_r = cfg.panel.radiation_reflect
    eps_t = cfg.panel.radiation_transmit
    ratio = abs(eps_r - eps_t) / eps_r
    return RegimeReport(
        isotropic=ratio <= cfg.iso_tol,
        isotropy_ratio=float(ratio),
        iso_tol=cfg.iso_tol,
        high_snr=min_snr > cfg.snr_floor,
        min_received_snr=min_snr,
        snr_floor=cfg.snr_floor,
    )


def validate_approximation_regime(cfg: ScenarioConfig, hybrid_snr) -> RegimeReport:
    """Report whether the closed-form selection machinery is trustworthy here.

    `hybrid_snr` is the per-user averaged SNR under the hybrid power split,
    as `capacity.average_snr` gives it; a user with a positive SNR is served.
    """
    return approximation_regime(cfg, min_served_snr(hybrid_snr))
