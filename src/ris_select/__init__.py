"""Sum-rate analysis and type selection for RIS-assisted multi-user downlinks."""

from .capacity import (
    CapacityReport,
    PowerAllocation,
    allocate_power,
    average_snr,
    closed_form_rate,
    element_monte_carlo,
    ergodic_rate_exact,
    monte_carlo_capacity,
    type_curves,
    upper_bound,
)
from .channel import (
    DegenerateGeometryError,
    FADING_LAWS,
    LinkBudget,
    link_budget,
    prepare_sampler,
    zone_gain_statistics,
)
from .scenario import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValidationError,
    RegimeReport,
    RisPanel,
    RisType,
    ScenarioConfig,
    config_digest,
    dbm_to_watts,
    incident_angle_factor,
    load_scenario,
    parse_scenario,
    validate_approximation_regime,
)
from .selection import (
    AsymptoticDiagnostics,
    CertificateError,
    MonotonicityCertificate,
    RegimeViolationError,
    SelectionDecision,
    SelectionThresholds,
    asymptotic_checks,
    brute_force_optimal,
    decide_type,
    find_thresholds,
    monotonicity_certificate,
)

__version__ = "0.1.0"
