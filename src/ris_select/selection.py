"""Surface-type decision: crossover splits, condition table, asymptotics.

The three closed-form rate curves are compared as functions of the number of
transmission-zone users (treated as a continuous variable for root finding;
verdicts are produced at the integer split). The transmissive-minus-reflective
difference is exactly monotone; the two hybrid differences are monotone in
the near-isotropic, high-SNR regime, which is what makes the condition table
work. Outside that regime the table verdict is still produced but marked
advisory, and the brute-force comparison of the closed forms is the verdict
to trust. Each crossing is found by an ITP search on the rate closures,
started from the grid bracket of the closures' sign change, which the array
scan finds for every difference by one rule.
`decide_types` decides every cell of a sweep with one scan and one search
per crossing tuple; `decide_type` is that call for one cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import (
    LN2,
    _type_curves,
    allocate_power,
    average_snr,
    hybrid_share,
    type_curves,
    type_rate_arrays,
)
from .channel import LinkBudget, link_budget
from .scenario import (
    RegimeReport,
    RisType,
    ScenarioConfig,
    validate_approximation_regime,
)

ROOT_TOL = 1e-9
SCAN_POINTS = 100
# A scanned difference no larger than this fraction of its two rates' sizes
# (or NaN) is re-evaluated with the rate closures. The array rates differ
# from the closures' by a few 1e-16 relative, so every other scanned sign is
# the closures' sign.
SCAN_GUARD = 1e-12
# ITP constants (Oliveira and Takahashi, ACM TOMS 47(1), 2020) for a search
# on one scan interval: k1 = ITP_K1_WIDTH / width, and k2 below the 1 + phi
# limit of the method's superlinear convergence
ITP_K1_WIDTH = 0.01
ITP_K2 = 2.5
ITP_N0 = 1
# scan_differences' bracket codes, given in place of a row's low grid index
NO_CROSSING = -1   # no sign change
NOT_MONOTONE = -2  # a NaN, or a sign change against the difference's direction
FD_STEP = 1e-6
CERTIFICATE_POINTS = 41  # interior splits the monotonicity certificate checks


class RegimeViolationError(RuntimeError):
    """The closed forms left the regime the condition table assumes: a
    difference curve broke monotonicity (or, under the CLI's --strict, the
    regime report failed). Carries the regime report."""

    def __init__(self, message: str, regime: RegimeReport):
        super().__init__(message)
        self.regime = regime


class CertificateError(RuntimeError):
    """A monotonicity check failed at a named grid point."""


# --- rate curves over the continuous user split --------------------------------

def _curves(key: tuple) -> tuple:
    """The rate closures of the three types for a crossing_key tuple, in
    RisType order (R, T, H): what the scan's guarded points, the crossing
    search, the condition table and the certificate evaluate."""
    return tuple(rate for rate, _ in _type_curves(*key).values())


def _f_lemma(x: float) -> float:
    """f(x) = x (ln x - 1) + 1; positive on (1, inf), zero at 1.

    Evaluated as x log1p(x - 1) - (x - 1): the naive form cancels
    catastrophically near x = 1, where f(1 + e) is about e^2 / 2.
    """
    e = x - 1.0
    return x * math.log1p(e) - e


def single_zone_slope(n_served: float, radiation: float,
                      link_constant: float) -> float:
    """Analytic derivative in n of n log2(1 + eps / (L n)), the rate of n
    users sharing a single-zone type's power: f(x) / (x ln 2) with
    x = 1 + eps / (L n). The transmissive curve's slope in the split x is
    this at n = x; the reflective curve's is minus this at n = S - x."""
    x = 1.0 + radiation / (link_constant * n_served)
    return _f_lemma(x) / (LN2 * x)


def _regime_report(cfg: ScenarioConfig, budget: LinkBudget) -> RegimeReport:
    """The regime report under the hybrid power split."""
    alloc = allocate_power(cfg, RisType.HYBRID, budget)
    return validate_approximation_regime(
        cfg, average_snr(cfg, RisType.HYBRID, alloc, budget))


# --- thresholds -------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionThresholds:
    """Continuous user splits where two rate curves coincide; None when the
    pair does not cross inside [1, S-1]."""

    split_reflect_transmit: float | None
    split_reflect_hybrid: float | None
    split_transmit_hybrid: float | None
    rate_at_equal_split: float | None


def _itp_root(first, second, lo: float, hi: float) -> float | None:
    """Root of first(x) - second(x) on [lo, hi] to within ROOT_TOL / 2 by an
    ITP search (interpolate, truncate, project), from the difference's
    values at lo and hi. An exact zero at lo, hi or a trial point is
    returned as it is (lo first), and None when the end signs agree."""
    flo, fhi = first(lo) - second(lo), first(hi) - second(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return None
    width = hi - lo
    k1, n_max = ITP_K1_WIDTH / width, math.ceil(math.log2(width / ROOT_TOL)) + ITP_N0
    for j in range(n_max):
        if hi - lo <= ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        x_f = (fhi * lo - flo * hi) / (fhi - flo)  # regula falsi
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * (hi - lo) ** ITP_K2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        # the projection keeps bisection's worst case plus ITP_N0 steps
        radius = math.ldexp(ROOT_TOL, n_max - j - 1) - 0.5 * (hi - lo)
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if not lo < x < hi:  # a truncation below the float spacing left x at an end
            x = mid
        fx = first(x) - second(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    return 0.5 * (lo + hi)


# The differences the search samples, as (name, first, second, increasing)
# with the curves indexed in RisType order (R, T, H).
_DIFFERENCES = (
    ("transmissive minus reflective", 1, 0, True),
    ("reflective minus hybrid", 0, 2, False),
    ("transmissive minus hybrid", 1, 2, True),
)


def crossing_key(cfg: ScenarioConfig, budget: LinkBudget) -> tuple:
    """The (S, eps_r, eps_t, L) tuple the crossings depend on; none of its
    entries moves along a user-split sweep."""
    panel = cfg.panel
    return (cfg.users_total, panel.radiation_reflect, panel.radiation_transmit,
            budget.link_constant)


@functools.lru_cache(maxsize=32)
def _scan_grid(users_total: int) -> np.ndarray:
    """The threshold search's grid on [1, S-1] (read-only)."""
    grid = np.linspace(1.0, users_total - 1.0, SCAN_POINTS)  # ends exactly at 1, S-1
    grid.flags.writeable = False
    return grid


# +1 for a difference that rises through its crossing, -1 for one that falls
_DIRECTIONS = np.array([[1.0 if increasing else -1.0]
                        for *_, increasing in _DIFFERENCES])


def scan_differences(keys) -> tuple:
    """The closures' signs of the three rate differences on the
    threshold-search grid of every crossing_key tuple in the list `keys`
    (each with S >= 2), and the grid bracket of each row's sign change, in
    one array pass.

    Returns (signs, low, high). `signs` is a (len(keys), 3, SCAN_POINTS)
    array: row [a, j] holds np.sign of the closures' difference j of
    _DIFFERENCES at np.linspace(1, S - 1, SCAN_POINTS) for keys[a] (1.0,
    -1.0, 0.0 or NaN), taken from capacity.type_rate_arrays where the array
    difference exceeds SCAN_GUARD times its rates' sizes, and from the
    closures (_curves) at every other point. `low` and `high` are
    (len(keys), 3) int arrays that one rule gives each row from its signs
    along the difference's direction (times -1 for the falling second one):

    * low NOT_MONOTONE for a NaN or a -1 after a +1;
    * (0, SCAN_POINTS - 1), the whole grid, for a 0 at either end;
    * low NO_CROSSING when the two ends share their sign;
    * else the last -1 and the first +1 ((k, k + 1) for a row without
      zeros): the crossing lies in [grid[low], grid[high]].

    `high` means nothing where `low` holds a code.
    """
    x = np.array([_scan_grid(key[0]) for key in keys])
    columns = np.array(keys, dtype=float)
    s, eps_r, eps_t, big_l = (columns[:, k:k + 1] for k in range(4))
    # out-of-range rates come out inf or NaN and are left to the closures
    with np.errstate(all="ignore"):
        curves = np.array(type_rate_arrays(s, eps_r, eps_t, big_l, x))
        first = curves[[i for _, i, _, _ in _DIFFERENCES]]
        second = curves[[j for _, _, j, _ in _DIFFERENCES]]
        diff = first - second
        sure = np.abs(diff) > SCAN_GUARD * (np.abs(first) + np.abs(second))
        signs = np.sign(diff)
    if not sure.all():
        for d, a, p in np.argwhere(~sure).tolist():
            _, i, j, _ = _DIFFERENCES[d]
            rates, point = _curves(keys[a]), float(x[a, p])
            signs[d, a, p] = np.sign(rates[i](point) - rates[j](point))
    signs = signs.transpose(1, 0, 2)
    along = signs * _DIRECTIONS
    # a NaN counts as both a +1 and a -1, so it breaks any row it is in
    rising, falling = ~(along <= 0.0), ~(along >= 0.0)
    low = SCAN_POINTS - 1 - np.argmax(falling[..., ::-1], axis=-1)
    high = np.argmax(rising, axis=-1)
    # a -1 at or after a +1 (at: a NaN), found before the codes overwrite low
    broken = rising.any(axis=-1) & falling.any(axis=-1) & (low >= high)
    ends = along[..., 0] * along[..., -1]
    low[ends > 0.0] = NO_CROSSING
    whole = ends == 0.0
    low[whole], high[whole] = 0, SCAN_POINTS - 1
    low[broken] = NOT_MONOTONE
    return signs, low, high


def _search(key: tuple, low, high):
    """The crossings of a crossing_key tuple from its scan_differences
    row of `low` and `high` (as lists), or the message naming a difference
    whose sign pattern is not monotone.

    Each crossing is found by an ITP search with the closures (_itp_root) on
    its bracket, to within ROOT_TOL / 2 in the continuous split, or reported
    absent when the difference never changes sign. An exact zero of the
    closures at split 1 or S-1 is the crossing.
    """
    curves = _curves(key)
    grid = _scan_grid(key[0])
    roots = []
    for (name, i, j, _), k, m in zip(_DIFFERENCES, low, high):
        if k == NOT_MONOTONE:
            return (f"approximation regime violated: the {name} difference is not "
                    f"monotone over the user split")
        roots.append(None if k == NO_CROSSING
                     else _itp_root(curves[i], curves[j], float(grid[k]), float(grid[m])))

    split_rt, split_rh, split_th = roots
    rate_eq = curves[0](split_rt) if split_rt is not None else None
    return SelectionThresholds(
        split_reflect_transmit=split_rt,
        split_reflect_hybrid=split_rh,
        split_transmit_hybrid=split_th,
        rate_at_equal_split=rate_eq,
    )


def find_thresholds(cfg: ScenarioConfig, budget: LinkBudget) -> SelectionThresholds:
    """Locate the pairwise crossings of the three rate curves on [1, S-1]
    from a scan of cfg's one tuple. A sign pattern that is not monotone means
    the closed-form comparisons cannot be trusted: RegimeViolationError,
    carrying the regime report."""
    if cfg.users_total < 2:
        raise ValueError("threshold search needs at least two users")
    key = crossing_key(cfg, budget)
    _, low, high = scan_differences([key])
    found = _search(key, low[0].tolist(), high[0].tolist())
    if isinstance(found, str):
        raise RegimeViolationError(found, regime=_regime_report(cfg, budget))
    return found


# --- the decision -----------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    """The condition-table cell a decision landed in.

    Signs are -1/0/+1 of: hybrid minus the common rate at the
    reflect/transmit crossing, hybrid minus reflective at split 1, and hybrid
    minus transmissive at split S-1. `advisory` is set when the table's
    assumptions do not hold for this config and the brute-force verdict
    should be trusted instead.
    """

    sign_at_crossover: int
    sign_at_low_edge: int
    sign_at_high_edge: int
    position: str
    advisory: bool
    note: str = ""


@dataclass(frozen=True)
class SelectionDecision:
    """Verdicts of the condition table and of the direct comparison.

    `optimal` is the table verdict; `brute_force_optimal` is the argmax of
    the three closed forms at the integer split (ties broken reflective,
    then transmissive, then hybrid)."""

    optimal: RisType
    table_row: TableRow
    thresholds: SelectionThresholds
    regime: RegimeReport
    brute_force_optimal: RisType
    agrees: bool


def brute_force_optimal(cfg: ScenarioConfig, budget: LinkBudget):
    """Directly compare the three closed forms at the configured split.

    Returns (winner, rates) with rates keyed by RisType. Ties prefer
    reflective over transmissive over hybrid.
    """
    x = float(cfg.users_transmission)
    rates = {t: rate(x) for t, (rate, _) in type_curves(cfg, budget).items()}
    # max keeps the first of equal rates, in the dict's R, T, H order
    return max(rates, key=rates.get), rates


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


# Where a hybrid verdict sits, by whether the hybrid curve beats the
# reflective one at split 1 and the transmissive one at split S-1
_HYBRID_POSITIONS = {
    (True, True): "every split",
    (True, False): "below transmit/hybrid split",
    (False, True): "above reflect/hybrid split",
    (False, False): "between the hybrid splits",
}


def _decision(cfg: ScenarioConfig, budget: LinkBudget, regime: RegimeReport,
              brute: RisType, thresholds: SelectionThresholds | None) -> SelectionDecision:
    """The condition table's verdict for one cell from its crossings (None
    at a boundary split), set against the brute-force verdict `brute`."""
    s, s_t = cfg.users_total, cfg.users_transmission
    if thresholds is None:
        thresholds = SelectionThresholds(None, None, None, None)
        verdict = RisType.REFLECTIVE if s_t == 0 else RisType.TRANSMISSIVE
        side = "transmission" if s_t == 0 else "reflection"
        row = TableRow(0, 0, 0, position=f"boundary: empty {side} zone",
                       advisory=False, note="single-zone split decided directly")
    elif thresholds.split_reflect_transmit is None:
        # The two single-zone curves never meet, so the table's case split
        # does not apply; fall back to the direct comparison.
        verdict = brute
        row = TableRow(0, 0, 0, position="not applicable", advisory=True,
                       note="reflective and transmissive curves do not cross")
    else:
        split_rt = thresholds.split_reflect_transmit
        split_rh = thresholds.split_reflect_hybrid
        split_th = thresholds.split_transmit_hybrid
        c_reflect, c_transmit, c_hybrid = _curves(crossing_key(cfg, budget))
        hyb_at_cross = c_hybrid(split_rt) - thresholds.rate_at_equal_split
        hyb_low = c_hybrid(1.0) - c_reflect(1.0)
        hyb_high = c_hybrid(float(s - 1)) - c_transmit(float(s - 1))
        # with no hybrid gain where R and T meet, their split decides; else
        # R, then T, else H (`not x > 0` sends a NaN edge gap to the split test)
        if hyb_at_cross <= 0.0:
            verdict, position = (
                (RisType.TRANSMISSIVE, "above reflect/transmit split") if s_t > split_rt
                else (RisType.REFLECTIVE, "at or below reflect/transmit split"))
        elif not hyb_low > 0.0 and split_rh is not None and s_t <= split_rh:
            verdict, position = RisType.REFLECTIVE, "at or below reflect/hybrid split"
        elif not hyb_high > 0.0 and split_th is not None and s_t >= split_th:
            verdict, position = RisType.TRANSMISSIVE, "at or above transmit/hybrid split"
        else:
            verdict = RisType.HYBRID
            position = _HYBRID_POSITIONS[hyb_low > 0.0, hyb_high > 0.0]
        note = "" if regime.ok else "regime report failed; trust the brute-force verdict"
        row = TableRow(_sign(hyb_at_cross), _sign(hyb_low), _sign(hyb_high),
                       position=position, advisory=not regime.ok, note=note)
    return SelectionDecision(optimal=verdict, table_row=row, thresholds=thresholds,
                             regime=regime, brute_force_optimal=brute,
                             agrees=verdict is brute)


def decide_types(cfgs, budgets, regimes, winners) -> list:
    """Pick the best surface type for each cell of a sweep.

    `regimes` holds each cell's regime report and `winners` its brute-force
    verdict (brute_force_optimal's winner). Returns one (decision,
    violation) per cell: a SelectionDecision and None, or None and the
    RegimeViolationError of a condition table that broke down.

    Boundary splits (no users on one side) go straight to the single-zone
    type. The crossings depend only on crossing_key's tuple, so the distinct
    tuples of the interior cells are scanned in one scan_differences pass
    and each is searched once. When a tuple's sign pattern is not monotone,
    each of its cells gets its own RegimeViolationError, carrying its own
    regime report. Otherwise the condition table is evaluated from the
    crossings; a failing regime report (or a missing reflect/transmit
    crossing) marks the table verdict advisory.
    """
    keys = [crossing_key(cfg, budget) if 0 < cfg.users_transmission < cfg.users_total
            else None for cfg, budget in zip(cfgs, budgets)]
    distinct = list(dict.fromkeys(key for key in keys if key is not None))
    found = {}
    if distinct:
        _, low, high = scan_differences(distinct)
        found = dict(zip(distinct, map(_search, distinct, low.tolist(), high.tolist())))
    results = []
    for cfg, budget, regime, winner, key in zip(cfgs, budgets, regimes, winners, keys):
        thresholds = found.get(key)
        if isinstance(thresholds, str):
            results.append((None, RegimeViolationError(thresholds, regime)))
        else:
            results.append((_decision(cfg, budget, regime, winner, thresholds), None))
    return results


def decide_type(cfg: ScenarioConfig, budget: LinkBudget | None = None) -> SelectionDecision:
    """Pick the best surface type for one deployment: decide_types for a
    one-cell sweep, with the regime report of the hybrid split and the
    brute-force winner. A broken condition table raises its
    RegimeViolationError."""
    if budget is None:
        budget = link_budget(cfg)
    regime = _regime_report(cfg, budget)
    winner, _ = brute_force_optimal(cfg, budget)
    ((decision, violation),) = decide_types([cfg], [budget], [regime], [winner])
    if violation is not None:
        raise violation
    return decision


# --- monotonicity certificate -------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityCertificate:
    """Evidence that the single-zone rate curves are strictly monotone."""

    grid: np.ndarray
    transmit_slope: np.ndarray
    reflect_slope: np.ndarray
    max_relative_error: float
    lemma_min: float
    lemma_points: int


def monotonicity_certificate(cfg: ScenarioConfig,
                             budget: LinkBudget) -> MonotonicityCertificate:
    """Certify the analytic slopes against finite differences.

    Evaluates the analytic slope of both single-zone curves on an interior
    grid of the continuous split, cross-checks each against a central finite
    difference (relative error at most 1e-6 at step 1e-6), and asserts the
    transmissive slope is strictly positive and the reflective strictly
    negative. Also samples f(x) = x (ln x - 1) + 1 over (1, 1e6] and checks
    positivity. Violations raise CertificateError naming the grid point.
    """
    if cfg.users_total < 3:
        raise ValueError("certificate needs at least three users")
    panel = cfg.panel
    big_l = budget.link_constant
    s = float(cfg.users_total)
    c_reflect, c_transmit, _ = _curves(crossing_key(cfg, budget))

    grid = np.linspace(1.0, s - 1.0, CERTIFICATE_POINTS + 2)[1:-1]
    transmit_slope = np.empty_like(grid)
    reflect_slope = np.empty_like(grid)
    worst = 0.0
    for i, x in enumerate(grid):
        ct_slope = single_zone_slope(x, panel.radiation_transmit, big_l)
        cr_slope = -single_zone_slope(s - x, panel.radiation_reflect, big_l)
        fd_ct = (c_transmit(x + FD_STEP) - c_transmit(x - FD_STEP)) / (2.0 * FD_STEP)
        fd_cr = (c_reflect(x + FD_STEP) - c_reflect(x - FD_STEP)) / (2.0 * FD_STEP)
        err_ct = abs(fd_ct - ct_slope) / abs(ct_slope)
        err_cr = abs(fd_cr - cr_slope) / abs(cr_slope)
        worst = max(worst, err_ct, err_cr)
        if err_ct > 1e-6 or err_cr > 1e-6:
            raise CertificateError(
                f"analytic slope disagrees with finite difference at split {x:.6f} "
                f"(errors {err_ct:.3e}, {err_cr:.3e})"
            )
        if ct_slope <= 0.0:
            raise CertificateError(f"transmissive slope not positive at split {x:.6f}")
        if cr_slope >= 0.0:
            raise CertificateError(f"reflective slope not negative at split {x:.6f}")
        transmit_slope[i] = ct_slope
        reflect_slope[i] = cr_slope

    lemma_xs = 1.0 + np.logspace(-9.0, math.log10(1e6 - 1.0), 300)
    lemma_vals = np.array([_f_lemma(float(x)) for x in lemma_xs])
    bad = np.nonzero(lemma_vals <= 0.0)[0]
    if bad.size:
        raise CertificateError(
            f"lemma positivity fails at x = {float(lemma_xs[bad[0]])!r}")

    return MonotonicityCertificate(
        grid=grid,
        transmit_slope=transmit_slope,
        reflect_slope=reflect_slope,
        max_relative_error=worst,
        lemma_min=float(lemma_vals.min()),
        lemma_points=len(lemma_xs),
    )


# --- asymptotic diagnostics -----------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticDiagnostics:
    """Element-count threshold for hybrid dominance plus slope diagnostics.

    `element_count_scale` is the link constant stripped of the panel size
    (so it equals link_constant * M N). `hybrid_favored` says the panel
    size exceeds element_count_scale * 2 ** max(reflect_exponent,
    transmit_exponent), the high-SNR threshold above which the hybrid type
    beats both single-zone types. That prediction holds only where the
    regime report holds (near-isotropic radiation, high SNR); elsewhere a
    favored cell can lose to a single-zone type by more than 1 b/s/Hz.
    Even in the regime the threshold drops 1/SNR terms, so within about 10%
    of it the flag can be wrong by a small margin.
    `hybrid_vs_transmit_approx` is the high-SNR estimate of the hybrid minus
    transmissive rate gap.

    `log_pattern_term + mismatch_term` is the slope of the hybrid rate curve
    in the user split at the configured split, taken at the unclamped
    optimal shares (capacity.hybrid_share for each zone): by the envelope
    theorem the slope splits into log2(eps_t / eps_r) and an amplitude
    mismatch term that vanishes when eps_r = eps_t. When the reflection
    share is clamped (hybrid_share outside [0, 1/n_R]), the allocation sits
    on a bound where the envelope theorem does not apply; both terms are
    still reported for the unclamped optimum, which then puts negative
    power on one zone, and their sum is not the slope of the hybrid curve.
    """

    element_count_scale: float
    reflect_exponent: float
    transmit_exponent: float
    element_count_threshold: float
    log_pattern_term: float
    mismatch_term: float
    mismatch_reflect: float
    mismatch_transmit: float
    hybrid_vs_transmit_approx: float
    element_count: int
    hybrid_favored: bool


def asymptotic_checks(cfg: ScenarioConfig, budget: LinkBudget) -> AsymptoticDiagnostics:
    """Evaluate the large-panel dominance threshold at the configured split."""
    s = cfg.users_total
    s_t = cfg.users_transmission
    if not 1 <= s_t <= s - 1:
        raise ValueError("both zones must hold at least one user")
    s_r = s - s_t
    panel = cfg.panel
    eps_r, eps_t = panel.radiation_reflect, panel.radiation_transmit

    big_l = budget.link_constant
    mn = panel.element_count
    scale = big_l * mn  # the link constant without the panel size

    def log2(x):
        return math.log(x) / LN2

    reflect_exp = (s - s_t * log2(eps_r) + s * log2(s) - s_r * log2(s_r)) / s_t
    transmit_exp = (s - s_r * log2(eps_t) + s * log2(s) - s_t * log2(s_t)) / s_r
    exponent = max(reflect_exp, transmit_exp)
    if exponent < 1024.0:
        threshold = scale * 2.0 ** exponent  # inf past the float range
    else:  # 2.0 ** exponent would raise, though a small scale may bring it back
        log_threshold = math.log2(scale) + exponent
        threshold = 2.0 ** log_threshold if log_threshold < 1024.0 else math.inf

    approx = (-s + s_r * log2(eps_t) - s * log2(s) + s_t * log2(s_t)
              - s_r * log2(big_l))
    # slope decomposition of the hybrid curve at the unclamped optimum
    lam = hybrid_share(s_t, s, eps_r, eps_t, big_l)
    share = hybrid_share(s_r, s, eps_t, eps_r, big_l)
    mm_r = eps_r / eps_t - 1.0
    mm_t = 1.0 - eps_t / eps_r
    mismatch_term = (s_r / s) * mm_r / (LN2 * (1.0 + eps_r * lam / (2.0 * big_l))) \
        + (s_t / s) * mm_t / (LN2 * (1.0 + eps_t * share / (2.0 * big_l)))
    return AsymptoticDiagnostics(
        element_count_scale=scale,
        reflect_exponent=reflect_exp,
        transmit_exponent=transmit_exp,
        element_count_threshold=threshold,
        log_pattern_term=log2(eps_t / eps_r),
        mismatch_term=mismatch_term,
        mismatch_reflect=mm_r,
        mismatch_transmit=mm_t,
        hybrid_vs_transmit_approx=approx,
        element_count=mn,
        hybrid_favored=mn > threshold,
    )
