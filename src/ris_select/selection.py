"""Surface-type decision: crossover splits, condition table, asymptotics.

The three closed-form rate curves are compared as functions of the number x
of transmission-zone users (continuous for root finding; verdicts are
produced at the integer split). The condition table works because each of
the three rate differences is strictly monotone in x on [1, S-1], which
follows from the rates' derivatives. Let phi(t) = ln t + 1/t, which
increases on t >= 1 (phi'(t) = (t - 1) / t^2), with phi(1) = 1. In nats:

* the single-zone slopes are dR/dx = 1 - phi(U) and dT/dx = phi(V) - 1,
  with U = 1 + eps_r / (L n_R) and V = 1 + eps_t / (L x);
* by the envelope theorem on the hybrid's two-class water-filling (shares
  lambda and mu with n_R lambda + x mu = 1), dH/dx is phi(v) - phi(u)
  where lambda is unclamped, phi(v) - 1 at lambda = 0 and 1 - phi(u) at
  mu = 0, with u = 1 + eps_r lambda / (2L) and v = 1 + eps_t mu / (2L).
  Since phi(1) = 1, phi(v) - phi(u) covers all three ranges.

A hybrid user gets half the element energy and at most a 1/n power share
(lambda <= 1/n_R, mu <= 1/x), so 1 <= u < U and 1 <= v < V. Then

* d(R - H)/dx = (1 - phi(v)) + (phi(u) - phi(U)) < 0,
* d(T - H)/dx = (phi(V) - phi(v)) + (phi(u) - 1) > 0,
* d(T - R)/dx = (phi(V) - 1) + (phi(U) - 1) > 0,

in every clamp range, and H is continuous across them: each difference
changes sign at most once, whatever the radiation constants and the SNR.
So each crossing is found by an Anderson-Bjorck search with the rate
closures on the whole range [1, S-1], from the closures' values at its
ends. The one thing left to check at run time is conditioning: a difference
that is NaN, or within RESOLVE_TOL of its rates' size, at both ends is
rounding noise over the whole range (it is monotone), so its crossing cannot
be located and the closed-form comparisons cannot be trusted:
RegimeViolationError. With
S = 2 both ends are split 1, and only a NaN there raises. Outside the
near-isotropic, high-SNR regime the table verdict is still produced but
marked advisory, and the brute-force comparison of the closed forms is the
verdict to trust.
`decide_types` decides every cell of a sweep with one search per crossing
tuple; `decide_type` is that call for one cell. `monotonicity_certificate`
checks the slopes above against finite differences on a grid.
"""

from __future__ import annotations

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
)
from .channel import LinkBudget, link_budget
from .scenario import (
    RegimeReport,
    RisType,
    ScenarioConfig,
    validate_approximation_regime,
)

ROOT_TOL = 1e-9
# A difference no larger than this fraction of its two rates' sizes (or NaN)
# at both ends of [1, S-1] is rounding noise over the whole range.
RESOLVE_TOL = 1e-12
FD_STEP = 1e-6
CERTIFICATE_POINTS = 41  # interior splits the monotonicity certificate checks


class RegimeViolationError(RuntimeError):
    """The closed forms left the regime the condition table assumes: a rate
    difference is rounding noise over the whole user split (NaN, or within
    RESOLVE_TOL of its rates' size, at both ends), or, under the CLI's
    --strict, the regime report failed. Carries the regime report."""

    def __init__(self, message: str, regime: RegimeReport):
        super().__init__(message)
        self.regime = regime


class CertificateError(RuntimeError):
    """A monotonicity check failed at a named grid point."""


# --- rate curves over the continuous user split --------------------------------

def _curves(key: tuple) -> tuple:
    """The rate closures of the three types for a crossing_key tuple, in
    RisType order (R, T, H): what the crossing search, the condition table
    and the certificate evaluate."""
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


def hybrid_slope(split: float, key: tuple) -> float:
    """Analytic derivative in the split x of the hybrid rate of a
    crossing_key tuple: (phi(v) - phi(u)) / ln 2 at the hybrid shares
    (lambda, mu) of x, with phi(t) - 1 taken as f(t) / t (the naive
    ln t + 1/t - 1 cancels near t = 1 and can give the wrong sign)."""
    _, eps_r, eps_t, big_l = key
    lam, share = _type_curves(*key)[RisType.HYBRID][1](split)
    u = 1.0 + eps_r * lam / (2.0 * big_l)
    v = 1.0 + eps_t * share / (2.0 * big_l)
    return (_f_lemma(v) / v - _f_lemma(u) / u) / LN2


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


def _ab_root(first, second, lo: float, hi: float, flo: float,
             fhi: float) -> float | None:
    """Root of first(x) - second(x) on [lo, hi] to within ROOT_TOL / 2 by an
    Anderson-Bjorck search (BIT 13, 1973) from the difference's values flo
    at lo and fhi at hi: regula falsi that, when one end moves twice
    running, scales the value kept at the other by m = 1 - f(x) / f(moved
    end), or by 1/2 when m <= 0. A trial point not strictly inside the
    bracket becomes the midpoint, and past bisection's n = ceil(log2(width /
    ROOT_TOL)) steps the search bisects: at most 2 n steps. An exact zero at
    lo, hi or a trial point is returned as it is (lo first), and None when
    the end signs agree."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return None
    n = math.ceil(math.log2((hi - lo) / ROOT_TOL))
    moved = 0  # 1 when the last step moved hi, -1 when it moved lo
    for step in range(2 * n):
        if hi - lo <= ROOT_TOL:
            break
        x = (fhi * lo - flo * hi) / (fhi - flo)  # regula falsi
        if step >= n or not lo < x < hi:  # past n steps, or rounded onto an end
            x = 0.5 * (lo + hi)
        fx = first(x) - second(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):  # x replaces hi
            m = 1.0 - fx / fhi if moved > 0 else 1.0
            hi, fhi, flo, moved = x, fx, flo * (m if m > 0.0 else 0.5), 1
        else:
            m = 1.0 - fx / flo if moved < 0 else 1.0
            lo, flo, fhi, moved = x, fx, fhi * (m if m > 0.0 else 0.5), -1
    return 0.5 * (lo + hi)


# The differences the search takes, as (name, first, second) with the curves
# indexed in RisType order (R, T, H).
_DIFFERENCES = (
    ("transmissive minus reflective", 1, 0),
    ("reflective minus hybrid", 0, 2),
    ("transmissive minus hybrid", 1, 2),
)


def crossing_key(cfg: ScenarioConfig, budget: LinkBudget) -> tuple:
    """The (S, eps_r, eps_t, L) tuple the crossings depend on; none of its
    entries moves along a user-split sweep."""
    panel = cfg.panel
    return (cfg.users_total, panel.radiation_reflect, panel.radiation_transmit,
            budget.link_constant)


def _unresolved(first: float, second: float) -> bool:
    """True when first - second is NaN or within RESOLVE_TOL of the two
    rates' size, so that its sign is rounding noise."""
    return not abs(first - second) > RESOLVE_TOL * (abs(first) + abs(second))


def _search(key: tuple):
    """(SelectionThresholds, gaps) of a crossing_key tuple (S >= 2), or the
    message naming a difference that is rounding noise at both ends of
    [1, S-1]. The gaps, which the condition table reads, are hybrid minus
    the common rate at the reflect/transmit crossing (None without one),
    hybrid minus reflective at split 1 and hybrid minus transmissive at S-1.

    Each crossing is found by _ab_root on the whole range [1, S-1], or
    reported absent when the difference, which is monotone, has one sign at
    both ends. An exact zero at split 1 or S-1 is the crossing. With S = 2
    both ends are split 1, whose own value decides: there only a NaN is
    unresolved.
    """
    curves = _curves(key)
    lo, hi = 1.0, float(key[0] - 1)
    at_lo, at_hi = [rate(lo) for rate in curves], [rate(hi) for rate in curves]
    roots = []
    for name, i, j in _DIFFERENCES:
        flo, fhi = at_lo[i] - at_lo[j], at_hi[i] - at_hi[j]
        if _unresolved(at_lo[i], at_lo[j]) and _unresolved(at_hi[i], at_hi[j]) \
                and (lo < hi or math.isnan(flo)):
            return (f"approximation regime violated: the {name} difference is "
                    f"rounding noise at both ends of the user split")
        roots.append(_ab_root(curves[i], curves[j], lo, hi, flo, fhi))
    split_rt, rate_eq, gap = roots[0], None, None
    if split_rt is not None:
        rate_eq = curves[0](split_rt)
        gap = curves[2](split_rt) - rate_eq
    return SelectionThresholds(*roots, rate_eq), (gap, at_lo[2] - at_lo[0],
                                                  at_hi[2] - at_hi[1])


def find_thresholds(cfg: ScenarioConfig, budget: LinkBudget) -> SelectionThresholds:
    """Locate the pairwise crossings of the three rate curves on [1, S-1]
    for cfg's one tuple. A difference that is rounding noise at both ends
    means the closed-form comparisons cannot be trusted:
    RegimeViolationError, carrying the regime report."""
    if cfg.users_total < 2:
        raise ValueError("threshold search needs at least two users")
    found = _search(crossing_key(cfg, budget))
    if isinstance(found, str):
        raise RegimeViolationError(found, regime=_regime_report(cfg, budget))
    return found[0]


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

    `optimal` is the table verdict; `brute_force_optimal` is the best_type
    of the three closed forms at the integer split."""

    optimal: RisType
    table_row: TableRow
    thresholds: SelectionThresholds
    regime: RegimeReport
    brute_force_optimal: RisType
    agrees: bool


def best_type(rates) -> RisType:
    """The type of the largest of `rates`, given in RisType order; of equal
    rates the first wins (reflective, then transmissive, then hybrid)."""
    return tuple(RisType)[max(range(3), key=rates.__getitem__)]


def brute_force_optimal(cfg: ScenarioConfig, budget: LinkBudget):
    """Directly compare the three closed forms at the configured split.

    Returns (best_type's winner, rates) with rates keyed by RisType.
    """
    x = float(cfg.users_transmission)
    rates = {t: rate(x) for t, (rate, _) in type_curves(cfg, budget).items()}
    return best_type(list(rates.values())), rates


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


def _decision(s_t: int, regime: RegimeReport, brute: RisType,
              found: tuple | None) -> SelectionDecision:
    """The condition table's verdict for one cell at user split s_t from its
    tuple's _search result (None at a boundary split), set against the
    brute-force verdict `brute`."""
    thresholds, gaps = found or (SelectionThresholds(None, None, None, None), None)
    if found is None:
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
        hyb_at_cross, hyb_low, hyb_high = gaps
        split_rt = thresholds.split_reflect_transmit
        split_rh = thresholds.split_reflect_hybrid
        split_th = thresholds.split_transmit_hybrid
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
    type. The crossings depend only on crossing_key's tuple, so each
    distinct tuple of the interior cells is searched once, and the
    condition table's hybrid gaps are read once per tuple. When one of a
    tuple's differences is rounding noise, each of its cells gets its own
    RegimeViolationError, carrying its own regime report. Otherwise the
    condition table is evaluated from the crossings; a failing regime
    report (or a missing reflect/transmit crossing) marks the table verdict
    advisory.
    """
    keys = [crossing_key(cfg, budget) if 0 < cfg.users_transmission < cfg.users_total
            else None for cfg, budget in zip(cfgs, budgets)]
    found = {key: _search(key) for key in dict.fromkeys(keys) if key is not None}
    results = []
    for cfg, regime, winner, key in zip(cfgs, regimes, winners, keys):
        if isinstance(hit := found.get(key), str):
            results.append((None, RegimeViolationError(hit, regime)))
        else:
            results.append((_decision(cfg.users_transmission, regime, winner, hit), None))
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
    """Evidence that the rate differences are strictly monotone: the slopes
    of both single-zone curves and of the two hybrid differences."""

    grid: np.ndarray
    transmit_slope: np.ndarray
    reflect_slope: np.ndarray
    reflect_hybrid_slope: np.ndarray
    transmit_hybrid_slope: np.ndarray
    max_relative_error: float
    lemma_min: float
    lemma_points: int


# The certificate's slopes, as (name, rising), in MonotonicityCertificate order
_SLOPES = (("transmissive", True), ("reflective", False),
           ("reflective minus hybrid", False), ("transmissive minus hybrid", True))


def monotonicity_certificate(cfg: ScenarioConfig,
                             budget: LinkBudget) -> MonotonicityCertificate:
    """Certify the analytic slopes against finite differences.

    Evaluates the analytic slopes of both single-zone curves
    (single_zone_slope) and of the reflective minus hybrid and transmissive
    minus hybrid differences (with hybrid_slope) on an interior grid of the
    continuous split. Asserts the transmissive and transmissive minus hybrid
    slopes are strictly positive and the other two strictly negative, then
    cross-checks each against a central finite difference (relative error
    at most 1e-6 at step 1e-6). Also samples f(x) = x (ln x - 1) + 1 over
    (1, 1e6] and checks positivity. Violations raise CertificateError
    naming the grid point.
    """
    if cfg.users_total < 3:
        raise ValueError("certificate needs at least three users")
    key = crossing_key(cfg, budget)
    s, eps_r, eps_t, big_l = key
    curves = _curves(key)

    grid = np.linspace(1.0, s - 1.0, CERTIFICATE_POINTS + 2)[1:-1]
    slopes = np.empty((len(_SLOPES), grid.size))
    worst = 0.0
    for i, x in enumerate(grid):
        fd_r, fd_t, fd_h = [(rate(x + FD_STEP) - rate(x - FD_STEP)) / (2.0 * FD_STEP)
                            for rate in curves]
        ct = single_zone_slope(x, eps_t, big_l)
        cr = -single_zone_slope(s - x, eps_r, big_l)
        ch = hybrid_slope(x, key)
        analytic = (ct, cr, cr - ch, ct - ch)
        for (name, rising), slope in zip(_SLOPES, analytic):
            if not (slope > 0.0 if rising else slope < 0.0):
                raise CertificateError(f"{name} slope not "
                                       f"{'positive' if rising else 'negative'} "
                                       f"at split {x:.6f}")
        errors = [abs(fd - slope) / abs(slope) for fd, slope in
                  zip((fd_t, fd_r, fd_r - fd_h, fd_t - fd_h), analytic)]
        worst = max(worst, *errors)
        if max(errors) > 1e-6:
            raise CertificateError(
                f"analytic slope disagrees with finite difference at split {x:.6f} "
                f"(errors {', '.join(f'{e:.3e}' for e in errors)})"
            )
        slopes[:, i] = analytic

    lemma_xs = 1.0 + np.logspace(-9.0, math.log10(1e6 - 1.0), 300)
    lemma_vals = np.array([_f_lemma(float(x)) for x in lemma_xs])
    bad = np.nonzero(lemma_vals <= 0.0)[0]
    if bad.size:
        raise CertificateError(
            f"lemma positivity fails at x = {float(lemma_xs[bad[0]])!r}")

    return MonotonicityCertificate(grid, *slopes, max_relative_error=worst,
                                   lemma_min=float(lemma_vals.min()),
                                   lemma_points=len(lemma_xs))


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
