"""Batch front-end: single evaluations, parameter sweeps, figure presets.

Every deployment goes through one evaluator, `_evaluate_cells`, which takes
all cells of a sweep at once; a single evaluation is a one-cell sweep. Link
budgets, closed forms and diagnostics are per cell, and the decisions are
one `selection.decide_types` call. The averaged SNR of every (cell, type,
user) is one block, and the bounds, the regime's minimum served SNR and the
Monte Carlo estimates are one array pass each over it. These equal the
per-vector functions' results bit for bit: numpy rounds each elementwise
operation alike whatever the array's shape, and sums a row of a block along
its contiguous last axis exactly as it sums the row alone. The evaluator
returns every cell or raises the first failure in cell order. `run_evaluate`
serializes the cell to evaluate.json, and `run_sweep` the cells to CSV rows
once every sweep has run, so a failing run writes no file. A preset is a
list of sweeps, each run under (axis, value) settings that
`apply_axis_value` applies like sweep values.

Exit codes: 0 success, 1 ingestion/validation failure (including a link
budget that over- or underflows a float), 2 regime or geometry diagnostic
failure under --strict. Sweep CSVs are bit-identical across runs
for a fixed (scenario, spec, seed); the Monte Carlo cell at axis index a
draws all its trials from the one generator (base_seed, a), and its three
types share each trial's fading draw. A single evaluation is axis 0 of the
same scheme, seeded with (seed, 0). Every key has two words, and seeds must
lie in [0, 2**32) so each is one SeedSequence word and no two keys alias.
Fading is always Gaussian here, so Monte Carlo is
capacity.monte_carlo_capacity, the exact Gamma row-power sampler (recorded
as "aggregate" in evaluate.json).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .capacity import (
    CapacityReport,
    average_snr_block,
    ergodic_rate_exact,
    monte_carlo_capacity,
    type_curves,
    upper_bound,
)
from .channel import DegenerateGeometryError, LinkBudget, link_budget
from .scenario import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValidationError,
    RegimeReport,
    RisType,
    ScenarioConfig,
    config_digest,
    dbm_to_watts,
    _iter_config_lines,
    _parse_number,
    approximation_regime,
    load_scenario,
    min_served_snr,
)
from .selection import (
    AsymptoticDiagnostics,
    RegimeViolationError,
    SelectionDecision,
    asymptotic_checks,
    best_type,
    decide_types,
)

SEED_ENV_VAR = "RIS_SELECT_SEED"
SEED_LIMIT = 2 ** 32
DEFAULT_TRIALS = 100
SWEEP_AXES = ("transmit_power_dbm", "users_transmission", "ris_rows_cols", "distances")
INTEGER_AXES = ("users_transmission", "ris_rows_cols")
SWEEP_OUTPUTS = ("closed_form", "upper_bound", "monte_carlo", "decision", "diagnostics")
CSV_HEADER = "axis_value,type,closed_form,upper_bound,mc_mean,mc_stderr,decision,agrees"
DIAGNOSTICS_HEADER = ("axis_value,element_count_scale,reflect_exponent,"
                      "transmit_exponent,element_count_threshold,element_count,"
                      "hybrid_favored,log_pattern_term,mismatch_term,"
                      "hybrid_vs_transmit_approx")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis with its values and requested outputs."""

    axis: str
    values: tuple
    trials: int
    base_seed: int
    outputs: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {', '.join(SWEEP_AXES)}; "
                              f"got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if self.axis in INTEGER_AXES:
            for value in self.values:
                if not float(value).is_integer():
                    raise ConfigError(f"{self.axis} values must be whole numbers; "
                                      f"got {value!r}")
        unknown = [o for o in self.outputs if o not in SWEEP_OUTPUTS]
        if unknown:
            raise ConfigError(f"unknown sweep outputs: {', '.join(unknown)}")
        if "monte_carlo" in self.outputs and self.trials < 1:
            raise ConfigError("trials must be >= 1 when monte_carlo is requested")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative; got {self.base_seed}")
        if self.base_seed >= SEED_LIMIT:
            raise ConfigError(f"base_seed must be below 2**32; got {self.base_seed}")


@dataclass(frozen=True)
class SweepVariant:
    """A named sweep plus the (axis, value) settings of the scenario it runs
    under, each applied with apply_axis_value before the sweep."""

    name: str
    settings: tuple
    spec: SweepSpec


def parse_sweep_spec(text: str, trials: int | None = None,
                     base_seed: int | None = None) -> SweepSpec:
    """Parse a sweep-spec file (same key = value format as scenarios)."""
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, key, value in _iter_config_lines(text):
        if key in entries:
            raise ConfigSyntaxError(f"line {lineno}: duplicate key {key!r}")
        entries[key], lines[key] = value, lineno
    known = {"axis", "values", "trials", "base_seed", "outputs"}
    unknown = set(entries) - known
    if unknown:
        raise ConfigSyntaxError(f"unknown sweep keys: {', '.join(sorted(unknown))}")
    for required in ("axis", "values"):
        if required not in entries:
            raise ConfigError(f"sweep spec missing required key {required!r}")

    def whole(key, default):
        return _parse_number(lines[key], key, entries[key], True) if key in entries else default

    values = tuple(_parse_number(lines["values"], "values", v.strip(), want_int=False)
                   for v in entries["values"].split(",") if v.strip())
    outputs = tuple(
        o.strip() for o in entries.get(
            "outputs", "closed_form,upper_bound,monte_carlo,decision").split(",")
        if o.strip()
    )
    return SweepSpec(
        axis=entries["axis"],
        values=values,
        trials=trials if trials is not None else whole("trials", DEFAULT_TRIALS),
        base_seed=base_seed if base_seed is not None else whole("base_seed", 0),
        outputs=outputs,
    )


# --- scenario rewrites -----------------------------------------------------------

def apply_axis_value(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """`cfg` with one sweep axis at `value`; a resized panel keeps its
    constant phase grids. A grid is constant when no entry differs from its
    first (one comparison pass; np.unique would sort it and load numpy.ma)."""
    if axis == "transmit_power_dbm":
        return replace(cfg, transmit_power=dbm_to_watts(value))
    if axis == "users_transmission":
        return replace(cfg, users_transmission=int(value))
    if axis == "ris_rows_cols":
        side, panel, phases = int(value), cfg.panel, {}
        for name in ("phase_reflect", "phase_transmit"):
            grid = getattr(panel, name)
            if (grid != grid.flat[0]).any():
                raise ConfigError("cannot resize a panel with a non-constant "
                                  f"{name} grid")
            phases[name] = grid.flat[0]
        return replace(cfg, panel=replace(panel, rows=side, cols=side, **phases))
    if axis == "distances":
        return replace(cfg, bs_ris_distance=float(value), ris_ue_distance=float(value))
    raise ConfigError(f"unknown sweep axis {axis!r}")


# The built-in figure datasets: name -> (axis, values, outputs, sweeps), each
# sweep a (name, settings) pair; the sweeps of a preset share one spec.
_SPLIT = ("users_transmission", tuple(float(v) for v in range(1, 10)),
          ("closed_form", "upper_bound", "decision"))
PRESETS = {
    "fig2a": ("transmit_power_dbm", tuple(float(p) for p in range(20, 51, 2)),
              ("closed_form", "upper_bound", "monte_carlo", "decision"),
              [("fig2a", (("users_transmission", 7), ("ris_rows_cols", 50),
                          ("distances", 50)))]),
    "fig2b": (*_SPLIT, [(f"fig2b_d{d}", (("ris_rows_cols", 100), ("distances", d)))
                        for d in (50, 100, 200)]),
    "fig2c": (*_SPLIT, [(f"fig2c_mn{m}", (("ris_rows_cols", m), ("distances", 100)))
                        for m in (50, 100, 150)]),
}


def preset_variants(name: str, trials: int, base_seed: int) -> list[SweepVariant]:
    """The sweeps of the built-in preset `name`."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    axis, values, outputs, sweeps = PRESETS[name]
    spec = SweepSpec(axis, values, trials, base_seed, outputs)
    return [SweepVariant(sweep, settings, spec) for sweep, settings in sweeps]


# --- serialization helpers --------------------------------------------------------

def _jsonable(obj):
    """A result dataclass as nested dicts, with each RisType as its value. A
    frozen dataclass's instance dict holds its fields in field order."""
    if hasattr(type(obj), "__dataclass_fields__"):
        return {name: _jsonable(value) for name, value in vars(obj).items()}
    return obj.value if isinstance(obj, RisType) else obj


def _fmt(value) -> str:
    """Locale-free cell formatting: 12 significant digits, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _threshold_text(thresholds) -> str:
    def one(v):
        return "-" if v is None else f"{v:.4f}"

    return (f"splits R|T={one(thresholds.split_reflect_transmit)} "
            f"R|H={one(thresholds.split_reflect_hybrid)} "
            f"T|H={one(thresholds.split_transmit_hybrid)}")


# --- the evaluator -------------------------------------------------------------------

# What a single evaluation computes; a sweep computes what its spec's outputs ask.
EVALUATE_OUTPUTS = ("monte_carlo", "exact", "decision", "diagnostics")
_TYPES = tuple(RisType)
_LETTERS = tuple(t.letter for t in _TYPES)
_HYBRID_INDEX = _TYPES.index(RisType.HYBRID)
_NONES, _BLANKS = (None,) * len(_TYPES), ("",) * len(_TYPES)
# The outputs that fill a sweep CSV's closed-form, bound, mean and stderr columns
_RATE_OUTPUTS = ("closed_form", "upper_bound", "monte_carlo", "monte_carlo")


class _Cell(NamedTuple):
    """Every number one deployment yields; the serializers pick theirs.

    `rows` holds the closed forms, bounds, Monte Carlo means and stderrs and
    exact rates, per-type rows in RisType order; the last three are None,
    and `trials` 0, unless asked for. `violation` holds a broken table's
    RegimeViolationError in place of `decision`; `winner` is the brute-force
    verdict either way. A tuple: a third of a frozen dataclass's build time.
    """

    budget: LinkBudget
    regime: RegimeReport
    rows: tuple
    trials: int
    decision: SelectionDecision | None
    violation: RegimeViolationError | None
    winner: RisType | None
    diagnostics: AsymptoticDiagnostics | None

    @property
    def reports(self) -> dict:
        """Each type's CapacityReport, built from `rows`, keyed by type."""
        return {t: CapacityReport(closed, bound, mean, stderr, self.trials, t, exact)
                for t, closed, bound, mean, stderr, exact in zip(_TYPES, *self.rows)}


def _evaluate_cells(cfgs, outputs, trials: int, seed: int, strict: bool):
    """Evaluate the cells of one sweep, deriving each number once.

    `cfgs` is an iterable of deployments sharing users_total. Returns every
    cell, or raises the first failure in cell order: a cell that `strict`
    rejects (_strict_failure), a ConfigError or DegenerateGeometryError from
    building a config or its link budget, or a ConfigValidationError for a
    cell whose averaged SNR, closed forms, bounds, estimates or diagnostics
    are not finite. Too many users or trials to allocate fails before any
    cell. Cell a's one Monte Carlo generator is (seed, a), and its types
    share each trial's draw. The decisions are one decide_types call over
    the finite cells. A cell's CapacityReports are built when they are read.
    """
    staged, error = [], None
    try:
        for cfg in cfgs:
            staged.append((cfg, link_budget(cfg)))
    except (ConfigError, DegenerateGeometryError) as exc:
        error = exc
    if not staged:
        raise error
    cfgs, budgets = zip(*staged)

    monte_carlo, exact = "monte_carlo" in outputs, "exact" in outputs
    # Out-of-range numbers come out inf or NaN; their cells are rejected
    # below, so numpy's warnings about them would only repeat the error.
    with np.errstate(over="ignore", invalid="ignore"):
        snr = average_snr_block(cfgs, budgets)
        closed = np.array([[rate(cfg.users_transmission)
                            for rate, _ in type_curves(cfg, budget).values()]
                           for cfg, budget in staged])
        bounds = upper_bound(snr)
        blocks = [snr, closed, bounds]
        if monte_carlo:
            antennas = np.array([cfg.bs_antennas for cfg in cfgs])
            means, stderrs = monte_carlo_capacity(snr, antennas, trials, seed)
            blocks += [means, stderrs]
        if exact:
            exact_rates = np.array([ergodic_rate_exact(rows, cfg.bs_antennas)
                                    for cfg, rows in zip(cfgs, snr)])
            blocks.append(exact_rates)
    diagnostics = [asymptotic_checks(cfg, budget)
                   if "diagnostics" in outputs and 0 < cfg.users_transmission
                   < cfg.users_total else None for cfg, budget in staged]
    finite = np.isfinite(np.concatenate(
        [block.reshape(len(staged), -1) for block in blocks], axis=1)).all(axis=1)
    finite &= [diag is None or all(map(math.isfinite, vars(diag).values()))
               for diag in diagnostics]
    bad = np.flatnonzero(~finite)
    if bad.size:
        staged = staged[:bad[0]]
        error = ConfigValidationError(
            f"results out of floating-point range: the averaged SNR, a rate, "
            f"an estimate or a diagnostic is not finite (link constant "
            f"{budgets[bad[0]].link_constant:.4g}); check the powers, the noise "
            f"and the radiation constants")
    n = len(staged)
    closed, bounds, nones = closed.tolist(), bounds.tolist(), [_NONES] * n
    means, stderrs = (means.tolist(), stderrs.tolist()) if monte_carlo else (nones, nones)
    exact_rates = exact_rates.tolist() if exact else nones
    min_snr = min_served_snr(snr[:n, _HYBRID_INDEX]).tolist()
    regimes = [approximation_regime(cfg, m) for cfg, m in zip(cfgs, min_snr)]
    winners, decisions = [None] * n, [(None, None)] * n
    if "decision" in outputs:
        # the closed forms' argmax, as brute_force_optimal takes it
        winners = [best_type(row) for row in closed[:n]]
        decisions = decide_types(cfgs[:n], budgets[:n], regimes, winners)
    cells, trials = [], trials if monte_carlo else 0
    for a, rows in enumerate(zip(closed[:n], bounds, means, stderrs, exact_rates)):
        cell = _Cell(budgets[a], regimes[a], rows, trials, *decisions[a], winners[a],
                     diagnostics[a])
        if strict and (failure := _strict_failure(cell)) is not None:
            raise failure
        cells.append(cell)
    if error is not None:
        raise error
    return cells


def _error_exit(exc: Exception, strict: bool) -> int:
    """The exit code of a failure: 2 for a geometry or regime diagnostic
    under --strict, 1 for everything else."""
    diagnostic = isinstance(exc, (DegenerateGeometryError, RegimeViolationError))
    return 2 if strict and diagnostic else 1


def _strict_failure(cell: _Cell) -> RegimeViolationError | None:
    """Why --strict rejects a cell: a failing regime report, else a broken
    condition table; None when neither applies."""
    regime = cell.regime
    if not regime.ok:
        return RegimeViolationError(
            f"approximation regime check failed (isotropy ratio "
            f"{regime.isotropy_ratio:.4g}, min received SNR "
            f"{regime.min_received_snr:.4g})", regime)
    return cell.violation


def _fail(message) -> int:
    """Print the one line `error: <message>` to stderr; return exit code 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load(scenario_path: Path) -> ScenarioConfig | None:
    """Load the scenario file, or print one error line and return None."""
    try:
        return load_scenario(scenario_path)
    except OSError:
        print(f"error: cannot read scenario file {scenario_path}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"error: scenario file {scenario_path} is not UTF-8 text", file=sys.stderr)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


# --- single evaluation: evaluate.json -----------------------------------------------

def run_evaluate(scenario_path: Path, out_dir: Path, trials: int, seed: int,
                 strict: bool) -> int:
    """Evaluate all three types on one scenario and write evaluate.json."""
    cfg = _load(scenario_path)
    if cfg is None:
        return 1
    try:
        cell, = _evaluate_cells([cfg], EVALUATE_OUTPUTS, trials, seed, strict)
    except (ConfigError, DegenerateGeometryError, RegimeViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_exit(exc, strict)

    reports = cell.reports
    record = {
        "scenario_digest": config_digest(cfg),
        "scenario_file": str(scenario_path),
        "trials": trials,
        "seed": seed,
        "sampler": "aggregate",
        "link_budget": _jsonable(cell.budget),
        "regime": _jsonable(cell.regime),
        "capacity": {t.value: _jsonable(report) for t, report in reports.items()},
    }
    decision = cell.decision
    if decision is not None:
        record["selection"] = _jsonable(decision)
        note = f"table={decision.optimal.value}, agrees={'yes' if decision.agrees else 'no'}"
        splits = " " + _threshold_text(decision.thresholds)
    else:
        record["selection"] = {
            "error": str(cell.violation),
            "brute_force_optimal": cell.winner.value,
            "rates": {t.value: report.closed_form for t, report in reports.items()},
        }
        note, splits = f"table unavailable: {cell.violation}", ""
    if cell.diagnostics is not None:
        record["diagnostics"] = _jsonable(cell.diagnostics)

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "evaluate.json"
        out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write results to {out_dir}: {exc}")

    rates_text = " ".join(
        f"{t.letter}={report.closed_form:.3f}" for t, report in reports.items())
    print(f"optimal={cell.winner.value} ({note}) rates[b/s/Hz]: {rates_text}{splits}")
    return 0


# --- sweeps: one CSV row per (axis value, type) ----------------------------------------

def _diagnostics_row(value, diag) -> str:
    if diag is None:  # single-zone splits carry no crossover diagnostics
        return ",".join([_fmt(value)] + [""] * 9)
    return ",".join(_fmt(x) for x in (
        value, diag.element_count_scale, diag.reflect_exponent,
        diag.transmit_exponent, diag.element_count_threshold,
        diag.element_count, diag.hybrid_favored, diag.log_pattern_term,
        diag.mismatch_term, diag.hybrid_vs_transmit_approx))


def _sweep_rows(cfg: ScenarioConfig, spec: SweepSpec, strict: bool):
    rows, diagnostics_rows = [], []
    wanted = [name in spec.outputs for name in _RATE_OUTPUTS]
    cells = _evaluate_cells(
        (apply_axis_value(cfg, spec.axis, value) for value in spec.values), spec.outputs,
        spec.trials, spec.base_seed, strict)
    for value, cell in zip(spec.values, cells):
        head = _fmt(value)
        tail = (f"{cell.winner.letter if cell.winner is not None else ''},"
                f"{_fmt(cell.decision.agrees if cell.decision is not None else None)}")
        # each float as _fmt writes it, the column blank when not wanted
        columns = [[f"{x:.12g}" for x in row] if want else _BLANKS
                   for row, want in zip(cell.rows, wanted)]
        rows += [f"{head},{letter},{closed},{bound},{mean},{stderr},{tail}"
                 for letter, closed, bound, mean, stderr in zip(_LETTERS, *columns)]
        if "diagnostics" in spec.outputs:
            diagnostics_rows.append(_diagnostics_row(value, cell.diagnostics))
    return rows, diagnostics_rows


def run_sweep(scenario_path: Path, variants: list[SweepVariant], out_dir: Path,
              strict: bool) -> int:
    """Run one or more sweep variants and write one CSV per variant."""
    cfg = _load(scenario_path)
    if cfg is None:
        return 1

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output dir {out_dir}: {exc}")

    files = []  # every variant is evaluated before any file is written
    for variant in variants:
        try:
            base_cfg = cfg
            for axis, value in variant.settings:
                base_cfg = apply_axis_value(base_cfg, axis, value)
            rows, diagnostics_rows = _sweep_rows(base_cfg, variant.spec, strict)
        except (ConfigError, DegenerateGeometryError, RegimeViolationError) as exc:
            print(f"error [{variant.name}]: {exc}", file=sys.stderr)
            return _error_exit(exc, strict)
        files.append((out_dir / f"{variant.name}.csv", CSV_HEADER, rows))
        if diagnostics_rows:
            files.append((out_dir / f"{variant.name}_diagnostics.csv",
                          DIAGNOSTICS_HEADER, diagnostics_rows))
    for csv_path, header, body in files:
        try:
            csv_path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {csv_path}: {exc}")
        print(f"wrote {csv_path} ({len(body)} rows)")
    return 0


# --- entry point ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-select",
        description="Evaluate sum rates and pick the best surface type for a "
                    "deployment; optionally sweep one parameter axis to CSV.",
    )
    parser.add_argument("--scenario", required=True, type=Path,
                        help="scenario config file (key = value text)")
    parser.add_argument("--sweep", type=Path,
                        help="sweep spec file; runs a sweep instead of a single evaluation")
    parser.add_argument("--preset", choices=tuple(PRESETS),
                        help="built-in sweep preset")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--trials", type=int, default=None,
                        help=f"Monte Carlo trials per cell (default {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 on regime or geometry diagnostics")
    return parser


# Built on the first main() call rather than at import; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run the CLI and return its exit code. The warnings that the active
    filters let through are printed after a successful run, one `warning:
    <message>` line per distinct message; a failing run prints its one
    error line alone."""
    args = _parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        code = _run(args)
    if code == 0:
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    if args.sweep is not None and args.preset is not None:
        return _fail("pass either --sweep or --preset, not both")

    # seed precedence: --seed flag, then the env fallback, then any sweep-file
    # default, then 0
    seed_override = args.seed
    if seed_override is None and SEED_ENV_VAR in os.environ:
        try:
            seed_override = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            return _fail(f"{SEED_ENV_VAR} must be an integer")
    if seed_override is not None and not 0 <= seed_override < SEED_LIMIT:
        source = "--seed" if args.seed is not None else SEED_ENV_VAR
        rule = "be non-negative" if seed_override < 0 else "be below 2**32"
        return _fail(f"{source} must {rule}; got {seed_override}")
    seed = seed_override if seed_override is not None else 0
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS

    if args.preset is not None:
        try:
            variants = preset_variants(args.preset, trials, seed)
        except ConfigError as exc:
            return _fail(exc)
        return run_sweep(args.scenario, variants, args.out, args.strict)

    if args.sweep is not None:
        try:
            text = Path(args.sweep).read_text(encoding="utf-8")
        except OSError:
            return _fail(f"cannot read sweep spec {args.sweep}")
        except UnicodeDecodeError:
            return _fail(f"sweep spec {args.sweep} is not UTF-8 text")
        try:
            spec = parse_sweep_spec(text, trials=args.trials, base_seed=seed_override)
        except (ConfigError, ValueError) as exc:
            return _fail(exc)
        variant = SweepVariant(Path(args.sweep).stem, (), spec)
        return run_sweep(args.scenario, [variant], args.out, args.strict)

    if trials < 1:
        return _fail(f"--trials must be at least 1; got {trials}")
    return run_evaluate(args.scenario, args.out, trials, seed, args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
