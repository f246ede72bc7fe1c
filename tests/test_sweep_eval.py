"""The sweep evaluator: golden split sweeps, and per-cell reports that equal
the scalar rate functions bit for bit."""

import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    hybrid_curve_as_reflective,
    make_config,
    random_config,
    regime_report,
    scenario_text,
)
from ris_select import (
    RegimeViolationError,
    RisType,
    allocate_power,
    asymptotic_checks,
    average_snr,
    brute_force_optimal,
    closed_form_rate,
    decide_type,
    ergodic_rate_exact,
    link_budget,
    monte_carlo_capacity,
    upper_bound,
)
from ris_select import cli, selection

GOLDEN = Path(__file__).parent / "data"
SPLIT_DEPLOYMENTS = 20
SPLIT_TRIALS = 3
ALL_OUTPUTS = ("closed_form", "upper_bound", "monte_carlo", "exact", "decision",
               "diagnostics")


def split_sweep_outputs(work: Path):
    """Sweep 20 random_config deployments over every split 0..S through
    cli.main (3 trials, seed = deployment index) and return the joined
    sweep CSVs and diagnostics CSVs."""
    rng = np.random.default_rng(77)
    out = work / "out"
    csvs, diagnostics = [], []
    for index in range(SPLIT_DEPLOYMENTS):
        cfg = random_config(rng)
        scenario = work / f"dep{index:02d}.cfg"
        scenario.write_text(scenario_text(cfg), encoding="utf-8")
        sweep = work / f"split{index:02d}.cfg"
        splits = ", ".join(str(s) for s in range(cfg.users_total + 1))
        sweep.write_text("axis = users_transmission\n"
                         f"values = {splits}\n"
                         "outputs = closed_form, upper_bound, monte_carlo, decision, "
                         "diagnostics\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["--scenario", str(scenario), "--sweep", str(sweep),
                             "--out", str(out), "--trials", str(SPLIT_TRIALS),
                             "--seed", str(index)]) == 0
        csvs.append((out / f"split{index:02d}.csv").read_text(encoding="utf-8"))
        diagnostics.append((out / f"split{index:02d}_diagnostics.csv")
                           .read_text(encoding="utf-8"))
    return "".join(csvs), "".join(diagnostics)


def test_split_sweeps_match_golden_files(tmp_path):
    csv, diagnostics = split_sweep_outputs(tmp_path)
    assert csv == (GOLDEN / "split_sweeps.csv").read_text(encoding="utf-8")
    assert diagnostics == (GOLDEN / "split_sweeps_diagnostics.csv").read_text(
        encoding="utf-8")


def _evaluate(cfgs, outputs, trials, seed):
    """The sweep evaluator's cells for `cfgs` under base seed `seed`."""
    return cli._evaluate_cells(cfgs, outputs, trials, seed, False)


def _axis_values(rng, cfg, axis):
    s = cfg.users_total
    if axis == "transmit_power_dbm":
        values = rng.uniform(0.0, 60.0, size=int(rng.integers(1, 6)))
    elif axis == "users_transmission":
        inner = rng.permutation(np.arange(1, s))[:int(rng.integers(0, 4))]
        values = np.concatenate([[0, s], inner])  # both boundary splits
    elif axis == "ris_rows_cols":
        values = rng.integers(1, 60, size=int(rng.integers(1, 5)))
    else:
        offset = abs(cfg.bs_height - cfg.ris_height)
        values = offset + rng.uniform(0.5, 400.0, size=int(rng.integers(1, 5)))
    return tuple(sorted({float(v) for v in values}))


def test_sweep_reports_equal_the_scalar_functions():
    # every axis, S = 1..30, boundary splits 0 and S; Monte Carlo and the
    # exact rate on alternate sweeps
    rng = np.random.default_rng(314)
    sweeps = boundary_cells = 0
    for s in range(1, 31):
        cfg = random_config(rng)
        cfg = replace(cfg, users_total=s,
                      users_transmission=int(rng.integers(0, s + 1)))
        for axis in cli.SWEEP_AXES:
            values = _axis_values(rng, cfg, axis)
            cfgs = [cli.apply_axis_value(cfg, axis, v) for v in values]
            with_mc = sweeps % 2 == 0
            outputs = ALL_OUTPUTS if with_mc else ("closed_form", "decision")
            trials = int(rng.integers(1, 5))
            seed = int(rng.integers(0, 2 ** 32))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cells = _evaluate(cfgs, outputs, trials, seed)
            sweeps += 1

            expected_warnings = []
            assert len(cells) == len(cfgs)
            for a, (cell_cfg, cell) in enumerate(zip(cfgs, cells)):
                budget = link_budget(cell_cfg)
                assert cell.budget == budget
                assert cell.regime == regime_report(cell_cfg)
                s_t = cell_cfg.users_transmission
                if s_t == 0:
                    expected_warnings.append("transmissive surface with an empty "
                                             "transmission zone")
                elif s_t == s:
                    expected_warnings.append("reflective surface with an empty "
                                             "reflection zone")
                boundary_cells += s_t in (0, s)
                for i, ris_type in enumerate(RisType):
                    report = cell.reports[ris_type]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        alloc = allocate_power(cell_cfg, ris_type, budget)
                    snr = average_snr(cell_cfg, ris_type, alloc, budget)
                    k = cell_cfg.bs_antennas
                    assert report.ris_type is ris_type
                    assert report.closed_form == closed_form_rate(cell_cfg, ris_type,
                                                                  budget)
                    assert report.upper_bound == upper_bound(snr)
                    if with_mc:
                        assert (report.monte_carlo_mean, report.monte_carlo_stderr) \
                            == monte_carlo_capacity(snr, k, trials, (seed, a))
                        assert report.trials == trials
                        assert report.ergodic_exact == ergodic_rate_exact(snr, k)
                    else:
                        assert report.monte_carlo_mean is None
                        assert report.monte_carlo_stderr is None
                        assert report.trials == 0
                        assert report.ergodic_exact is None

                winner, _ = brute_force_optimal(cell_cfg, budget)
                assert cell.winner is winner
                try:
                    assert cell.decision == decide_type(cell_cfg, budget)
                    assert cell.violation is None
                except RegimeViolationError as exc:
                    assert cell.decision is None
                    assert str(cell.violation) == str(exc)
                if with_mc and 1 <= s_t <= s - 1:
                    assert cell.diagnostics == asymptotic_checks(cell_cfg, budget)
                else:
                    assert cell.diagnostics is None

            messages = [str(w.message) for w in caught]
            assert all(m.startswith("no served UEs: ") for m in messages), messages
            assert [m[len("no served UEs: "):] for m in messages] == expected_warnings
    assert sweeps == 120 and boundary_cells >= 60


def _spy(monkeypatch, name, calls):
    """Record each call of selection.<name> in `calls`, by name."""
    real = getattr(selection, name)

    def spy(*args):
        calls.append((name, args))
        return real(*args)

    monkeypatch.setattr(selection, name, spy)


@pytest.mark.filterwarnings("ignore:no served UEs")
def test_a_sweep_scans_each_crossing_tuple_once(monkeypatch):
    calls = []
    _spy(monkeypatch, "_search", calls)
    # a power sweep moves the link constant: one tuple per interior cell,
    # each searched once
    cfg = make_config()
    powers = [cli.apply_axis_value(cfg, "transmit_power_dbm", p)
              for p in range(20, 51, 2)]
    cells = _evaluate(powers + powers[:3], ("decision",), 1, 0)
    assert [name for name, _ in calls] == ["_search"] * 16
    for cell_cfg, cell, (_, (key,)) in zip(powers, cells, calls):
        budget = link_budget(cell_cfg)
        assert key == selection.crossing_key(cell_cfg, budget)
        assert cell.decision == decide_type(cell_cfg, budget)
    # a split sweep keeps it: one tuple, searched once; boundary splits none
    calls.clear()
    _evaluate([replace(cfg, users_transmission=x) for x in range(11)], ("decision",),
              1, 0)
    assert [name for name, _ in calls] == ["_search"]
    calls.clear()
    _evaluate([replace(cfg, users_transmission=x) for x in (0, 10)], ("decision",), 1, 0)
    assert calls == []


@pytest.mark.filterwarnings("ignore:no served UEs")
def test_a_violating_tuple_is_searched_once_per_sweep(monkeypatch):
    # two violating tuples (two powers) over every split: one search per
    # tuple, and still one violation object per interior cell, carrying the
    # regime report decide_types was given for that cell
    hybrid_curve_as_reflective(monkeypatch)
    calls = []
    _spy(monkeypatch, "_search", calls)
    cfgs = [cli.apply_axis_value(make_config(users_transmission=x),
                                 "transmit_power_dbm", p)
            for p in (30.0, 40.0) for x in range(11)]
    budgets = [link_budget(cfg) for cfg in cfgs]
    regimes = [regime_report(cfg) for cfg in cfgs]
    winners = [brute_force_optimal(cfg, budget)[0] for cfg, budget in zip(cfgs, budgets)]
    results = selection.decide_types(cfgs, budgets, regimes, winners)
    assert [name for name, _ in calls] == ["_search", "_search"]
    assert len(results) == 22
    violations = []
    for cfg, regime, (decision, violation) in zip(cfgs, regimes, results):
        if cfg.users_transmission in (0, 10):
            assert violation is None and decision.regime is regime
            continue
        assert decision is None and isinstance(violation, RegimeViolationError)
        assert violation.regime is regime
        violations.append(violation)
    assert len({id(v) for v in violations}) == len(violations) == 18
    assert len({str(v) for v in violations}) == 1


@pytest.mark.filterwarnings("ignore:no served UEs")
def test_a_violating_tuple_gives_each_interior_cell_its_own_violation(monkeypatch):
    hybrid_curve_as_reflective(monkeypatch)
    cfgs = [make_config(users_transmission=x) for x in range(11)]
    cells = _evaluate(cfgs, ("decision",), 1, 0)
    for cell in cells[::10]:  # boundary splits need no search
        assert cell.violation is None and cell.decision is not None
    interior = cells[1:-1]
    assert all(cell.decision is None for cell in interior)
    violations = [cell.violation for cell in interior]
    assert all(isinstance(v, RegimeViolationError) for v in violations)
    assert len({id(v) for v in violations}) == len(violations)  # none is shared
    for cfg, cell in zip(cfgs[1:-1], interior):
        assert cell.violation.regime == regime_report(cfg) == cell.regime
    # each report is the cell's own: they differ from split to split
    assert len({cell.violation.regime.min_received_snr for cell in interior}) > 1


def _fmt_rows(spec, cells):
    """A sweep's CSV rows with every field written by cli._fmt from the
    cells' reports, a field blank when its output was not asked for."""
    fmt, outputs, rows = cli._fmt, spec.outputs, []
    for value, cell in zip(spec.values, cells):
        letter = cell.winner.letter if cell.winner is not None else ""
        agrees = cell.decision.agrees if cell.decision is not None else None
        for ris_type, report in cell.reports.items():
            rows.append(",".join([
                fmt(value), ris_type.letter,
                fmt(report.closed_form if "closed_form" in outputs else None),
                fmt(report.upper_bound if "upper_bound" in outputs else None),
                fmt(report.monte_carlo_mean), fmt(report.monte_carlo_stderr),
                letter, fmt(agrees)]))
    return rows


def _rows_and_cells(cfg, spec):
    """cli._sweep_rows's rows for `spec` on `cfg`, checked against _fmt_rows
    of the evaluator's cells for the same sweep."""
    rows, _ = cli._sweep_rows(cfg, spec, False)
    cells = _evaluate([cli.apply_axis_value(cfg, spec.axis, v) for v in spec.values],
                      spec.outputs, spec.trials, spec.base_seed)
    assert rows == _fmt_rows(spec, cells)
    return rows, cells


@pytest.mark.filterwarnings("ignore:no served UEs")
def test_sweep_rows_equal_fmt_of_the_reports():
    # every subset of the outputs that fill CSV fields, with and without
    # diagnostics, on random sweeps along every axis (split sweeps include
    # both boundary splits)
    rng = np.random.default_rng(59)
    csv_outputs = ("closed_form", "upper_bound", "monte_carlo", "decision")
    blanks = 0
    for keep in itertools.product((False, True), repeat=len(csv_outputs)):
        outputs = tuple(o for o, k in zip(csv_outputs, keep) if k)
        for axis in cli.SWEEP_AXES:
            cfg = random_config(rng)
            diagnostics = ("diagnostics",) if rng.integers(2) else ()
            spec = cli.SweepSpec(axis, _axis_values(rng, cfg, axis),
                                 int(rng.integers(1, 4)), int(rng.integers(0, 2 ** 32)),
                                 outputs + diagnostics)
            rows, _ = _rows_and_cells(cfg, spec)
            blanks += sum(row.split(",").count("") for row in rows)
    assert blanks > 0


@pytest.mark.filterwarnings("ignore:no served UEs")
def test_sweep_rows_of_a_broken_table_equal_fmt_of_the_reports(monkeypatch):
    # interior splits break the condition table: no decision, so `agrees`
    # is blank while the brute-force letter stays; the boundary splits decide
    hybrid_curve_as_reflective(monkeypatch)
    spec = cli.SweepSpec("users_transmission", tuple(float(x) for x in range(11)), 2, 5,
                         ("closed_form", "upper_bound", "monte_carlo", "decision"))
    rows, cells = _rows_and_cells(make_config(), spec)
    for value, cell in zip(spec.values, cells):
        first = rows[3 * int(value)].split(",")
        if value in (0.0, 10.0):
            assert cell.decision is not None and first[-1] in ("true", "false")
        else:
            assert cell.violation is not None and first[-1] == ""
            assert first[-2] == cell.winner.letter

