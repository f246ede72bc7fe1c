"""Command-line front-end: evaluation records, sweeps, presets, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    REFERENCE_SCENARIO,
    REPO_ROOT,
    make_config,
    mc_tolerance,
    random_config,
)
from ris_select import (
    ConfigError,
    ConfigValidationError,
    RisType,
    allocate_power,
    average_snr,
    ergodic_rate_exact,
    link_budget,
    load_scenario,
)
from ris_select import capacity, cli, selection
from ris_select.cli import CSV_HEADER, main

GRAZING = """
bs_antennas = 2
bs_ris_distance_m = 15
ris_ue_distance_m = 50
bs_height_m = 30
ris_height_m = 15
users_total = 4
users_transmission = 2
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

SMALL_SWEEP = """
axis = users_transmission
values = 3, 5
trials = 4
base_seed = 11
outputs = closed_form, upper_bound, monte_carlo, decision
"""


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_evaluate_reference(tmp_path, capsys):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "10", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimal=hybrid" in out
    assert "splits" in out

    record = json.loads((tmp_path / "evaluate.json").read_text())
    assert record["trials"] == 10
    assert set(record["capacity"]) == {"reflective", "transmissive", "hybrid"}
    hybrid = record["capacity"]["hybrid"]
    assert hybrid["monte_carlo_mean"] <= hybrid["upper_bound"] \
        + 2.0 * hybrid["monte_carlo_stderr"]
    selection = record["selection"]
    assert selection["optimal"] == "hybrid"
    assert selection["brute_force_optimal"] == "hybrid"
    assert selection["agrees"] is True
    assert selection["thresholds"]["split_reflect_transmit"] == pytest.approx(
        5.032394081, abs=1e-6)


def test_evaluation_computes_each_types_snr_once(tmp_path, monkeypatch):
    # the bound, the exact rate, the Monte Carlo scale and the regime check
    # of a cell all read one averaged-SNR vector per type: the evaluator
    # builds one (cells, types, users) block per run, and nothing computes
    # a type's vector again
    blocks, vectors = [], []

    def counted_block(cfgs, budgets):
        snr = capacity.average_snr_block(cfgs, budgets)
        blocks.append(snr.shape)
        return snr

    def counted(*args):
        vectors.append(args[1])
        return average_snr(*args)

    monkeypatch.setattr(cli, "average_snr_block", counted_block)
    for module in (capacity, selection):
        monkeypatch.setattr(module, "average_snr", counted)
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "10", "--seed", "3"])
    assert rc == 0
    assert blocks == [(1, len(RisType), 10)]
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(tmp_path)]) == 0
    assert blocks == [(1, len(RisType), 10), (2, len(RisType), 10)]
    assert vectors == []


def test_evaluate_missing_scenario(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    rc = main(["--scenario", str(missing), "--out", str(tmp_path)])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err


def test_evaluate_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GRAZING.replace("users_transmission = 2",
                                   "users_transmission = 9"))
    rc = main(["--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "users_transmission exceeds users_total" in capsys.readouterr().err


def test_grazing_geometry_exit_codes(tmp_path, capsys):
    scenario = tmp_path / "grazing.cfg"
    scenario.write_text(GRAZING)
    assert main(["--scenario", str(scenario), "--out", str(tmp_path),
                 "--strict"]) == 2
    assert main(["--scenario", str(scenario), "--out", str(tmp_path)]) == 1
    assert "grazing" in capsys.readouterr().err


def test_strict_flags_weak_regime(tmp_path, capsys):
    scenario = tmp_path / "weak.cfg"
    scenario.write_text(GRAZING.replace("bs_ris_distance_m = 15",
                                        "bs_ris_distance_m = 500")
                        .replace("transmit_power_dbm = 43",
                                 "transmit_power_dbm = 0"))
    rc = main(["--scenario", str(scenario), "--out", str(tmp_path), "--strict"])
    assert rc == 2
    assert "regime" in capsys.readouterr().err


def test_strict_regime_failure_exits_2_as_evaluation_and_as_sweep(tmp_path, capsys):
    # the reference deployment at -20 dBm: the regime report fails on the
    # received SNR floor, and --strict rejects it on either path
    weak = tmp_path / "weak.cfg"
    weak.write_text(REFERENCE_SCENARIO.read_text().replace(
        "transmit_power_dbm = 43", "transmit_power_dbm = -20"))
    spec = tmp_path / "point.cfg"
    spec.write_text("axis = users_transmission\nvalues = 7\n"
                    "outputs = closed_form, upper_bound, decision\n")
    evaluate = ["--scenario", str(weak), "--trials", "2"]
    sweep = ["--scenario", str(weak), "--sweep", str(spec)]
    for argv in (evaluate, sweep):
        assert main(argv + ["--out", str(tmp_path / "lenient")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "strict"), "--strict"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "approximation regime check failed" in err[0], err
        assert "min received SNR" in err[0]
    assert not (tmp_path / "strict").exists() or not any((tmp_path / "strict").iterdir())


def test_sweep_from_file(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    out = tmp_path / "results"
    trials = 400
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(out), "--trials", str(trials)])
    assert rc == 0
    rows = _rows(out / "sweep.csv")
    assert len(rows) == 6  # 2 axis points x 3 types
    assert [r[0] for r in rows] == ["3"] * 3 + ["5"] * 3
    assert [r[1] for r in rows] == ["R", "T", "H"] * 2
    base = load_scenario(REFERENCE_SCENARIO)
    tol = mc_tolerance(base, trials)
    for row in rows:
        assert row[6] in {"R", "T", "H"}
        assert row[7] in {"true", "false"}
        mc_mean, ub = float(row[4]), float(row[3])
        cell = replace(base, users_transmission=int(row[0]))
        ris_type = next(t for t in RisType if t.letter == row[1])
        budget = link_budget(cell)
        exact = ergodic_rate_exact(
            average_snr(cell, ris_type, allocate_power(cell, ris_type, budget), budget),
            cell.bs_antennas)
        assert abs(mc_mean - exact) <= tol
        assert mc_mean <= ub + tol


def test_sweep_csv_path_that_is_a_directory_gives_one_error_line(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    out = tmp_path / "out"
    (out / "sweep.csv").mkdir(parents=True)
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out)]) == 1
    assert _single_error_line(capsys).startswith(f"error: cannot write {out / 'sweep.csv'}")


def test_sweep_values_must_increase(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP.replace("values = 3, 5", "values = 5, 3"))
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_sweep_unknown_axis(tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP.replace("users_transmission", "users_total"))
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "axis" in capsys.readouterr().err


def test_sweep_and_preset_conflict(tmp_path, capsys):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", "x",
               "--preset", "fig2a", "--out", str(tmp_path)])
    assert rc == 1
    assert "not both" in capsys.readouterr().err


def test_unknown_preset_axis_and_resize_are_refused(tmp_path, capsys):
    # argparse's choices stop any other preset name before main runs
    with pytest.raises(SystemExit) as exited:
        main(["--scenario", str(REFERENCE_SCENARIO), "--preset", "fig9",
              "--out", str(tmp_path)])
    assert exited.value.code == 2
    assert "invalid choice: 'fig9'" in capsys.readouterr().err
    # the library functions refuse what they do not know on their own
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        cli.preset_variants("fig9", 10, 0)
    cfg = load_scenario(REFERENCE_SCENARIO)
    with pytest.raises(ConfigError, match="unknown sweep axis 'bogus'"):
        cli.apply_axis_value(cfg, "bogus", 1.0)
    # a graded grid, and one that differs from its first entry only at its last
    last_differs = np.full(9, 0.25)
    last_differs[-1] = 0.5
    for grid in (np.arange(9.0), last_differs):
        graded = make_config(rows=3, cols=3, phase_transmit=grid.reshape(3, 3))
        with pytest.raises(ConfigError, match="non-constant phase_transmit grid"):
            cli.apply_axis_value(graded, "ris_rows_cols", 4)
    # a constant grid's phase survives the resize bit for bit
    phase = 0.1 + 0.2
    constant = make_config(rows=3, cols=3, phase_reflect=phase, phase_transmit=-phase)
    resized = cli.apply_axis_value(constant, "ris_rows_cols", 4).panel
    assert resized.phase_reflect.shape == resized.phase_transmit.shape == (4, 4)
    assert {v.hex() for v in resized.phase_reflect.ravel().tolist()} == {phase.hex()}
    assert {v.hex() for v in resized.phase_transmit.ravel().tolist()} \
        == {(-phase).hex()}


def test_every_preset_setting_names_a_sweep_axis():
    # a preset is a list of sweeps, each run under (axis, value) settings
    # that apply_axis_value applies like sweep values
    (preset,) = [a for a in cli.build_parser()._actions if a.dest == "preset"]
    cfg = load_scenario(REFERENCE_SCENARIO)
    for name in preset.choices:
        for variant in cli.preset_variants(name, 10, 0):
            assert variant.settings
            for axis, value in variant.settings:
                assert axis in cli.SWEEP_AXES, (variant.name, axis)
                cfg = cli.apply_axis_value(cfg, axis, value)


def test_preset_fig2b_closed_form_dataset(tmp_path):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--preset", "fig2b",
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fig2b_d100.csv", "fig2b_d200.csv", "fig2b_d50.csv"]
    far = _rows(tmp_path / "fig2b_d200.csv")
    assert len(far) == 27  # 9 splits x 3 types
    # no Monte Carlo columns requested for the split sweeps
    assert all(row[4] == "" and row[5] == "" for row in far)
    # at 200 m the hybrid type is never the winner
    assert all(row[6] in {"R", "T"} for row in far)
    # single-zone rates move monotonically with the split
    reflective = [float(r[2]) for r in far if r[1] == "R"]
    transmissive = [float(r[2]) for r in far if r[1] == "T"]
    assert all(b < a for a, b in zip(reflective, reflective[1:]))
    assert all(b > a for a, b in zip(transmissive, transmissive[1:]))


def test_preset_fig2c_decision_pattern(tmp_path):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--preset", "fig2c",
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    rows = _rows(tmp_path / "fig2c_mn150.csv")
    decisions = [row[6] for row in rows if row[1] == "R"]
    # largest panel: hybrid wins the interior splits, single-zone types the edges
    assert decisions == ["R", "R", "H", "H", "H", "H", "H", "T", "T"]
    hybrid_rows = [row for row in rows if row[1] == "H"]
    for row, decision in zip(hybrid_rows, decisions):
        best = max(float(r[2]) for r in rows if r[0] == row[0])
        if decision == "H":
            assert float(row[2]) == best


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("preset", ["fig2b", "fig2c"])
def test_closed_form_presets_match_golden_files(tmp_path, preset):
    # the closed-form preset CSVs are a fixed function of the reference
    # scenario; tests/data holds them as recorded, and any change to a byte
    # of them is an output change that has to be made on purpose
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--preset", preset,
               "--out", str(tmp_path), "--seed", "7"])
    assert rc == 0
    golden = sorted(GOLDEN.glob(f"{preset}_*.csv"))
    assert [p.name for p in golden] == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(golden) == 3
    for path in golden:
        assert (tmp_path / path.name).read_text() == path.read_text(), path.name


def test_monte_carlo_outputs_match_golden_files(tmp_path, monkeypatch):
    # the fig2a preset and a single evaluation at --seed 7 --trials 100, as
    # recorded in tests/data. evaluate.json names the scenario path it was
    # given, so both run from the repository root with a relative path.
    monkeypatch.chdir(REPO_ROOT)
    common = ["--scenario", "scenarios/reference.cfg", "--out", str(tmp_path),
              "--seed", "7", "--trials", "100"]
    assert main(common + ["--preset", "fig2a"]) == 0
    assert main(common) == 0
    for name in ("fig2a.csv", "evaluate.json"):
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text(), name


def test_sweep_reproducibility_and_seed_sensitivity(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    outs = []
    for name, seed in (("a", "9"), ("b", "9"), ("c", "10")):
        out = tmp_path / name
        rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                   "--out", str(out), "--seed", seed])
        assert rc == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_env_seed_fallback(tmp_path, monkeypatch):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    out_env = tmp_path / "env"
    monkeypatch.setenv("RIS_SELECT_SEED", "21")
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("RIS_SELECT_SEED")
    out_flag = tmp_path / "flag"
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out_flag), "--seed", "21"]) == 0
    assert (out_env / "sweep.csv").read_bytes() == (out_flag / "sweep.csv").read_bytes()


def test_evaluate_record_has_diagnostics(tmp_path):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "2", "--seed", "1"])
    assert rc == 0
    record = json.loads((tmp_path / "evaluate.json").read_text())
    diag = record["diagnostics"]
    assert diag["element_count"] == 2500
    assert diag["element_count_threshold"] > 0
    # size-free link scale times the panel size reproduces the link constant
    assert diag["element_count_scale"] == pytest.approx(
        record["link_budget"]["link_constant"] * 2500, rel=1e-9)


def test_sweep_diagnostics_output(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP.replace(
        "outputs = closed_form, upper_bound, monte_carlo, decision",
        "outputs = closed_form, decision, diagnostics"))
    out = tmp_path / "diag"
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep_diagnostics.csv").read_text().splitlines()
    assert lines[0].startswith("axis_value,element_count_scale,")
    assert len(lines) == 3  # header + one row per axis value
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[5] == "2500"              # element count
        assert cells[6] in {"true", "false"}   # hybrid_favored flag
        assert float(cells[4]) > 0             # threshold


def test_diagnostics_columns_are_the_listed_fields(tmp_path):
    # users_transmission 0 and 10 are the single-zone splits of the
    # reference's 10 users; they carry no diagnostics, so a blank row
    spec = tmp_path / "sweep.cfg"
    spec.write_text("axis = users_transmission\nvalues = 0, 4, 7, 10\n"
                    "outputs = closed_form, diagnostics\n")
    out = tmp_path / "out"
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "sweep_diagnostics.csv").read_text().splitlines()]
    assert header == ["axis_value", *cli.DIAGNOSTICS_COLUMNS]
    names = {f.name for f in dataclasses.fields(selection.AsymptoticDiagnostics)}
    assert set(cli.DIAGNOSTICS_COLUMNS) <= names
    assert len(set(cli.DIAGNOSTICS_COLUMNS)) == len(cli.DIAGNOSTICS_COLUMNS)
    # the benchmark's diagnostics check counts 10 fields per row
    assert rows[0] == ["0"] + [""] * 9 and rows[3] == ["10"] + [""] * 9
    cfg = load_scenario(REFERENCE_SCENARIO)
    for split, row in zip((4, 7), rows[1:3]):
        split_cfg = cli.apply_axis_value(cfg, "users_transmission", split)
        diag = selection.asymptotic_checks(split_cfg, link_budget(split_cfg))
        assert row == [str(split)] + [cli._fmt(getattr(diag, name))
                                      for name in cli.DIAGNOSTICS_COLUMNS]


def test_evaluate_survives_threshold_breakdown(tmp_path, monkeypatch, capsys):
    # when the condition table cannot be built, the record still carries the
    # brute-force winner and the run succeeds unless --strict is set
    import ris_select.cli as cli
    from ris_select import RegimeViolationError

    def broken(cfgs, budgets, regimes, winners):
        return [(None, RegimeViolationError("approximation regime violated: stub",
                                            regime)) for regime in regimes]

    monkeypatch.setattr(cli, "decide_types", broken)
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "table unavailable" in out
    record = json.loads((tmp_path / "evaluate.json").read_text())
    assert record["selection"]["brute_force_optimal"] == "hybrid"
    assert "stub" in record["selection"]["error"]

    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "2", "--strict"])
    assert rc == 2


def test_sweep_survives_threshold_breakdown(tmp_path, monkeypatch):
    import ris_select.cli as cli
    from ris_select import RegimeViolationError

    def broken(cfgs, budgets, regimes, winners):
        return [(None, RegimeViolationError("approximation regime violated: stub",
                                            regime)) for regime in regimes]

    monkeypatch.setattr(cli, "decide_types", broken)
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    out = tmp_path / "fallback"
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(out)])
    assert rc == 0
    for row in _rows(out / "sweep.csv"):
        assert row[6] in {"R", "T", "H"}  # brute-force winner still reported
        assert row[7] == ""               # agreement unknown

    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(out), "--strict"])
    assert rc == 2


def test_strict_sweep_propagates_degenerate_geometry(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text("axis = distances\nvalues = 15, 50\n"
                    "outputs = closed_form, upper_bound, decision\n")
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(tmp_path / "a"), "--strict"])
    assert rc == 2
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
               "--out", str(tmp_path / "b")])
    assert rc == 1


def test_csv_numbers_are_locale_free(tmp_path):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    out = tmp_path / "fmt"
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert "," in text and ";" not in text
    for row in _rows(out / "sweep.csv"):
        for cell in (row[2], row[3], row[4]):
            assert " " not in cell
            float(cell)  # parses with the C locale


def test_evaluate_records_sampler_and_exact_rate(tmp_path):
    rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
               "--trials", "400", "--seed", "5"])
    assert rc == 0
    record = json.loads((tmp_path / "evaluate.json").read_text())
    assert record["sampler"] == "aggregate"
    for report in record["capacity"].values():
        exact = report["ergodic_exact"]
        assert exact < report["upper_bound"]
        assert abs(report["monte_carlo_mean"] - exact) \
            <= 3.0 * report["monte_carlo_stderr"]


@pytest.mark.parametrize("where", ["flag", "env", "sweep_file"])
def test_negative_seed_is_rejected(tmp_path, monkeypatch, capsys, where):
    argv = ["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path)]
    if where == "flag":
        argv += ["--seed", "-1"]
    elif where == "env":
        monkeypatch.setenv("RIS_SELECT_SEED", "-1")
    else:
        spec = tmp_path / "sweep.cfg"
        spec.write_text(SMALL_SWEEP.replace("base_seed = 11", "base_seed = -1"))
        argv += ["--sweep", str(spec)]
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-negative" in err[0]


def test_evaluate_rejects_zero_trials(tmp_path, capsys):
    # a single evaluation, and the one preset that runs Monte Carlo
    for extra in ([], ["--preset", "fig2a"]):
        out = tmp_path / "_".join(["out"] + extra)
        rc = main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(out),
                   "--trials", "0"] + extra)
        assert rc == 1, extra
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "trials" in err[0]
        assert not out.exists(), extra
    # fig2b runs no Monte Carlo, so its trial count is not checked
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path / "b"),
                 "--trials", "0", "--preset", "fig2b"]) == 0


def _single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error"), err
    return err[0]


def _run_cli_process(*argv) -> tuple:
    """(exit code, stdout lines, stderr lines) of `python -m ris_select.cli`
    in a child interpreter, whose stderr is what a user sees, warnings
    included."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "ris_select.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stdout.splitlines(), done.stderr.splitlines()


def test_failing_preset_prints_its_error_line_alone(tmp_path):
    # fig2b on a 5-user scenario: its split-5 cells warn of an empty zone,
    # then the split-6 cell fails; the warning and its source line used to
    # reach stderr before the error line
    five = tmp_path / "five.cfg"
    five.write_text(REFERENCE_SCENARIO.read_text()
                    .replace("users_total = 10", "users_total = 5")
                    .replace("users_transmission = 7", "users_transmission = 2"))
    # the reference deployment passes --strict at 50 m and fails it at 100 m;
    # fig2b_d50.csv and its `wrote` line used to be left behind
    cases = [([five], 1, "error [fig2b_d50]: users_transmission exceeds users_total"),
             ([REFERENCE_SCENARIO, "--strict"], 2,
              "error [fig2b_d100]: approximation regime check failed "
              "(isotropy ratio 0.05, min received SNR 8.876)")]
    for index, (args, exit_code, line) in enumerate(cases):
        out = tmp_path / f"out{index}"
        code, stdout, err = _run_cli_process("--preset", "fig2b", "--out", out,
                                             "--scenario", *args)
        assert (code, stdout, err) == (exit_code, [], [line])
        assert not out.exists() or not any(out.iterdir())


def test_sweep_warnings_are_one_line_each(tmp_path):
    # splits 0 and 10 leave a zone empty: each warning was two lines, the
    # message and its source line
    spec = tmp_path / "ends.cfg"
    spec.write_text("axis = users_transmission\nvalues = 0, 5, 10\n")
    code, _, err = _run_cli_process("--scenario", REFERENCE_SCENARIO, "--sweep", spec,
                                    "--out", tmp_path / "out")
    assert code == 0
    assert err == [
        "warning: no served UEs: transmissive surface with an empty transmission zone",
        "warning: no served UEs: reflective surface with an empty reflection zone"]


@pytest.mark.parametrize("where", ["flag", "env", "sweep_file"])
def test_seed_of_two_to_the_32_is_rejected(tmp_path, monkeypatch, capsys, where):
    # SeedSequence splits such a seed into two 32-bit words, so it would
    # alias a longer key made of smaller seeds
    argv = ["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path)]
    if where == "flag":
        argv += ["--seed", "4294967296"]
    elif where == "env":
        monkeypatch.setenv("RIS_SELECT_SEED", "4294967296")
    else:
        spec = tmp_path / "sweep.cfg"
        spec.write_text(SMALL_SWEEP.replace("base_seed = 11", "base_seed = 4294967296"))
        argv += ["--sweep", str(spec)]
    assert main(argv) == 1
    assert "2**32" in _single_error_line(capsys)
    assert not (tmp_path / "evaluate.json").exists()


def test_sweep_streams_differ_across_base_seeds(tmp_path, monkeypatch):
    # Under base_seed XOR cell_index, cell 3 of a seed-9 sweep drew the
    # stream of cell 0 of a seed-10 sweep. Record every generator key the
    # Monte Carlo builds: one (seed, a) per cell, whose streams must all
    # differ.
    seen = {}
    real_rngs = capacity.rng_for_seeds
    real = capacity.monte_carlo_capacity

    def spy(keys):
        seen.setdefault(current, []).extend(keys)
        return real_rngs(keys)

    monkeypatch.setattr(capacity, "rng_for_seeds", spy)
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    csvs = {}
    for current in (9, 10):
        out = tmp_path / str(current)
        assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                     "--out", str(out), "--seed", str(current)]) == 0
        csvs[current] = _rows(out / "sweep.csv")

    assert seen == {seed: [(seed, a) for a in range(2)] for seed in (9, 10)}
    keys = seen[9] + seen[10]
    states = {np.random.SeedSequence(key).generate_state(4).tobytes() for key in keys}
    assert len(states) == len(keys) == 4

    # The two cells are different deployments, so compare like with like:
    # seed-9 cell 3 (split 5, R) against the same cell drawn from the stream
    # of seed-10 cell 0.
    cell = replace(load_scenario(REFERENCE_SCENARIO), users_transmission=5)
    budget = link_budget(cell)
    alloc = allocate_power(cell, RisType.REFLECTIVE, budget)
    other, _ = real(average_snr(cell, RisType.REFLECTIVE, alloc, budget),
                    cell.bs_antennas, 4, seen[10][0])
    assert csvs[9][3][:2] == ["5", "R"]
    assert float(csvs[9][3][4]) != pytest.approx(other, rel=1e-9)


def test_each_cell_builds_one_generator(tmp_path, monkeypatch):
    # a cell's trials are rows of one draw that its three types share, so
    # the generator count does not grow with --trials or with the types:
    # 16 for fig2a's 16 cells, 1 for an evaluation, all seeded in one
    # rng_for_seeds call per block
    calls = []
    real_rngs = capacity.rng_for_seeds

    def spy(keys):
        rngs = real_rngs(keys)
        calls.append((list(keys), len(rngs)))
        return rngs

    monkeypatch.setattr(capacity, "rng_for_seeds", spy)
    common = ["--scenario", str(REFERENCE_SCENARIO), "--out", str(tmp_path),
              "--seed", "7"]
    for trials in ("2", "50"):
        calls.clear()
        assert main(common + ["--preset", "fig2a", "--trials", trials]) == 0
        keys = [(7, a) for a in range(16)]
        assert calls == [(keys, 16)]
    calls.clear()
    assert main(common + ["--trials", "50"]) == 0
    assert calls == [([(7, 0)], 1)]


def test_fig2a_monte_carlo_at_scale_matches_the_exact_rate(tmp_path):
    # 2000 trials per cell through the CLI: every cell's estimate lies
    # within six standard deviations of the exact ergodic rate
    trials = 2000
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--preset", "fig2a",
                 "--out", str(tmp_path), "--trials", str(trials), "--seed", "7"]) == 0
    rows = _rows(tmp_path / "fig2a.csv")
    assert len(rows) == 48
    (variant,) = cli.preset_variants("fig2a", trials, 7)
    base = load_scenario(REFERENCE_SCENARIO)
    for axis, value in variant.settings:
        base = cli.apply_axis_value(base, axis, value)
    for row in rows:
        cell = cli.apply_axis_value(base, variant.spec.axis, float(row[0]))
        ris_type = next(t for t in RisType if t.letter == row[1])
        budget = link_budget(cell)
        exact = ergodic_rate_exact(
            average_snr(cell, ris_type, allocate_power(cell, ris_type, budget), budget),
            cell.bs_antennas)
        assert abs(float(row[4]) - exact) <= mc_tolerance(cell, trials), row


def _reference_with(key, line, text=None) -> str:
    """The reference scenario (or `text`) with the line of `key` replaced by
    `line` (dropped when `line` is None, appended when the file lacks the key)."""
    raws = (REFERENCE_SCENARIO.read_text() if text is None else text).splitlines()
    if not any(raw.startswith(key + " ") for raw in raws):
        raws.append(line)
    lines = [line if raw.startswith(key + " ") else raw for raw in raws]
    return "".join(text + "\n" for text in lines if text is not None)


@pytest.mark.parametrize("line, message", [
    ("transmit_power_dbm = nan", "transmit_power must be finite"),
    ("ris_ue_distance_m = inf", "ris_ue_distance must be finite"),
    ("transmit_power_dbm = 1e10", "transmit_power must be finite"),
    ("phase_reflect_rad = nan", "phase_reflect_rad must be finite"),
    ("phase_reflect_rad = inf", "phase_reflect_rad must be finite"),
    ("phase_transmit_rad = nan", "phase_transmit_rad must be finite"),
    ("phase_transmit_rad = -inf", "phase_transmit_rad must be finite"),
])
def test_non_finite_scenario_value_is_rejected(tmp_path, capsys, line, message):
    text = _reference_with(line.split(" =")[0], line)
    assert line in text
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(text)
    assert main(["--scenario", str(scenario), "--out", str(tmp_path),
                 "--trials", "2"]) == 1
    assert message in _single_error_line(capsys)
    assert not (tmp_path / "evaluate.json").exists()


@pytest.mark.parametrize("axis, values, message", [
    ("users_transmission", "1, 1.5", "whole numbers; got 1.5"),
    ("users_transmission", "3, nan", "whole numbers; got nan"),
    ("ris_rows_cols", "10, 20.5", "whole numbers; got 20.5"),
    ("transmit_power_dbm", "30, nan", "transmit_power must be finite"),
    ("transmit_power_dbm", "30, 1e10", "transmit_power must be finite"),
    ("users_transmission", "1, x", "line 2: value for values must be a number, got 'x'"),
    ("users_transmission", "1, 2\ntrials = 1e3",
     "line 3: value for trials must be an integer, got '1e3'"),
])
def test_bad_sweep_value_is_rejected(tmp_path, capsys, axis, values, message):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(f"axis = {axis}\nvalues = {values}\n"
                    "outputs = closed_form, upper_bound, decision\n")
    out = tmp_path / "out"
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--sweep", str(spec),
                 "--out", str(out)]) == 1
    assert message in _single_error_line(capsys)
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("mode", ["scenario", "sweep"])
def test_oversized_panel_gives_one_error_line(tmp_path, capsys, mode):
    # a 10**10 x 10**10 grid is beyond numpy's largest array, so asking for
    # it fails at once without allocating anything
    side = 10 ** 10
    scenario, argv = REFERENCE_SCENARIO, []
    if mode == "scenario":
        scenario = tmp_path / "huge.cfg"
        scenario.write_text(REFERENCE_SCENARIO.read_text()
                            .replace("ris_rows = 50", f"ris_rows = {side}")
                            .replace("ris_cols = 50", f"ris_cols = {side}"))
    else:
        spec = tmp_path / "sweep.cfg"
        spec.write_text(f"axis = ris_rows_cols\nvalues = 10, {side}\n"
                        "outputs = closed_form, upper_bound, decision\n")
        argv = ["--sweep", str(spec)]
    out = tmp_path / "out"
    assert main(["--scenario", str(scenario), "--out", str(out)] + argv) == 1
    assert "too large to allocate" in _single_error_line(capsys)
    assert not (out / "evaluate.json").exists() and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("mode", ["evaluate", "sweep"])
@pytest.mark.parametrize("users", [10 ** 18, 99999999999999999999])
def test_oversized_user_count_gives_one_error_line(tmp_path, capsys, mode, users):
    # numpy refuses an arange of 10**18 int64s (8 EB) and one past the
    # int64 range at once, without allocating anything
    scenario = tmp_path / "crowd.cfg"
    scenario.write_text(REFERENCE_SCENARIO.read_text()
                        .replace("users_total = 10", f"users_total = {users}"))
    argv = []
    if mode == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text("axis = transmit_power_dbm\nvalues = 30, 40\n")
        argv = ["--sweep", str(spec)]
    out = tmp_path / "out"
    assert main(["--scenario", str(scenario), "--out", str(out)] + argv) == 1
    assert f"{users} users are too many to allocate" in _single_error_line(capsys)
    assert not (out / "evaluate.json").exists() and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("mode, trials", [
    ("evaluate", 2 ** 32), ("evaluate", 10 ** 13), ("fig2a", 10 ** 20),
    ("sweep", 10 ** 13)])
def test_oversized_trial_count_gives_one_error_line(tmp_path, capsys, mode, trials):
    # at S = 10, 2**32 trials ask for about 1 TB, which some hosts could
    # allocate; every count here passes the fixed 2**27-value block limit,
    # so each fails at once, on any host, without allocating anything
    argv = ["--trials", str(trials)]
    if mode == "fig2a":
        argv += ["--preset", "fig2a"]
    elif mode == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text(f"axis = users_transmission\nvalues = 1, 9\ntrials = {trials}\n")
        argv = ["--sweep", str(spec)]
    out = tmp_path / "out"
    assert main(["--scenario", str(REFERENCE_SCENARIO), "--out", str(out)] + argv) == 1
    assert "too large to allocate" in _single_error_line(capsys)
    assert not out.exists() or not any(out.iterdir())


READER_SWEEP = ("axis = users_transmission\nvalues = 3, 5\ntrials = 2\n"
                "outputs = closed_form, decision\n")


# (kind, key, line, message): the scenario or sweep file whose `key` line is
# replaced by `line` must fail with `error: <message>`, or, when message is
# None, give the same sweep CSV as the unedited file.
READER_CASES = [
    ("scenario", "ris_rows", "ris_rows 50",
     "line 19: expected 'key = value', got 'ris_rows 50'"),
    ("scenario", "colour", "colour = red", "line 26: unknown key 'colour'"),
    ("scenario", "ris_cols", "ris_rows = 50",
     "line 20: duplicate key 'ris_rows' (first on line 19)"),
    ("scenario", "ris_rows", "ris_rows = 50.5",
     "line 19: value for ris_rows must be an integer, got '50.5'"),
    ("scenario", "wavelength_m", "wavelength_m = tenth",
     "line 15: value for wavelength_m must be a number, got 'tenth'"),
    ("scenario", "ris_rows", "\n   \n# the panel\nris_rows = 50  # rows # side\n", None),
    ("sweep", "values", "values =", "line 2: expected 'key = value', got 'values ='"),
    ("sweep", "colour", "colour = red", "line 5: unknown key 'colour'"),
    ("sweep", "outputs", "axis = distances",
     "line 4: duplicate key 'axis' (first on line 1)"),
    ("sweep", "trials", "trials = 2.5",
     "line 3: value for trials must be an integer, got '2.5'"),
    ("sweep", "values", "values = 3, five",
     "line 2: value for values must be a number, got 'five'"),
    ("sweep", "values", "\n# the splits\n\nvalues = 3, 5   # two cells\n  \n", None),
]


@pytest.mark.parametrize("kind, key, line, message", READER_CASES)
def test_both_file_kinds_share_one_reader(tmp_path, capsys, kind, key, line, message):
    files = {"scenario": REFERENCE_SCENARIO.read_text(), "sweep": READER_SWEEP}
    edited = dict(files, **{kind: _reference_with(key, line, files[kind])})
    runs = {}
    for name, texts in (("edited", edited), ("plain", files)):
        for file_kind, text in texts.items():
            (tmp_path / f"{name}_{file_kind}.cfg").write_text(text)
        runs[name] = main(["--scenario", str(tmp_path / f"{name}_scenario.cfg"),
                           "--sweep", str(tmp_path / f"{name}_sweep.cfg"),
                           "--out", str(tmp_path / name)])
    assert runs["plain"] == 0
    if message is None:
        assert runs["edited"] == 0
        assert ((tmp_path / "edited" / "edited_sweep.csv").read_text()
                == (tmp_path / "plain" / "plain_sweep.csv").read_text())
        return
    assert runs["edited"] == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}"]
    assert not (tmp_path / "edited").exists()


# (kind, payload, message) of inputs that must end with one error line and
# exit 1: bad sweep specs, a bad seed variable, unreadable or unwritable
# paths, and scenarios that fail validation.
ERROR_PATHS = [
    ("sweep", "axis = users_transmission\nvalues = ,\n",
     "sweep values must be non-empty"),
    ("sweep", "axis = users_transmission\naxis = distances\nvalues = 50\n",
     "line 2: duplicate key 'axis'"),
    ("sweep", "axis = users_transmission\nvalues = 1\ncolour = red\n",
     "line 3: unknown key 'colour'"),
    ("sweep", "values = 1, 2\n", "sweep spec missing required key 'axis'"),
    ("sweep", "axis = users_transmission\nvalues = 1\noutputs = bogus\n",
     "unknown sweep outputs: bogus"),
    ("sweep", "axis = users_transmission\nvalues = 1\ntrials = 0\n"
              "outputs = monte_carlo\n",
     "trials must be >= 1 when monte_carlo is requested"),
    ("seed_env", "abc", "RIS_SELECT_SEED must be an integer"),
    ("missing_sweep", None, "cannot read sweep spec"),
    ("out_under_file", "evaluate", "cannot write results to"),
    ("out_under_file", "sweep", "cannot create output dir"),
    ("scenario", ("bs_antennas", "bs_antennas ="),
     "line 4: expected 'key = value', got 'bs_antennas ='"),
    ("scenario", ("noise_dbm", None),
     "missing required key: one of noise_dbm or noise_w"),
    ("scenario", ("bs_height_m", "bs_height_m = -1"), "heights must be non-negative"),
    ("scenario", ("iso_tol", "iso_tol = -1"), "iso_tol must be >= 0"),
    ("scenario", ("bs_antennas", "bs_antennas = 0"),
     "bs_antennas must be a positive integer"),
    ("scenario", ("element_width_m", "element_width_m = 0"),
     "element_width_m must be positive"),
    ("scenario", ("element_height_m", "element_height_m = 0"),
     "element_height_m must be positive"),
    ("scenario", ("element_gain", "element_gain = 0"), "element_gain must be positive"),
    # the panel names the side it rejects, as a ris_rows_cols sweep does
    ("scenario", ("ris_rows", "ris_rows = 0"), "ris_rows must be a positive integer"),
    ("scenario", ("ris_cols", "ris_cols = 0"), "ris_cols must be a positive integer"),
    ("scenario", ("users_transmission", "users_transmission = -1"),
     "users_transmission must be non-negative"),
]


@pytest.mark.parametrize("kind, payload, message", ERROR_PATHS)
def test_error_path_gives_one_error_line(tmp_path, monkeypatch, capsys,
                                         kind, payload, message):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    scenario, out, argv = REFERENCE_SCENARIO, tmp_path / "out", []
    if kind == "sweep":
        spec = tmp_path / "spec.cfg"
        spec.write_text(payload)
        argv = ["--sweep", str(spec)]
    elif kind == "seed_env":
        monkeypatch.setenv(cli.SEED_ENV_VAR, payload)
    elif kind == "missing_sweep":
        argv = ["--sweep", str(tmp_path / "absent.cfg")]
    elif kind == "out_under_file":
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        if payload == "sweep":
            spec = tmp_path / "spec.cfg"
            spec.write_text(SMALL_SWEEP)
            argv = ["--sweep", str(spec)]
    else:
        scenario = tmp_path / "bad.cfg"
        scenario.write_text(_reference_with(*payload))
    assert main(["--scenario", str(scenario), "--out", str(out)] + argv) == 1
    assert message in _single_error_line(capsys)


def test_evaluate_and_one_point_sweep_agree(tmp_path):
    # a single evaluation is the one-point sweep at axis index 0: same per-type
    # numbers (to the CSV's 12 digits), same brute-force winner, same agreement
    common = ["--scenario", str(REFERENCE_SCENARIO), "--seed", "5", "--trials", "50"]
    assert main(common + ["--out", str(tmp_path / "eval")]) == 0
    spec = tmp_path / "point.cfg"
    spec.write_text("axis = users_transmission\nvalues = 7\n"
                    "outputs = closed_form, upper_bound, monte_carlo, decision\n")
    assert main(common + ["--sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 0

    record = json.loads((tmp_path / "eval" / "evaluate.json").read_text())
    rows = _rows(tmp_path / "sweep" / "point.csv")
    assert [row[1] for row in rows] == ["R", "T", "H"]
    selection = record["selection"]
    for row in rows:
        ris_type = next(t for t in RisType if t.letter == row[1])
        report = record["capacity"][ris_type.value]
        assert row[2:6] == [f"{report[key]:.12g}" for key in (
            "closed_form", "upper_bound", "monte_carlo_mean", "monte_carlo_stderr")]
        assert row[6] == RisType(selection["brute_force_optimal"]).letter
        assert row[7] == ("true" if selection["agrees"] else "false")


@pytest.mark.parametrize("mode", ["evaluate", "preset", "sweep"])
def test_non_utf8_input_gives_one_error_line(tmp_path, capsys, mode):
    scenario, spec = REFERENCE_SCENARIO, tmp_path / "sweep.cfg"
    spec.write_text(SMALL_SWEEP)
    if mode == "sweep":
        spec.write_bytes(b"axis = users_transmission\nvalues = 3, \xff5\n")
        bad = spec
    else:
        scenario = bad = tmp_path / "bad.cfg"
        scenario.write_bytes(b"\xff\xfe" + REFERENCE_SCENARIO.read_bytes())
    argv = ["--scenario", str(scenario), "--out", str(tmp_path / "out")]
    argv += {"evaluate": [], "preset": ["--preset", "fig2b"],
             "sweep": ["--sweep", str(spec)]}[mode]
    assert main(argv) == 1
    line = _single_error_line(capsys)
    assert str(bad) in line and "UTF-8" in line
    assert not (tmp_path / "out").exists()


# Scenario edits that put the link budget outside the float range: the
# pathloss (D d)^alpha overflows, the wavelength squared underflows to zero,
# and D d underflows to zero (with equal heights, so D is not grazing).
OUT_OF_RANGE_BUDGETS = {
    "pathloss_exponent": [("pathloss_exponent = 2", "pathloss_exponent = 300")],
    "wavelength": [("wavelength_m = 0.1", "wavelength_m = 1e-300")],
    "distances": [("bs_ris_distance_m = 50", "bs_ris_distance_m = 1e-200"),
                  ("ris_ue_distance_m = 50", "ris_ue_distance_m = 1e-200"),
                  ("bs_height_m = 30", "bs_height_m = 15")],
}


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("mode", ["evaluate", "sweep"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_BUDGETS))
def test_out_of_range_link_budget_gives_one_error_line(tmp_path, capsys, case, mode,
                                                       strict):
    text = REFERENCE_SCENARIO.read_text()
    for old, new in OUT_OF_RANGE_BUDGETS[case]:
        assert old in text
        text = text.replace(old, new)
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(text)
    out = tmp_path / "out"
    argv = ["--scenario", str(scenario), "--out", str(out), "--trials", "2"]
    if mode == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text(SMALL_SWEEP)
        argv += ["--sweep", str(spec)]
    assert main(argv + (["--strict"] if strict else [])) == 1
    assert "link budget out of floating-point range" in _single_error_line(capsys)
    assert not out.exists() or not any(out.iterdir())


def test_out_of_range_axis_value_fails_after_the_cells_before_it(tmp_path, capsys):
    # the first cell fails --strict's regime check before the second cell is
    # rejected, so the regime failure is reported (exit 2); without --strict
    # the second cell's failure is (exit 1). The second cell's link budget
    # overflows at 1e300 m; over 1e-300 W of noise, its link budget is in
    # range at 290 dBm but P / sigma^2 overflows.
    cases = [(REFERENCE_SCENARIO, "distances", "500, 1e300", "regime",
              "link budget out of floating-point range"),
             (_scenario_with_noise(tmp_path, 1e-300), "transmit_power_dbm",
              "-2870, 290", "min received SNR 0.01467", "not finite")]
    for scenario, axis, values, strict_text, lenient_text in cases:
        spec = tmp_path / "sweep.cfg"
        spec.write_text(f"axis = {axis}\nvalues = {values}\n"
                        "outputs = closed_form, upper_bound, decision\n")
        argv = ["--scenario", str(scenario), "--sweep", str(spec),
                "--out", str(tmp_path / "out")]
        assert main(argv + ["--strict"]) == 2
        assert strict_text in _single_error_line(capsys)
        assert main(argv) == 1
        assert lenient_text in _single_error_line(capsys)
        assert not (tmp_path / "out" / "sweep.csv").exists()


def _scenario_with_noise(tmp_path, noise_w):
    text = REFERENCE_SCENARIO.read_text()
    assert "noise_dbm = -96" in text
    scenario = tmp_path / "noise.cfg"
    scenario.write_text(text.replace("noise_dbm = -96", f"noise_w = {noise_w!r}"))
    return scenario


def _numbers_finite(cell) -> bool:
    """Whether a cell's averaged-SNR-derived numbers and closed forms are all
    finite (for EVALUATE_OUTPUTS, which asks for every one of them)."""
    return all(math.isfinite(value) for report in cell.reports.values()
               for value in (report.closed_form, report.upper_bound,
                             report.monte_carlo_mean, report.monte_carlo_stderr,
                             report.ergodic_exact))


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("mode", ["evaluate", "sweep", "preset"])
def test_non_finite_results_give_one_error_line(tmp_path, capsys, mode, strict):
    # A subnormal noise power leaves the link constant positive (5.7e-311),
    # so the budget passes its range check, but P / sigma^2 overflows: the
    # closed forms come out inf and the bounds and Monte Carlo NaN.
    out = tmp_path / "out"
    argv = ["--scenario", str(_scenario_with_noise(tmp_path, 1e-320)),
            "--out", str(out), "--trials", "2"]
    if mode == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text(SMALL_SWEEP)
        argv += ["--sweep", str(spec)]
    elif mode == "preset":
        argv += ["--preset", "fig2b"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning either
        assert main(argv + (["--strict"] if strict else [])) == 1
    assert "not finite" in _single_error_line(capsys)
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_cell_fails_after_the_cells_before_it(tmp_path, capsys):
    # at 43 dBm over 1e-300 W every number is finite; at 290 dBm the link
    # constant is subnormal and P / sigma^2 overflows
    cfg = replace(load_scenario(REFERENCE_SCENARIO), noise_variance=1e-300)
    cfgs = [cli.apply_axis_value(cfg, "transmit_power_dbm", p) for p in (43.0, 290.0)]
    with pytest.raises(ConfigValidationError, match="not finite"):
        cli._evaluate_cells(cfgs, cli.EVALUATE_OUTPUTS, 2, 0, False)
    cell, = cli._evaluate_cells(cfgs[:1], cli.EVALUATE_OUTPUTS, 2, 0, False)
    assert _numbers_finite(cell)

    spec = tmp_path / "sweep.cfg"
    spec.write_text("axis = transmit_power_dbm\nvalues = 43, 290\n")
    out = tmp_path / "out"
    assert main(["--scenario", str(_scenario_with_noise(tmp_path, 1e-300)),
                 "--sweep", str(spec), "--out", str(out), "--trials", "2"]) == 1
    assert "not finite" in _single_error_line(capsys)
    assert not (out / "sweep.csv").exists()


def _tiny_reflect_error(tmp_path, capsys, mode, radiation_reflect):
    """Run the reference deployment at split 1 with the given
    radiation_reflect, as an evaluation or as a sweep with diagnostics, and
    return its one error line; nothing may be written."""
    text = REFERENCE_SCENARIO.read_text()
    assert "radiation_reflect = 1.0" in text and "users_transmission = 7" in text
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(text.replace("radiation_reflect = 1.0",
                                     f"radiation_reflect = {radiation_reflect!r}")
                        .replace("users_transmission = 7", "users_transmission = 1"))
    out = tmp_path / "out"
    argv = ["--scenario", str(scenario), "--out", str(out), "--trials", "2"]
    if mode == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text("axis = users_transmission\nvalues = 1, 2\n"
                        "outputs = closed_form, upper_bound, decision, diagnostics\n")
        argv += ["--sweep", str(spec)]
    assert main(argv) == 1
    assert not out.exists() or not any(out.iterdir())
    return _single_error_line(capsys)


@pytest.mark.parametrize("mode", ["evaluate", "sweep"])
@pytest.mark.parametrize("radiation_reflect", [1.3e-304, 1e-310])
def test_tiny_radiation_reflect_gives_one_error_line_not_an_overflow(
        tmp_path, capsys, mode, radiation_reflect):
    # the element-count threshold's 2.0 ** exponent raised OverflowError:
    # a 19-line traceback and exit 1
    assert "not finite" in _tiny_reflect_error(tmp_path, capsys, mode, radiation_reflect)


@pytest.mark.parametrize("mode", ["evaluate", "sweep"])
def test_radiation_reflect_whose_threshold_is_inf_gives_one_error_line(
        tmp_path, capsys, mode):
    # at 2e-304 the threshold rounded to inf, and the evaluation wrote
    # "element_count_threshold": "inf" with exit 0
    assert "not finite" in _tiny_reflect_error(tmp_path, capsys, mode, 2e-304)


def test_extreme_configs_give_finite_numbers_or_an_error():
    # powers and noise far outside any real link: every cell the evaluator
    # returns holds finite numbers, and the rest is one ConfigError
    rng = np.random.default_rng(1320)
    outcomes = {"finite": 0, "error": 0}
    for _ in range(120):
        cfg = replace(random_config(rng),
                      transmit_power=10.0 ** rng.uniform(-3.0, 40.0),
                      noise_variance=10.0 ** rng.uniform(-323.0, -250.0))
        cfgs = [replace(cfg, users_transmission=x) for x in range(cfg.users_total + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty served sets
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cells = cli._evaluate_cells(cfgs, cli.EVALUATE_OUTPUTS, 2, 0, False)
            except ConfigError:
                outcomes["error"] += 1
                continue
        assert len(cells) == len(cfgs)
        for cell in cells:
            assert _numbers_finite(cell)
            assert np.isfinite(cell.regime.min_received_snr)
        outcomes["finite"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def _fields_jsonable(obj):
    """cli._jsonable's reference: dataclasses.fields and getattr, in field order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _fields_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj.value if isinstance(obj, RisType) else obj


def test_jsonable_equals_a_fields_reference_in_field_order():
    # every dataclass evaluate.json serializes, nested ones included, on
    # random deployments; repr compares the dicts' order as well
    rng = np.random.default_rng(67)
    kinds = set()
    for _ in range(30):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty served sets
            cell, = cli._evaluate_cells([random_config(rng)], cli.EVALUATE_OUTPUTS, 2,
                                        0, False)
        for obj in (cell.budget, cell.regime, *cell.reports.values(), cell.decision,
                    cell.diagnostics):
            if obj is not None:
                assert repr(cli._jsonable(obj)) == repr(_fields_jsonable(obj))
                kinds.add(type(obj).__name__)
    assert kinds == {"LinkBudget", "RegimeReport", "CapacityReport",
                     "SelectionDecision", "AsymptoticDiagnostics"}

