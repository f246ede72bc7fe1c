"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Every workload is a fixed cycle of operations. The runner times `run` alone;
removing the stale files that `outputs` names and `check`ing what `run`
wrote happen outside the timed region. Inputs depend only on the workload
seed, and the program sees only those inputs. `calibration` names the
kernels (calibration.py) whose slow-down on a busy machine matches the
workload's.

Paths are relative to the repository root, which the runner makes the
working directory, so output files hold no checkout-specific paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ris_select import channel, cli, scenario
from ris_select.scenario import RisType

import checks

REFERENCE = Path("scenarios/reference.cfg")

# mc_sweep: the fig2a preset (16 power points x 3 types) plus one evaluation
# of the reference deployment (3 types), both at this many trials per cell.
# Two trials keep a round near one second while every cell still reports a
# standard error.
MC_TRIALS = 2
FIG2A_POWERS = tuple(float(p) for p in range(20, 51, 2))

# selection_screen: deployments per cycle, each swept over the user split.
# A fixed user count keeps the work per deployment constant across seeds;
# 64 deployments average out the geometry-dependent cost of the decision.
SCREEN_DEPLOYMENTS = 64
SCREEN_USERS = 10
SCREEN_SPLITS = tuple(float(s) for s in range(1, SCREEN_USERS))

# gain_stats: two 512-row draw chunks per call at the 2500-element panel.
GAIN_TRIALS = 1024
GAIN_LAWS = ("gaussian", "uniform_phase", "sign")
GAIN_CASES = (  # (type, reflection zone, squared response amplitude)
    (RisType.REFLECTIVE, True, 1.0),
    (RisType.TRANSMISSIVE, False, 1.0),
    (RisType.HYBRID, True, 0.5),
)


@dataclass
class Outcome:
    """What one operation did: work units, decided sweep cells, exit codes.

    `result` holds the returned value of an operation that writes no file;
    the runner digests its repr in place of output files.
    """

    items: int
    cells: int
    codes: list = field(default_factory=list)
    result: object = None


class McSweep:
    name = "mc_sweep"
    item = "Monte Carlo trial"
    calibration = ("numpy",)

    def __init__(self, seed: int, work: Path):
        self.fig_dir = work / "fig2a"
        self.eval_dir = work / "evaluate"
        ints = checks.read_scenario_ints(REFERENCE, {"users_total", "bs_antennas"})
        self.tolerance = checks.mc_excess_tolerance(
            ints["users_total"], ints["bs_antennas"], MC_TRIALS)
        common = ["--scenario", str(REFERENCE), "--seed", str(seed),
                  "--trials", str(MC_TRIALS)]
        self.fig_argv = common + ["--preset", "fig2a", "--out", str(self.fig_dir)]
        self.eval_argv = common + ["--out", str(self.eval_dir)]

    def cycle(self):
        return ["round"]

    def outputs(self, key):
        return [self.fig_dir / "fig2a.csv", self.eval_dir / "evaluate.json"]

    def run(self, key) -> Outcome:
        codes = [cli.main(self.fig_argv), cli.main(self.eval_argv)]
        trials = (3 * len(FIG2A_POWERS) + 3) * MC_TRIALS
        return Outcome(items=trials, cells=len(FIG2A_POWERS) + 1, codes=codes)

    def check(self, key, outcome: Outcome) -> list:
        fig_csv, eval_json = self.outputs(key)
        return (checks.check_sweep_csv(fig_csv, FIG2A_POWERS, self.tolerance)
                + checks.check_evaluate_json(eval_json, MC_TRIALS, self.tolerance))


def _deployment_text(rng: np.random.Generator) -> str:
    """One random but valid deployment in scenario-file syntax."""
    bs_h = rng.uniform(5.0, 40.0)
    ris_h = rng.uniform(5.0, 30.0)
    values = {
        "bs_antennas": int(rng.integers(4, 33)),
        "bs_ris_distance_m": rng.uniform(abs(bs_h - ris_h) + 5.0, 300.0),
        "ris_ue_distance_m": rng.uniform(10.0, 300.0),
        "bs_height_m": bs_h,
        "ris_height_m": ris_h,
        "users_total": SCREEN_USERS,
        "users_transmission": int(rng.integers(1, SCREEN_USERS)),
        "transmit_power_dbm": rng.uniform(20.0, 50.0),
        "noise_dbm": rng.uniform(-110.0, -80.0),
        "wavelength_m": rng.uniform(0.01, 0.3),
        "antenna_gain": rng.uniform(1.0, 4.0),
        "pathloss_exponent": rng.uniform(2.0, 3.0),
        "ris_rows": int(rng.integers(10, 201)),
        "ris_cols": int(rng.integers(10, 201)),
        "element_width_m": rng.uniform(0.005, 0.05),
        "element_height_m": rng.uniform(0.005, 0.05),
        "element_gain": rng.uniform(1.0, 4.0),
        "radiation_reflect": rng.uniform(0.5, 1.0),
        "radiation_transmit": rng.uniform(0.5, 1.0),
    }
    return "".join(f"{key} = {float(v)!r}\n" if isinstance(v, float) else f"{key} = {v}\n"
                   for key, v in values.items())


SWEEP_TEXT = ("axis = users_transmission\n"
              f"values = {', '.join(str(int(s)) for s in SCREEN_SPLITS)}\n"
              "outputs = closed_form, upper_bound, decision, diagnostics\n")


class SelectionScreen:
    name = "selection_screen"
    item = "sweep cell"
    calibration = ("numpy", "interpreter")

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        self.out_dir = work / "out"
        scenarios, sweeps = work / "scenarios", work / "sweeps"
        scenarios.mkdir(parents=True, exist_ok=True)
        sweeps.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for index in range(SCREEN_DEPLOYMENTS):
            stem = f"dep{index:03d}"
            (scenarios / f"{stem}.cfg").write_text(_deployment_text(rng), encoding="utf-8")
            (sweeps / f"{stem}.cfg").write_text(SWEEP_TEXT, encoding="utf-8")
            self.argvs.append(["--scenario", str(scenarios / f"{stem}.cfg"),
                               "--sweep", str(sweeps / f"{stem}.cfg"),
                               "--out", str(self.out_dir)])

    def cycle(self):
        return list(range(SCREEN_DEPLOYMENTS))

    def outputs(self, key):
        stem = f"dep{key:03d}"
        return [self.out_dir / f"{stem}.csv", self.out_dir / f"{stem}_diagnostics.csv"]

    def run(self, key) -> Outcome:
        code = cli.main(self.argvs[key])
        return Outcome(items=len(SCREEN_SPLITS), cells=len(SCREEN_SPLITS), codes=[code])

    def check(self, key, outcome: Outcome) -> list:
        csv_path, diag_path = self.outputs(key)
        return (checks.check_sweep_csv(csv_path, SCREEN_SPLITS)
                + checks.check_diagnostics_csv(diag_path, SCREEN_SPLITS))


class GainStats:
    name = "gain_stats"
    item = "aggregate-gain sample"
    calibration = ("numpy",)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.cfg = scenario.load_scenario(REFERENCE)

    def cycle(self):
        return [(li, ci) for li in range(len(GAIN_LAWS)) for ci in range(len(GAIN_CASES))]

    def outputs(self, key):
        return []

    def run(self, key) -> Outcome:
        law_index, case_index = key
        ris_type, reflection, _ = GAIN_CASES[case_index]
        stats = channel.zone_gain_statistics(
            self.cfg, ris_type, reflection, GAIN_TRIALS, fading=GAIN_LAWS[law_index],
            seed=(self.seed, law_index, case_index))
        return Outcome(items=GAIN_TRIALS, cells=0, result=stats)

    def check(self, key, outcome: Outcome) -> list:
        law_index, case_index = key
        expected = GAIN_CASES[case_index][2]
        # Sign fading through the reference panel's zero phase grid is real.
        real_valued = GAIN_LAWS[law_index] == "sign"
        return checks.check_gain_statistics(outcome.result, expected, GAIN_TRIALS, real_valued)


WORKLOADS = {w.name: w for w in (McSweep, SelectionScreen, GainStats)}


def make(name: str, seed: int, work: Path):
    """Generate the workload's inputs under `work` and return it."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)
