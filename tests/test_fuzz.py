"""Seeded input fuzzing of cli.main: finite output or one error line.

A fixed-seed stdlib `random` generator mutates one to three keys of
scenarios/reference.cfg, or of it and a sweep spec over one of the sweep
axes (all five outputs, two trials), to edge values: 0, -1, the smallest
subnormal, 1e-304, 1e300, 1.7e308, nan, inf, 10**20, an empty value, a
non-number, or a duplicate key. Each case runs through cli.main in process,
as a single evaluation or a sweep, a quarter of them under --strict. The
contract: exit 0 with every number written finite, or exit 1 or 2 with
exactly one stderr line, starting with "error"; main never raises.
"""

import json
import math
import random
import warnings

from conftest import REFERENCE_SCENARIO
from ris_select import cli

CASES = 600
EDGE_VALUES = ("0", "-1", "5e-324", "1e-304", "1e300", "1.7e308", "nan", "inf",
               str(10 ** 20), "", "abc")
DUPLICATE = object()  # the mutation that repeats a key's line
# optional scenario keys, appended when a case mutates them
OPTIONAL_KEYS = ("phase_reflect_rad", "phase_transmit_rad", "iso_tol", "snr_floor",
                 "transmit_power_w", "noise_w")
SWEEP_VALUES = {
    "transmit_power_dbm": "20, 35, 50",
    "users_transmission": "0, 3, 7, 10",
    "ris_rows_cols": "10, 50",
    "distances": "20, 50, 100",
}


def _parse(text: str) -> dict:
    """key -> value of each assignment line of a key = value file."""
    entries = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def _render(entries: dict, duplicates: list) -> str:
    lines = [f"{key} = {value}" for key, value in entries.items()]
    lines += [f"{key} = {entries.get(key, '1')}" for key in duplicates]
    return "\n".join(lines) + "\n"


def _mutate(rng: random.Random, entries: dict, key: str, duplicates: list) -> str:
    """Set `key` to an edge value (one entry of a value list, or all of it),
    or repeat its line; returns what was done."""
    edge = rng.choice(EDGE_VALUES + (DUPLICATE,))
    if edge is DUPLICATE:
        duplicates.append(key)
        return f"{key} duplicated"
    if "," in entries.get(key, "") and rng.random() < 0.5:
        items = entries[key].split(",")
        items[rng.randrange(len(items))] = edge
        entries[key] = ",".join(items)
    else:
        entries[key] = edge
    return f"{key} = {entries[key]!r}"


def _nonfinite(value) -> bool:
    """A JSON value holds a non-finite number, or a string spelling one."""
    if isinstance(value, dict):
        return any(map(_nonfinite, value.values()))
    if isinstance(value, list):
        return any(map(_nonfinite, value))
    if isinstance(value, str):
        return value.strip().lstrip("+-").lower() in ("nan", "inf", "infinity")
    return isinstance(value, float) and not math.isfinite(value)


def _written_numbers_are_finite(out) -> bool:
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            if _nonfinite(json.loads(text)):
                return False
            continue
        for line in text.splitlines()[1:]:
            for field in line.split(","):
                try:
                    number = float(field)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return False
    return True


def _case(rng: random.Random, work) -> tuple:
    """(argv, mutations) of one case, its input files written under `work`."""
    scenario = _parse(REFERENCE_SCENARIO.read_text(encoding="utf-8"))
    sweep = None
    argv = ["--scenario", str(work / "scenario.cfg"), "--out", str(work / "out")]
    if rng.random() < 0.5:
        axis = rng.choice(cli.SWEEP_AXES)
        sweep = {"axis": axis, "values": SWEEP_VALUES[axis], "trials": "2",
                 "base_seed": str(rng.randrange(2 ** 32)),
                 "outputs": ", ".join(cli.SWEEP_OUTPUTS)}
        argv += ["--sweep", str(work / "sweep.cfg")]
    else:
        argv += ["--trials", "2", "--seed", str(rng.randrange(2 ** 32))]
    if rng.random() < 0.25:
        argv.append("--strict")

    targets = [(scenario, key) for key in list(scenario) + list(OPTIONAL_KEYS)]
    if sweep is not None:
        targets += [(sweep, key) for key in sweep]
    scenario_duplicates, sweep_duplicates, mutations = [], [], []
    for entries, key in rng.sample(targets, rng.randint(1, 3)):
        duplicates = scenario_duplicates if entries is scenario else sweep_duplicates
        mutations.append(_mutate(rng, entries, key, duplicates))

    (work / "scenario.cfg").write_text(_render(scenario, scenario_duplicates),
                                       encoding="utf-8")
    if sweep is not None:
        (work / "sweep.cfg").write_text(_render(sweep, sweep_duplicates),
                                        encoding="utf-8")
    return argv, mutations


def test_every_input_gives_finite_output_or_one_error_line(tmp_path, capsys):
    rng = random.Random(20261019)
    codes = {}
    for index in range(CASES):
        work = tmp_path / f"case{index:03d}"
        work.mkdir()
        argv, mutations = _case(rng, work)
        where = f"case {index}: {' '.join(argv[4:])}; {'; '.join(mutations)}"
        with warnings.catch_warnings(record=True):  # warnings are not errors
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"{where}: main raised {exc!r}") from exc
        err = capsys.readouterr().err.splitlines()
        codes[code] = codes.get(code, 0) + 1
        if code == 0:
            assert err == [], where
            assert _written_numbers_are_finite(work / "out"), where
        else:
            assert code in (1, 2), where
            assert len(err) == 1 and err[0].startswith("error"), (where, err)
    # the cases reach success (some tens of them) and both failure codes
    assert set(codes) == {0, 1, 2} and codes[0] >= 20, codes
