"""Independent checks of the files and values the program produces.

Each check returns a list of problem strings; an empty list means the output
passed. The checks re-derive what they can from first principles instead of
trusting the program's own constants, so a regression in the program cannot
also loosen its check.
"""

from __future__ import annotations

import hashlib
import json
import math

CSV_HEADER = "axis_value,type,closed_form,upper_bound,mc_mean,mc_stderr,decision,agrees"
DIAGNOSTICS_FIELDS = 10
TYPE_LETTERS = ("R", "T", "H")
TYPE_NAMES = ("reflective", "transmissive", "hybrid")
REL_TOL = 1e-10
# Six standard deviations: a correct program exceeds the band about once in
# 10^9 checks, so a failure points at the program and not at bad luck.
Z_WIDE = 6.0


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def trigamma_int(k: int) -> float:
    """psi'(k) for a positive integer k: pi^2/6 - sum_{j<k} 1/j^2."""
    return math.pi ** 2 / 6.0 - sum(1.0 / (j * j) for j in range(1, k))


def mc_excess_tolerance(users: int, antennas: int, trials: int) -> float:
    """Largest credible excess of a Monte Carlo mean over the averaged bound.

    Under i.i.d. complex Gaussian fading each user's row power is a scaled
    Gamma(K_t, 1) variate, so log2 of it has variance psi'(K_t) / ln(2)^2.
    The per-user rate log2(1 + a X) is 1-Lipschitz in log2 X, so its variance
    is no larger, and users are independent. The sum rate of one trial thus
    has standard deviation at most sqrt(S psi'(K_t)) / ln 2, and the mean of
    `trials` draws sits below the bound (Jensen) up to Z_WIDE of those.
    """
    sigma = math.sqrt(users * trigamma_int(antennas)) / math.log(2.0)
    return Z_WIDE * sigma / math.sqrt(trials)


def read_scenario_ints(path, keys) -> dict:
    """Pick integer keys out of a scenario file without using the program."""
    found = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0]
            if "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                if key in keys:
                    found[key] = int(value)
    return found


def _float(text: str, what: str, problems: list):
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: not a number: {text!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{what}: not finite: {text!r}")
        return None
    return value


def check_sweep_csv(path, values, mc_tolerance=None) -> list:
    """Validate a sweep CSV written by the CLI.

    `values` are the expected axis values. With `mc_tolerance` the Monte
    Carlo columns must be filled and the mean may exceed the bound by at
    most that much; without it they must be empty.
    """
    problems = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 3 * len(values):
        return [f"{path.name}: {len(rows)} rows, expected {3 * len(values)}"]
    for index, value in enumerate(values):
        cell = rows[3 * index:3 * index + 3]
        where = f"{path.name} value {value:g}"
        if any(len(row) != 8 for row in cell):
            problems.append(f"{where}: wrong field count")
            continue
        if [row[1] for row in cell] != list(TYPE_LETTERS):
            problems.append(f"{where}: types not in R, T, H order")
        closed = []
        for row in cell:
            axis = _float(row[0], where, problems)
            if axis is not None and not close(axis, value):
                problems.append(f"{where}: axis value {row[0]}")
            cf = _float(row[2], f"{where} {row[1]} closed_form", problems)
            ub = _float(row[3], f"{where} {row[1]} upper_bound", problems)
            if cf is None or ub is None:
                continue
            closed.append(cf)
            if not close(cf, ub):
                problems.append(f"{where} {row[1]}: closed_form {cf!r} != "
                                f"upper_bound {ub!r}")
            if mc_tolerance is None:
                if row[4] or row[5]:
                    problems.append(f"{where} {row[1]}: unrequested Monte Carlo")
                continue
            mean = _float(row[4], f"{where} {row[1]} mc_mean", problems)
            stderr = _float(row[5], f"{where} {row[1]} mc_stderr", problems)
            if mean is not None and mean > ub + mc_tolerance:
                problems.append(f"{where} {row[1]}: mc_mean {mean!r} above "
                                f"bound {ub!r} + {mc_tolerance:.3g}")
            if stderr is not None and stderr < 0.0:
                problems.append(f"{where} {row[1]}: negative mc_stderr")
        decisions = {row[6] for row in cell}
        if len(decisions) != 1 or not decisions <= set(TYPE_LETTERS):
            problems.append(f"{where}: decision column {sorted(decisions)}")
        elif len(closed) == 3:
            winner = closed[TYPE_LETTERS.index(decisions.pop())]
            if not close(winner, max(closed)):
                problems.append(f"{where}: decision is not the closed-form argmax")
        if any(row[7] not in ("true", "false", "") for row in cell):
            problems.append(f"{where}: bad agrees column")
    return problems


def check_diagnostics_csv(path, values) -> list:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not lines or not lines[0].startswith("axis_value,"):
        return [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(values):
        return [f"{path.name}: {len(rows)} rows, expected {len(values)}"]
    problems = []
    for row, value in zip(rows, values):
        if len(row) != DIAGNOSTICS_FIELDS:
            problems.append(f"{path.name} value {value:g}: wrong field count")
            continue
        axis = _float(row[0], f"{path.name} axis", problems)
        if axis is not None and not close(axis, value):
            problems.append(f"{path.name}: axis value {row[0]}")
    return problems


def check_evaluate_json(path, trials: int, mc_tolerance: float) -> list:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        capacity = record["capacity"]
        selection = record["selection"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: malformed: {exc!r}"]
    if not isinstance(capacity, dict):
        return [f"{path.name}: capacity is not an object"]
    problems = []
    closed = {}
    for name in TYPE_NAMES:
        report = capacity.get(name)
        if not isinstance(report, dict):
            problems.append(f"{path.name}: no capacity report for {name}")
            continue
        try:
            cf = float(report["closed_form"])
            ub = float(report["upper_bound"])
            mean = float(report["monte_carlo_mean"])
            n = int(report["trials"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name} {name}: malformed report: {exc!r}")
            continue
        if not all(math.isfinite(x) for x in (cf, ub, mean)):
            problems.append(f"{path.name} {name}: non-finite rate")
            continue
        closed[name] = cf
        if not close(cf, ub):
            problems.append(f"{path.name} {name}: closed_form {cf!r} != "
                            f"upper_bound {ub!r}")
        if mean > ub + mc_tolerance:
            problems.append(f"{path.name} {name}: monte_carlo_mean {mean!r} above "
                            f"bound {ub!r} + {mc_tolerance:.3g}")
        if n != trials:
            problems.append(f"{path.name} {name}: {n} trials, expected {trials}")
    winner = selection.get("brute_force_optimal") if isinstance(selection, dict) else None
    if winner not in TYPE_NAMES:
        problems.append(f"{path.name}: bad brute_force_optimal {winner!r}")
    elif len(closed) == 3 and not close(closed[winner], max(closed.values())):
        problems.append(f"{path.name}: brute_force_optimal is not the argmax")
    return problems


def check_gain_statistics(stats, expected: float, trials: int, real_valued: bool) -> list:
    """Moments of the normalized aggregate gain against their large-panel law.

    The aggregate tends to a zero-mean normal with variance `expected`. For a
    complex circular aggregate |z|^2 has variance expected^2; for a
    real-valued one (sign fading with a real response) z^2 has 2 expected^2.
    """
    problems = []
    values = (stats.variance, stats.variance_stderr, stats.mean.real, stats.mean.imag)
    if not all(math.isfinite(v) for v in values):
        return ["gain statistics: non-finite moment"]
    if stats.trials != trials:
        problems.append(f"gain statistics: {stats.trials} trials, expected {trials}")
    if not close(stats.expected_variance, expected, 1e-12):
        problems.append(f"gain statistics: expected_variance {stats.expected_variance!r}")
    spread = math.sqrt(2.0 if real_valued else 1.0) * expected / math.sqrt(trials)
    if abs(stats.variance - expected) > Z_WIDE * spread:
        problems.append(f"gain statistics: variance {stats.variance!r} outside "
                        f"{expected} +/- {Z_WIDE * spread:.3g}")
    if abs(stats.mean) > Z_WIDE * math.sqrt(expected / trials):
        problems.append(f"gain statistics: mean {stats.mean!r} too far from 0")
    return problems
