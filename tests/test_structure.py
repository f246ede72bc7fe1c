"""Module layout: no imports inside functions, traced names still resolve,
the CLI loads no module it does not use."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "ris_select"


def test_no_function_level_imports():
    # every module imports its dependencies at the top, so the import graph
    # has no hidden lazy cycles
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_layer_trace_names_resolve():
    # bench/run.py --trace 1 wraps these names by getattr on each module
    spec = importlib.util.spec_from_file_location(
        "layertrace", REPO_ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [f"{layer}.{name}" for layer, names in layertrace.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"ris_select.{layer}"),
                                       name, None))]
    assert not missing, missing
    channel = importlib.import_module("ris_select.channel")
    assert channel.FADING_LAWS and all(callable(law) for law in channel.FADING_LAWS.values())


def test_the_cli_loads_no_executor(tmp_path):
    # the element path's worker is a plain thread, started on first use, and
    # its scratch plain arrays: a CLI process imports neither
    # concurrent.futures (nor the logging and queue modules it brings) nor
    # mmap, and importing ris_select or running one evaluation starts no
    # thread; the first element-path call starts the one worker
    code = "\n".join([
        "import json, sys, threading",
        "from ris_select import cli, load_scenario, zone_gain_statistics, RisType",
        "threads = [threading.active_count()]",
        "assert cli.main(sys.argv[1:]) == 0",
        "threads.append(threading.active_count())",
        "loaded = [name for name in ('concurrent.futures', 'logging', 'queue', 'mmap')",
        "          if name in sys.modules]",
        "cfg = load_scenario(sys.argv[2])",
        "for _ in range(2):",
        "    zone_gain_statistics(cfg, RisType.HYBRID, True, 100)",
        "    threads.append(threading.active_count())",
        "print(json.dumps({'loaded': loaded, 'threads': threads}))",
    ])
    argv = ["--scenario", str(REPO_ROOT / "scenarios" / "reference.cfg"),
            "--out", str(tmp_path / "out"), "--trials", "1"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"loaded": [], "threads": [1, 1, 2, 2]}


@pytest.mark.parametrize("run", ["evaluate", "fig2a", "fig2b", "fig2c", "sweep"])
def test_no_cli_run_loads_numpy_ma(tmp_path, run):
    # a resize proves a phase grid constant by one comparison; np.unique
    # would sort it and import all of numpy.ma through np.ma.is_masked
    argv = ["--scenario", str(REPO_ROOT / "scenarios" / "reference.cfg"),
            "--out", str(tmp_path / "out"), "--trials", "1"]
    if run == "sweep":
        spec = tmp_path / "sweep.cfg"
        spec.write_text("axis = ris_rows_cols\nvalues = 10, 20\n", encoding="utf-8")
        argv += ["--sweep", str(spec)]
    elif run != "evaluate":
        argv += ["--preset", run]
    code = ("import sys; from ris_select.cli import main; code = main(sys.argv[1:]); "
            "print(' '.join(name for name in sys.modules if name == 'numpy.ma' "
            "or name.startswith('numpy.ma.')) or '-'); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "-"
