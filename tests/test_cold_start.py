"""What a cold CLI process imports, and tools/cold_start.py that measures it."""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys

import pytest

from tests.conftest import ROOT, load_script

cold_start = load_script("tools/cold_start.py")

SRC = ROOT / "src"
ANALYSIS = {"numpy", "minecost.dataset", "minecost.econometrics", "minecost.backtest"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return cold_start.commands(tmp_path_factory.mktemp("cold"))


def test_price_loads_no_numpy_and_no_analysis_module(runs):
    loaded = set(cold_start.loaded(SRC, runs["price"]))
    # Run as __main__, the CLI module itself is not listed as minecost.cli.
    assert loaded == {"minecost", "minecost.errors", "minecost.pricing"}


def test_a_table_regression_loads_no_backtest(runs):
    loaded = set(cold_start.loaded(SRC, runs["regress"]))
    assert {"numpy", "minecost.dataset", "minecost.econometrics"} <= loaded
    assert not {"minecost.backtest", "minecost.fetch"} & loaded


@pytest.mark.parametrize("command", ["ratio", "var", "backtest"])
def test_an_analysis_loads_no_fetch(runs, command):
    loaded = set(cold_start.loaded(SRC, runs[command]))
    assert ANALYSIS <= loaded
    assert "minecost.fetch" not in loaded


def test_importing_the_package_loads_no_numpy():
    probe = ("import minecost, sys; "
             "print(sorted(m for m in sys.modules if m.startswith(('minecost', 'numpy'))))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['minecost']\n"


def test_every_subcommand_is_timed_and_its_imports_listed(capsys):
    cpus = os.sched_getaffinity(0)
    assert cold_start.main(["--runs", "1"]) == 0
    assert os.sched_getaffinity(0) == cpus  # later tests' children get every CPU
    result = json.loads(capsys.readouterr().out)
    assert result["runs"] == 1
    [tree] = result["trees"]
    assert tree["src"] == str(SRC)
    assert isinstance(tree["bytecode_cached"], bool)
    assert tree["dont_write_bytecode"] == bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    commands = tree["commands"]
    assert set(commands) == {"price", "backtest", "regress", "var", "ratio", "fetch"}
    assert all(0.0 < c["min_ms"] <= c["median_ms"] for c in commands.values())
    assert "numpy" not in commands["price"]["loaded"]
    assert "minecost.fetch" in commands["fetch"]["loaded"]


def test_bytecode_of_this_python_in_the_tree_is_seen(tmp_path):
    source = tmp_path / "minecost" / "errors.py"
    source.parent.mkdir()
    source.write_text("")
    assert not cold_start.bytecode_cached(tmp_path)
    py_compile.compile(str(source), cfile=importlib.util.cache_from_source(str(source)))
    assert cold_start.bytecode_cached(tmp_path)


def test_fetch_that_only_caches_loads_no_numpy_and_no_dataset(tmp_path):
    argv = cold_start.commands(tmp_path)["fetch"]
    cold_start.fill_cache(tmp_path / "cache")
    loaded = set(cold_start.loaded(SRC, argv))
    assert loaded == {"minecost", "minecost.errors", "minecost.fetch", "minecost.pricing"}


# The handler runs at interpreter exit, after process_main has returned.
ATEXIT_PROBE = """\
import atexit, gc, runpy
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
runpy.run_module("minecost.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [(["ratio"], 0), (["ratio", "--lags"], 2)])
def test_a_cli_process_exits_with_the_collector_off_and_frozen(argv, code):
    result = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *argv], capture_output=True,
                            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert result.returncode == code
    assert result.stdout.splitlines()[-1] == "False True"


def _console_script():
    """``(module, function)`` of the ``minecost`` console script."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return tuple(project["scripts"]["minecost"].split(":"))


def test_the_console_script_is_the_process_entry():
    assert _console_script() == ("minecost", "_main")


# Counts the collections of a `python -m minecost.cli var --format json`
# process: all of them, and those that start once cli.py runs, which are the
# ones after its own compilation.
COLLECTIONS_PROBE = """\
import gc, os, runpy, sys
counts = {"all": 0, "cli": 0}
def running_cli():
    frame = sys._getframe()
    while frame is not None:
        if frame.f_code.co_filename.endswith(os.path.join("minecost", "cli.py")):
            return True
        frame = frame.f_back
    return False
def count(phase, info):
    if phase == "start":
        counts["all"] += 1
        counts["cli"] += running_cli()
gc.callbacks.append(count)
try:
    runpy.run_module("minecost.cli", run_name="__main__", alter_sys=True)
finally:
    print(counts["all"], counts["cli"], file=sys.stderr)
"""


def test_a_cli_process_run_as_a_module_runs_no_collection(tmp_path):
    """The first run compiles cli.py, which may itself trigger a collection;
    the second loads the bytecode the first wrote, as an install does."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path))
    counts = []
    for _ in range(2):
        result = subprocess.run([sys.executable, "-c", COLLECTIONS_PROBE, "var", "--format",
                                 "json"], capture_output=True, text=True, timeout=120,
                                env=env)
        assert result.returncode == 0, result.stderr
        counts.append(tuple(map(int, result.stderr.splitlines()[-1].split())))
    (_, compiled_in_cli), cached = counts
    assert compiled_in_cli == 0
    assert cached == (0, 0)


# The wrapper pip writes for the console script, after a prelude that counts
# the collections of the process and prints them at exit, once the entry has
# returned.
SCRIPT_PROBE = """\
import atexit, gc, sys
starts = []
def count(phase, info):
    if phase == "start":
        starts.append(info)
gc.callbacks.append(count)
atexit.register(lambda: print(len(starts), file=sys.stderr))
import re
import sys
from {module} import {function}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({function}())
"""


def test_the_console_script_runs_no_collection(tmp_path):
    """As for ``python -m``: the first run compiles, the second loads bytecode."""
    module, function = _console_script()
    probe = SCRIPT_PROBE.format(module=module, function=function)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path))
    counts = []
    for _ in range(2):
        result = subprocess.run([sys.executable, "-c", probe, "var", "--format", "json"],
                                capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith('{\n  "granger"')
        counts.append(int(result.stderr.splitlines()[-1]))
    assert counts[1] == 0
