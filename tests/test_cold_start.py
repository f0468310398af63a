"""What a cold CLI process imports, and tools/cold_start.py that measures it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_start.py"
_spec = importlib.util.spec_from_file_location("cold_start", TOOL)
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)

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
    assert cold_start.main(["--runs", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["runs"] == 1
    [tree] = result["trees"]
    assert tree["src"] == str(SRC)
    commands = tree["commands"]
    assert set(commands) == {"price", "backtest", "regress", "var", "ratio", "fetch"}
    assert all(0.0 < c["min_ms"] <= c["median_ms"] for c in commands.values())
    assert "numpy" not in commands["price"]["loaded"]
    assert "minecost.fetch" in commands["fetch"]["loaded"]
