"""tools/artifact_digests.py: digests of the CLI's output, compared by name.

``golden_digests.json`` is the tool's output on the bundled data, the one
golden record of every bundled artifact and stdout. A change that means to
move an output re-pins it with

    PYTHONPATH=src python3 tools/artifact_digests.py > tests/golden_digests.json
"""

import json
from pathlib import Path

import pytest

from tests.conftest import load_script

artifact_digests = load_script("tools/artifact_digests.py")
GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


@pytest.fixture(scope="module")
def bundled():
    return artifact_digests.digests([])


def test_every_call_is_digested(bundled):
    # 6 backtest calls x (stdout + 4 files) + 6 analysis stdouts + 2 price stdouts
    assert len(GOLDEN) == 38
    differ = sorted(k for k in GOLDEN.keys() | bundled.keys()
                    if GOLDEN.get(k) != bundled.get(k))
    assert differ == []
    assert (bundled["bundled/backtest/json/report.json"]
            == bundled["bundled/backtest/json/stdout"])


def test_a_run_against_itself_passes(bundled, tmp_path, capsys):
    before = tmp_path / "before.json"
    before.write_text(json.dumps(bundled))
    assert artifact_digests.main(["--against", str(before)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == bundled
    assert captured.err == "38 of 38 digests match\n"


def test_an_edited_entry_is_reported(bundled, tmp_path, capsys):
    edited = dict(bundled, **{"bundled/var/json/stdout": "0" * 64})
    before = tmp_path / "before.json"
    before.write_text(json.dumps(edited))
    assert artifact_digests.main(["--against", str(before)]) == 1
    assert capsys.readouterr().err == (
        "differs: bundled/var/json/stdout\n37 of 38 digests match\n"
    )
