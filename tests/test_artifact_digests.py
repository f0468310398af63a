"""tools/artifact_digests.py: digests of the CLI's output, compared by name."""

import json

import pytest

from tests.conftest import load_script
from tests.test_cli import BUNDLED_REPORT_JSON_SHA256

artifact_digests = load_script("tools/artifact_digests.py")


@pytest.fixture(scope="module")
def bundled():
    return artifact_digests.digests([])


def test_every_call_is_digested(bundled):
    # 6 backtest calls x (stdout + 4 files) + 6 analysis stdouts + 2 price stdouts
    assert len(bundled) == 38
    assert bundled["bundled/backtest/json/report.json"] == BUNDLED_REPORT_JSON_SHA256
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
