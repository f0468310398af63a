"""tools/report_diff.py: floats compared by relative difference, the rest exactly."""

import json

import pytest

from minecost.cli import main
from tests.conftest import load_script

report_diff = load_script("tools/report_diff.py")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["backtest", "--out-dir", str(out), "--no-provenance-timestamps"]) == 0
    return json.loads((out / "report.json").read_text())


def _write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return str(path)


def test_identical_reports_have_no_difference(report, tmp_path, capsys):
    a = _write(tmp_path / "a.json", report)
    b = _write(tmp_path / "b.json", report)
    assert report_diff.main([a, b]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max relative float difference 0.000e+00 at ")
    assert "(0 of " in out


def test_perturbed_float_is_reported_with_its_path(report, tmp_path, capsys):
    moved = json.loads(json.dumps(report))
    moved["var"]["coef_matrices"][1][0][1] *= 1 + 3e-9
    moved["ratio"]["mean"] *= 1 + 1e-12
    a = _write(tmp_path / "a.json", report)
    b = _write(tmp_path / "b.json", moved)
    assert report_diff.main([a, b]) == 0
    out = capsys.readouterr().out
    assert "at var.coef_matrices[1][0][1] (2 of " in out
    assert float(out.split()[4]) == pytest.approx(3e-9, rel=1e-3)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d["var"].__setitem__("lag_order", 3), "var.lag_order"),
        (lambda d: d["granger"][0].__setitem__("df", 2.0), "granger[0].df"),
        (lambda d: d["episodes"][0].__setitem__("start_date", "2013-12-01"),
         "episodes[0].start_date"),
        (lambda d: d["prices"].pop(), "prices: list lengths"),
        (lambda d: d["var"].pop("nobs"), "var: keys differ"),
        (lambda d: d["lag_selection"].__setitem__("all_failed_whiteness", True),
         "lag_selection.all_failed_whiteness"),
    ],
)
def test_non_float_difference_fails(report, tmp_path, capsys, edit, where):
    changed = json.loads(json.dumps(report))
    edit(changed)
    a = _write(tmp_path / "a.json", report)
    b = _write(tmp_path / "b.json", changed)
    assert report_diff.main([a, b]) == 1
    assert f"non-float difference: {where}" in capsys.readouterr().out
