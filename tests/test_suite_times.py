"""tools/suite_times.py, which times the tier-1 suite into BENCH_tier1.json."""

import json
import re

from tests.conftest import load_script

suite_times = load_script("tools/suite_times.py")


def test_one_run_of_one_file_is_timed_and_written(tmp_path):
    out = tmp_path / "BENCH_tier1.json"
    target = "tests/test_report_diff.py"
    assert suite_times.main(["--runs", "1", "--out", str(out), target]) == 0
    result = json.loads(out.read_text())
    assert result["command"].endswith(f"--continue-on-collection-errors {target}")
    assert (result["runs"], result["exit_status"]) == (1, [0])
    [outcomes] = result["outcomes"]
    assert set(outcomes) == {"passed"} and outcomes["passed"] > 0
    assert list(result["files_s"]) == [target]
    phases = result["phases_s"]
    assert set(phases) == {"setup", "call", "teardown"}
    assert all(seconds >= 0.0 for seconds in phases.values())
    # Each figure is rounded to 1 ms on its own.
    assert abs(sum(phases.values()) - result["files_s"][target]) <= 0.002
    assert 0.0 < result["collection_s"] < result["session_s"] < result["wall_s"]
    assert set(result["machine"]) == {"nproc", "cpu", "python", "numpy", "blas"}
    assert result["commit"] is None or re.fullmatch(r"[0-9a-f]{40}", result["commit"])
    assert isinstance(result["uncommitted_changes"], bool)
