#!/usr/bin/env python3
"""Wall time of the tier-1 suite and where it goes, written as BENCH_tier1.json.

Run from the repo root:

    python3 tools/suite_times.py [--runs N] [--out FILE] [TEST ...]

Each run is one process of the tier-1 command,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``, on
TEST (default: the whole suite), with this module loaded as a pytest plugin
(``-p tools.suite_times``). The plugin records the collection time and the
duration of every setup, call and teardown, unrounded: ``--durations``
prints them to 0.01 s, and most phases take less than that.

FILE (default ``BENCH_tier1.json``) holds the median over the runs of the
wall time, pytest's session time, the collection time, the sum of each
phase and the sum per test file; the outcome counts and exit status of each
run; the machine (CPUs, CPU model, Python, numpy, BLAS); and the commit,
with whether the tree differed from it. The exit status is the worst of the
runs' pytest exit statuses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
LOG = "SUITE_TIMES_LOG"  # the file the plugin appends its records to
PHASES = ("setup", "call", "teardown")
OUTCOMES = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)")


# --- pytest plugin: active only in a run this script starts -----------------


def _record(**fields) -> None:
    if LOG in os.environ:
        with open(os.environ[LOG], "a", encoding="utf-8") as log:
            log.write(json.dumps(fields) + "\n")


def pytest_sessionstart(session) -> None:
    _record(started=time.perf_counter())


def pytest_collection_finish(session) -> None:
    _record(collected=time.perf_counter())


def pytest_runtest_logreport(report) -> None:
    _record(nodeid=report.nodeid, phase=report.when, s=report.duration)


# --- the harness ------------------------------------------------------------


def run_once(tests: list[str]) -> dict:
    """Wall time, outcome and timing records of one tier-1 process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        env[LOG] = log = os.path.join(scratch, "log.jsonl")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *TIER1, "-p", "tools.suite_times", *tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        records = ([json.loads(line) for line in Path(log).read_text().splitlines()]
                   if os.path.exists(log) else [])
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    session = re.search(r" in ([\d.]+)s", summary)
    phases = dict.fromkeys(PHASES, 0.0)
    files = defaultdict(float)
    marks = {}
    for record in records:
        if "phase" in record:
            phases[record["phase"]] += record["s"]
            files[record["nodeid"].split("::")[0]] += record["s"]
        else:
            marks.update(record)
    return {
        "wall_s": wall,
        "session_s": float(session.group(1)) if session else None,
        "collection_s": (marks["collected"] - marks["started"]
                         if {"started", "collected"} <= marks.keys() else None),
        "phases_s": phases,
        "files_s": dict(files),
        "outcomes": {name: int(count) for count, name in OUTCOMES.findall(summary)},
        "exit_status": done.returncode,
    }


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": next((line.split(":", 1)[1].strip() for line in lines
                     if line.startswith("model name")), platform.processor()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return round(statistics.median(values), 3) if values else None


def summarize(runs: list[dict], tests: list[str], out: Path) -> dict:
    """The medians of ``runs``, the machine and the commit, as written to ``out``."""
    changed = [(ROOT / line[3:]).resolve()
               for line in _git("status", "--porcelain").splitlines()]
    files = sorted({name for run in runs for name in run["files_s"]})
    return {
        "command": " ".join(["PYTHONPATH=src python", *TIER1, *tests]),
        "runs": len(runs),
        "wall_s": _median(run["wall_s"] for run in runs),
        "session_s": _median(run["session_s"] for run in runs),
        "collection_s": _median(run["collection_s"] for run in runs),
        "phases_s": {phase: _median(run["phases_s"][phase] for run in runs)
                     for phase in PHASES},
        "files_s": dict(sorted(
            ((name, _median(run["files_s"].get(name, 0.0) for run in runs))
             for name in files), key=lambda item: -item[1])),
        "outcomes": [run["outcomes"] for run in runs],
        "exit_status": [run["exit_status"] for run in runs],
        "machine": machine(),
        "commit": _git("rev-parse", "HEAD") or None,
        "uncommitted_changes": any(path != out.resolve() for path in changed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs of the suite (default 3)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tier1.json",
                        help="file to write (default BENCH_tier1.json at the repo root)")
    parser.add_argument("tests", nargs="*", help="test paths (default: the whole suite)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = [run_once(args.tests) for _ in range(args.runs)]
    result = summarize(runs, args.tests, args.out)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in
                      ("wall_s", "session_s", "collection_s", "phases_s")}))
    return max(result["exit_status"])


if __name__ == "__main__":
    sys.exit(main())
