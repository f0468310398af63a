#!/usr/bin/env python3
"""Wall time and import footprint of each cold ``minecost`` subcommand.

Shows what a change to the package's imports saves a fresh CLI process.
Run from the repo root:

    python3 tools/cold_start.py [--src DIR [--src DIR]] [--runs N]

Each ``--src`` is a source tree (default: this checkout's ``src``); pass two
to compare checkouts. Every subcommand runs ``--runs`` times per tree as
``python -m minecost.cli ...``, one fresh process per run, on the bundled
data; the trees take turns, in an order that flips every run. ``fetch``
reads a cache filled beforehand and touches no network. One more run of
each subcommand per tree lists the modules it loaded. This process pins
itself, and so its children, to one CPU while it measures.

Printed as JSON, per tree and subcommand: the min and median wall time in
milliseconds, and which of ``numpy`` and ``minecost.*`` the run loaded. Per
tree, also the bytecode state, which moves a cold run by tens of
milliseconds: whether its ``minecost/__pycache__`` held bytecode for this
Python before the runs, and ``sys.flags.dont_write_bytecode`` of its child
processes (set when they write none).
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Runs ``python -m minecost.cli ARGS`` as ``-m`` does, then prints the numpy
# and minecost modules it loaded, as JSON, on the last line of stderr.
PROBE = """\
import json, runpy, sys
try:
    runpy.run_module("minecost.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(name for name in sys.modules
                            if name == "numpy" or name.split(".")[0] == "minecost")),
          file=sys.stderr)
"""


def commands(workdir: Path) -> dict[str, list[str]]:
    """The arguments of each subcommand's run."""
    return {
        "price": ["price", "--difficulty", "1e12", "--efficiency", "0.25",
                  "--reward", "12.5"],
        "backtest": ["backtest", "--no-provenance-timestamps",
                     "--out-dir", str(workdir / "out")],
        "regress": ["regress"],
        "var": ["var"],
        "ratio": ["ratio"],
        # Port 9 on the loopback refuses: a cache miss is an error, not a download.
        "fetch": ["fetch", "--cache-dir", str(workdir / "cache"),
                  "--base-url", "http://127.0.0.1:9"],
    }


def fill_cache(cache_dir: Path) -> None:
    """Today's file of each chart, which ``fetch`` serves instead of downloading.

    The names follow ``minecost.fetch.cache_file_for``.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    for kind in ("difficulty", "market-price"):
        path = cache_dir / f"{kind}-{dt.date.today():%Y%m%d}.csv"
        path.write_text("2017-01-01 00:00:00,1\n")


def _run(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                            text=True, timeout=120)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {result.returncode}: {result.stderr}")
    return result


def wall_ms(src: Path, argv: list[str]) -> float:
    """Milliseconds of one ``python -m minecost.cli ARGV`` process."""
    start = time.perf_counter()
    _run(src, ["-m", "minecost.cli", *argv])
    return 1e3 * (time.perf_counter() - start)


def loaded(src: Path, argv: list[str]) -> list[str]:
    """numpy and the minecost modules one ``minecost ARGV`` process loads."""
    return json.loads(_run(src, ["-c", PROBE, *argv]).stderr.splitlines()[-1])


def bytecode_cached(src: Path) -> bool:
    """Whether ``src/minecost/__pycache__`` holds bytecode for this Python."""
    pattern = f"*.{sys.implementation.cache_tag}.pyc"
    return any((src / "minecost" / "__pycache__").glob(pattern))


def dont_write_bytecode(src: Path) -> bool:
    """``sys.flags.dont_write_bytecode`` of a child process run on ``src``."""
    probe = "import sys; print(sys.flags.dont_write_bytecode)"
    return bool(int(_run(src, ["-c", probe]).stdout))


def measure(trees: list[Path], repeats: int, cpu: int) -> dict:
    """The printed result: ``repeats`` timed runs of each subcommand per tree."""
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        runs = commands(workdir)
        cached = {src: bytecode_cached(src) for src in trees}
        times = {src: {name: [] for name in runs} for src in trees}
        for run in range(repeats):
            for name, command in runs.items():
                for src in trees if run % 2 == 0 else trees[::-1]:
                    if name == "fetch":
                        fill_cache(workdir / "cache")
                    times[src][name].append(wall_ms(src, command))
        fill_cache(workdir / "cache")
        return {
            "runs": repeats,
            "cpu": cpu,
            "trees": [{
                "src": str(src),
                "bytecode_cached": cached[src],
                "dont_write_bytecode": dont_write_bytecode(src),
                "commands": {name: {
                    "min_ms": round(min(ms), 2),
                    "median_ms": round(statistics.median(ms), 2),
                    "loaded": loaded(src, runs[name]),
                } for name, ms in times[src].items()},
            } for src in trees],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="source tree to import minecost from (repeatable)")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per subcommand")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src or [SRC]]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        result = measure(trees, args.runs, max(cpus))
    finally:  # an in-process caller gets its CPUs back
        os.sched_setaffinity(0, cpus)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
