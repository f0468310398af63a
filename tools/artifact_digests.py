#!/usr/bin/env python3
"""sha256 of every artifact and stdout of a fixed list of minecost CLI calls.

Checks that a change leaves the program's output byte for byte as it was.
Run from the repo root on each side of the change, with the same arguments:

    PYTHONPATH=src python3 tools/artifact_digests.py [--data DIR ...] > before.json
    PYTHONPATH=src python3 tools/artifact_digests.py [--data DIR ...] --against before.json

The analysis calls run on the bundled data and on each DIR, a directory
holding observations.csv, efficiency.csv and rewards.csv; provenance names
DIR as given, so give both sides the same paths. ``price``, which reads no
data, runs once per format on the README's inputs. Each call runs in this
process, in a fresh temporary directory with the relative ``--out-dir
out``, so the ``Artifacts written to`` line is the same on both sides. The digests are
printed as JSON ``{name: sha256}``. With ``--against FILE``, every entry
that differs from FILE, or is on one side only, is listed on stderr and the
exit status is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from minecost.cli import main as minecost

ARTIFACTS = ("report.txt", "report.json", "figure1.csv", "figure2.csv")
BACKTESTS = {"backtest": [], "backtest-auto": ["--lags", "auto"],
             "backtest-auto-e0.05": ["--lags", "auto", "--electricity", "0.05"]}
CALLS = [
    *((f"{name}/{fmt}", ["backtest", *options, "--no-provenance-timestamps",
                         "--out-dir", "out", "--format", fmt])
      for name, options in BACKTESTS.items() for fmt in ("table", "json")),
    *((f"{command}/{fmt}", [command, "--format", fmt])
      for command in ("ratio", "var", "regress") for fmt in ("table", "json")),
]
PRICE = ["price", "--electricity", "0.135", "--efficiency", "0.25",
         "--difficulty", "1e12", "--reward", "12.5"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> dict[str, str]:
    """Digests of one call's stdout and of the artifacts it wrote."""
    stdout, home = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(stdout):
                if status := minecost(argv):
                    print(f"{' '.join(argv)} exited {status}", file=sys.stderr)
            found = {name: _sha256(Path("out", name).read_bytes())
                     for name in ARTIFACTS if Path("out", name).exists()}
        finally:
            os.chdir(home)
    # surrogateescape: stdout may carry a non-UTF-8 path byte, as the files do.
    found["stdout"] = _sha256(stdout.getvalue().encode("utf-8", "surrogateescape"))
    return found


def digests(data_dirs: list[str]) -> dict[str, str]:
    sources = {"bundled": []}
    for directory in data_dirs:
        path = Path(directory).resolve()
        sources[directory] = [arg for name in ("observations", "efficiency", "rewards")
                              for arg in (f"--{name}", str(path / f"{name}.csv"))]
    found = {f"price/{fmt}/stdout": _run([*PRICE, "--format", fmt])["stdout"]
             for fmt in ("table", "json")}
    found.update(
        (f"{source}/{call}/{name}", digest)
        for source, inputs in sources.items() for call, argv in CALLS
        for name, digest in _run([*argv, *inputs]).items()
    )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", action="append", default=[], metavar="DIR")
    parser.add_argument("--against", metavar="FILE", help="digests to compare with")
    args = parser.parse_args(argv)
    found = digests(args.data)
    print(json.dumps(found, indent=2, sort_keys=True))
    if args.against is None:
        return 0
    expected = json.loads(Path(args.against).read_text())
    differ = sorted(k for k in expected.keys() | found.keys()
                    if expected.get(k) != found.get(k))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    matching = sum(expected.get(k) == digest for k, digest in found.items())
    print(f"{matching} of {len(found)} digests match", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
