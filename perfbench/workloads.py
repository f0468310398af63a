"""The benchmark's workloads: how each sets up, runs one op and checks it.

Why these three:

* ``cli-cold`` - every real CLI call pays for interpreter start-up and
  imports, about 90% of an op; it exercises ``startup`` and little else.
* ``long-history`` - the full-history use of the tool (6,000 daily rows, a
  400-step efficiency table): serialization, series building and parsing
  dominate, where per-row work matters.
* ``sweep`` - an electricity-price sensitivity sweep over the bundled 126
  rows with no I/O: nine small fits per op, where per-call overhead in
  ``econometrics`` dominates. A solver change that trades overhead for
  per-row cost shows on this one or on ``long-history``.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import check
import inputs
from tracing import parse_importtime

HERE = Path(__file__).resolve().parent
COLD_CHILD = HERE / "cold_child.py"
ARTIFACTS = ("report.txt", "report.json", "figure1.csv", "figure2.csv")


@dataclass
class Outcome:
    """What one op returned, for the output check and the metrics."""

    duration: float
    output: object
    bytes_written: int = 0
    # Traced cli-cold only: import times from -X importtime, and the time
    # the child spent inside top-level layer spans.
    imports: dict = field(default_factory=dict)
    spans_ms: float = 0.0


class Workload:
    """Set-up prepares the inputs, then runs warm-up ops."""

    warmup_ops = 1

    def setup(self) -> None:
        self.prepare()
        for i in range(self.warmup_ops):
            try:
                self.run(i, None)
            except Exception:  # the timed loop counts and reports failing ops
                pass


def _clear(out_dir: Path) -> None:
    """Remove the previous op's artifacts, so a missing write cannot pass."""
    for name in ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)


def _artifact_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in ARTIFACTS)


def _check_report_dir(out_dir: Path, expected: dict):
    problems = [f"{name} missing" for name in ARTIFACTS if not (out_dir / name).is_file()]
    if problems:
        return problems, 0.0
    with open(out_dir / "report.json") as fh:
        return check.compare(check.summarize(json.load(fh)), expected)


class CliCold(Workload):
    """One fresh ``python -m minecost.cli`` process per op, cycling a mix."""

    name = "cli-cold"

    def __init__(self, seed: int, workdir: Path, references: dict):
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.references = references
        self.start, self.prices = inputs.cli_plan(seed)
        self.peak_rss_mb = 0.0

    def kind(self, i: int) -> str:
        return inputs.CLI_MIX[(self.start + i) % len(inputs.CLI_MIX)]

    def argv(self, i: int) -> list[str]:
        kind = self.kind(i)
        if kind == "backtest":
            return ["backtest", "--lags", "auto", "--no-provenance-timestamps",
                    "--out-dir", str(self.out_dir)]
        if kind == "var":
            return ["var", "--format", "json"]
        if kind == "price":
            p = self.prices[i % len(self.prices)]
            return ["price", "--difficulty", repr(p["difficulty"]),
                    "--efficiency", repr(p["efficiency"]),
                    "--reward", repr(p["reward"]),
                    "--electricity", repr(p["electricity"])]
        return [kind]

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        super().setup()  # the warm-up compiles bytecode and warms the file cache
        self.peak_rss_mb = 0.0

    def run(self, i: int, tracer) -> Outcome:
        spans_path = self.workdir / "spans.json"
        if tracer is None:
            command = [sys.executable, "-m", "minecost.cli", *self.argv(i)]
        else:
            command = [sys.executable, "-X", "importtime", str(COLD_CHILD),
                       str(spans_path), *self.argv(i)]
        stdout_path, stderr_path = self.workdir / "stdout", self.workdir / "stderr"
        _clear(self.out_dir)
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            duration = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        stdout = stdout_path.read_text()
        outcome = Outcome(duration, (proc.returncode, stdout), len(stdout))
        if self.kind(i) == "backtest" and proc.returncode == 0:
            outcome.bytes_written += _artifact_bytes(self.out_dir)
        if tracer is not None:
            outcome.imports = parse_importtime(stderr_path.read_text())
            if proc.returncode == 0:
                spans = tracer.absorb(spans_path, i)
                outcome.spans_ms = 1e3 * sum(
                    end - begin for _, begin, end, parent, _ in spans if parent < 0
                )
        return outcome

    def check(self, i: int, outcome: Outcome):
        code, stdout = outcome.output
        if code != 0:
            return [f"exit status {code}"], 0.0
        kind = self.kind(i)
        references = self.references["cli-cold"]
        if kind == "backtest":
            return _check_report_dir(self.out_dir, references["backtest"])
        if kind == "var":
            return check.compare(check.summarize(json.loads(stdout)), references["var"])
        if kind == "price":
            p = self.prices[i % len(self.prices)]
            expected = inputs.model_price(
                p["electricity"], p["efficiency"], p["difficulty"], p["reward"]
            )
            return check.compare_text(stdout, f"{expected:.2f}\n")
        return check.compare_text(stdout, references[kind])

    def peak_rss(self) -> float:
        return self.peak_rss_mb


class _InProcess(Workload):
    """Workloads that call minecost in this process."""

    def run(self, i: int, tracer) -> Outcome:
        if tracer is None:
            start = time.perf_counter()
            output = self.op(i)
            return Outcome(time.perf_counter() - start, output)
        with tracer.op(i) as root:
            output = self.op(i)
        return Outcome(root[2] - root[1], output)

    def peak_rss(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LongHistory(_InProcess):
    """``minecost.cli.main(["backtest", ...])`` on a 6,000-day synthetic history."""

    name = "long-history"

    def __init__(self, seed: int, workdir: Path, references: dict):
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.variant = inputs.history_variant(seed)
        self.references = references

    def prepare(self) -> None:
        import minecost.cli

        self.cli = minecost.cli
        files = inputs.write_long_history(self.variant, self.workdir / "input")
        self.argv = [
            "backtest",
            "--observations", str(files["observations"]),
            "--efficiency", str(files["efficiency"]),
            "--rewards", str(files["rewards"]),
            "--lags", "auto",
            "--no-provenance-timestamps",
            "--out-dir", str(self.out_dir),
        ]

    def op(self, i: int):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = self.cli.main(self.argv)
        return code, stdout.getvalue()

    def run(self, i: int, tracer) -> Outcome:
        _clear(self.out_dir)
        outcome = super().run(i, tracer)
        code, stdout = outcome.output
        if code == 0:
            outcome.bytes_written = len(stdout) + _artifact_bytes(self.out_dir)
        return outcome

    def check(self, i: int, outcome: Outcome):
        code, stdout = outcome.output
        if code != 0:
            return [f"exit status {code}"], 0.0
        if not stdout.startswith("Production-cost backtest report"):
            return ["stdout is not the report table"], 0.0
        reference = self.references["long-history"][str(self.variant)]
        return _check_report_dir(self.out_dir, reference)


class Sweep(_InProcess):
    """``run_backtest`` on the bundled data across a seeded electricity grid."""

    name = "sweep"
    warmup_ops = 5

    def __init__(self, seed: int, workdir: Path, references: dict):
        self.prices = inputs.sweep_prices(seed)
        self.references = references

    def prepare(self) -> None:
        import minecost.backtest
        from minecost.dataset import load_bundled

        self.backtest = minecost.backtest
        self.records, self.schedule, self.table = load_bundled()

    def op(self, i: int):
        config = self.backtest.BacktestConfig(
            electricity_price=self.prices[i % len(self.prices)],
            lags=None,
            include_timestamp=False,
        )
        return self.backtest.run_backtest(self.records, self.schedule, self.table, config)

    def check(self, i: int, outcome: Outcome):
        factor = self.prices[i % len(self.prices)] / inputs.DEFAULT_ELECTRICITY
        expected = check.at_electricity(self.references["sweep"], factor)
        return check.compare(check.summarize(outcome.output.to_dict()), expected)


WORKLOADS = {w.name: w for w in (CliCold, LongHistory, Sweep)}
