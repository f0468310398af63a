#!/usr/bin/env python3
"""minecost benchmark: one closed-loop client, one workload per process.

Run from the root of a checkout (minecost is imported from ./src):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md). The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
from tracing import OP_SPAN, Tracer, layer_metrics, parse_importtime, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_build" / "perfbench"

# Identical for parent and change, and never more threads than cores: the
# largest product here is 6,000 x 17, too small for a BLAS thread pool to pay.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ALLOWED_CPUS = os.sched_getaffinity(0)
SETUP_PROBES = 7
CALIBRATE_EVERY_S = 0.25  # see calibrate.py; the kernel then takes 2-4% of a run
MIN_OPS = 4  # per timed side, so that a tiny --seconds still yields a result
STARTUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (used to time set-up)")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Pin BLAS threads, the CPU and ./src imports, for us and every child.

    Runs before anything loads numpy, which reads the thread variables once.
    One CPU for the whole run means that the calibration kernel runs on the
    same CPU as every op and every child process (calibrate.py).
    """
    os.sched_setaffinity(0, {max(ALLOWED_CPUS)})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def time_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that only set the workload up.

    Returns the median of the scaled times (calibrate.py: the kernel runs
    before and after each process) and the median of the raw wall times.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    scaler = calibrate.Scaler(0.0)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
        scaler.add(times[-1])
        scaler.close()
    return statistics.median(scaler.scaled), statistics.median(times)


def startup_imports() -> dict:
    """Median import split of fresh ``import minecost.cli`` processes."""
    runs = []
    for _ in range(STARTUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import minecost.cli"],
            check=True, capture_output=True, text=True, timeout=60,
        )
        runs.append(parse_importtime(done.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def measure(workload, seconds: float, trace: bool):
    """Closed loop for ``seconds``; with ``trace``, odd ops run traced.

    Untraced op times are also scaled to the reference CPU speed
    (calibrate.py) for the end-to-end metrics.
    """
    tracer = Tracer() if trace else None
    durations = {False: [], True: []}
    scaler = calibrate.Scaler(CALIBRATE_EVERY_S)
    traced_outcomes = []
    attempted = failed = 0
    worst = 0.0
    sides = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
        attempted < 10 * MIN_OPS and any(len(durations[s]) < MIN_OPS for s in sides)
    ):
        i = attempted
        attempted += 1
        traced = trace and i % 2 == 1
        try:
            outcome = workload.run(i, tracer if traced else None)
            problems, rel = workload.check(i, outcome)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        durations[traced].append(outcome.duration)
        if traced:
            traced_outcomes.append(outcome)
        else:
            scaler.add(outcome.duration)
        scaler.tick()
        worst = max(worst, rel)
        if problems:
            failed += 1
            print(f"op {i} failed its check: {problems[:3]}", file=sys.stderr)
    scaler.close()
    return tracer, durations, scaler, traced_outcomes, attempted, failed, worst


def end_to_end(durations: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms_p50": 1e3 * statistics.median(durations),
        "op_ms_p90": 1e3 * statistics.quantiles(durations, n=10)[8],
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, durations, traced_outcomes, worst) -> dict:
    traced = durations[True]
    n = len(traced)
    metrics = layer_metrics(tracer.spans, tracer.counts, n)
    if traced_outcomes[0].imports:  # cli-cold: imports measured on every traced op
        imports = {key: statistics.median(o.imports[key] for o in traced_outcomes)
                   for key in ("numpy", "requests", "minecost")}
        unattributed = statistics.mean(
            1e3 * o.duration - o.imports["total"] - o.spans_ms for o in traced_outcomes
        )
    else:
        imports = startup_imports()
        unattributed = 1e3 * self_times(tracer.spans).get(OP_SPAN, 0.0) / n
    metrics.update({
        "startup.import_numpy_ms": imports["numpy"],
        "startup.import_requests_ms": imports["requests"],
        "startup.import_minecost_ms": imports["minecost"],
        "cli.bytes_written": statistics.mean(o.bytes_written for o in traced_outcomes),
        "trace.unattributed_ms": unattributed,
        "trace.overhead_pct": 100.0 * (
            statistics.mean(traced) / statistics.mean(durations[False]) - 1.0
        ),
        "check.max_rel_diff": worst,
    })
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "minecost").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (CHECKOUT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(ALLOWED_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minecost" / "__init__.py").is_file():
        print(f"perfbench: no minecost sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, references)
        if args.setup_only:
            workload.setup()
            return 0
        setup_s, raw_setup_s = (None, None) if args.trace else time_setup(args)
        workload.setup()
        tracer, durations, scaler, traced_outcomes, attempted, failed, worst = measure(
            workload, args.seconds, bool(args.trace)
        )
        if args.trace:
            metrics = per_layer(tracer, durations, traced_outcomes, worst)
        else:
            metrics = end_to_end(scaler.scaled, setup_s, workload.peak_rss())
            raw = end_to_end(durations[False], raw_setup_s, metrics["peak_rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    samples = {side: len(values) for side, values in
               (("untraced", durations[False]), ("traced", durations[True])) if values}
    print(f"workload: {args.workload}  seed: {args.seed}  samples: {samples}  "
          f"failed_ratio: {failed / attempted:.4g} ({failed}/{attempted})  "
          f"check.max_rel_diff: {worst:.3g}")
    kernel = scaler.kernel_times
    print(f"calibration: {len(kernel)} kernel runs, median {statistics.median(kernel):.4g} ms, "
          f"reference {calibrate.REFERENCE_MS} ms"
          + ("" if args.trace else "; unscaled: " + "  ".join(
              f"{name} {value:.6g}" for name, value in raw.items() if name != "peak_rss_mb")))
    result_metrics = {}
    for name, value in metrics.items():
        result_metrics[name] = {"value": value, "unit": UNITS[name]}
        print(f"  {name:<32} {value:>14.6g} {UNITS[name]}")
    if args.trace:
        trace_dir = CHECKOUT / ".bench_build" / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
