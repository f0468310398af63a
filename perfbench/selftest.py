#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A one-second run of every workload, untraced and traced, must pass its
   output check and print exactly the metrics BENCHMARK.json names, each
   with its unit.
2. The output check must reject perturbed references: a wrong lag order,
   swapped Granger directions, a float moved by 1e-4, a lost episode and a
   changed number in rendered text, on real ops of every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import inputs
import run
from workloads import WORKLOADS


def smoke(workload: str, trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        return [f"{workload} trace={trace}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    wanted = {m["name"]: m["unit"] for m in run.SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{result['failed']}/{result['attempted']} ops failed")
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}"
                        f" or units {[(k, got.get(k), u) for k, u in wanted.items() if got.get(k) != u]}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def perturbations(summary: dict):
    """(label, perturbed copy) pairs that a correct check must reject."""
    if "lag.chosen_p" in summary:
        wrong_p = dict(summary, **{"lag.chosen_p": summary["lag.chosen_p"] % 8 + 1})
        yield "lag order", wrong_p
    forward = "granger.market->model"
    backward = "granger.model->market"
    if f"{forward}.chi2" in summary:
        swapped = dict(summary)
        for key in ("chi2", "p_value"):
            swapped[f"{forward}.{key}"] = summary[f"{backward}.{key}"]
            swapped[f"{backward}.{key}"] = summary[f"{forward}.{key}"]
        yield "granger direction", swapped
    for key, value in summary.items():
        if isinstance(value, float) and value:
            yield f"float {key}", dict(summary, **{key: value * (1 + 1e-4)})
            break
    if summary.get("episodes.dates"):
        yield "episode", dict(summary, **{"episodes.dates": summary["episodes.dates"][1:]})


def check_rejects(name: str, references: dict) -> list[str]:
    """Run real ops against perturbed references; each must fail the check."""
    workdir = run.WORK / f"selftest-{name}"
    problems = []
    try:
        workload = WORKLOADS[name](0, workdir, references)
        workload.prepare()
        for i in range(len(inputs.CLI_MIX) if name == "cli-cold" else 1):
            outcome = workload.run(i, None)
            found, _ = workload.check(i, outcome)
            if found:
                problems.append(f"{name} op {i} fails against the true reference: {found[:2]}")
            for label, bad in perturbed_references(name, workload, i, references):
                workload.references = bad
                if not workload.check(i, outcome)[0]:
                    problems.append(f"{name} op {i}: a perturbed {label} was accepted")
            workload.references = references
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def perturbed_references(name, workload, i, references):
    if name == "sweep":
        for label, bad in perturbations(references["sweep"]):
            yield label, dict(references, sweep=bad)
        return
    if name == "long-history":
        key = str(workload.variant)
        for label, bad in perturbations(references["long-history"][key]):
            yield label, dict(references, **{"long-history": {key: bad}})
        return
    kind = workload.kind(i)
    if kind == "price":
        return  # checked against the closed form, not a reference
    cold = references["cli-cold"]
    if isinstance(cold[kind], str):
        text = cold[kind]
        digit = next(k for k, c in enumerate(text) if c.isdigit() and c != "0")
        bad = text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:]
        yield "text number", dict(references, **{"cli-cold": dict(cold, **{kind: bad})})
        return
    for label, bad in perturbations(cold[kind]):
        yield label, dict(references, **{"cli-cold": dict(cold, **{kind: bad})})


def main() -> int:
    run.pin_environment()
    references = json.loads((run.HERE / "references.json").read_text())
    problems = []
    for name in WORKLOADS:
        problems += check_rejects(name, references)
        for trace in (0, 1):
            problems += smoke(name, trace)
    if check.compare_text("mean 1.183", "mean 1.184")[0]:
        problems.append("text check rejected a flip of the last printed digit")
    if not check.compare_text("mean 1.183", "mean 1.186")[0]:
        problems.append("text check accepted a change of three in the last digit")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
