#!/usr/bin/env python3
"""Capture the output-check references from the minecost in ./src.

Run from the root of a checkout, at a commit whose outputs are trusted:

    python3 perfbench/capture_references.py

It rewrites perfbench/references.json: the cli-cold outputs on the bundled
data, the sweep summary at the default electricity price (other prices are
derived from it, see check.at_electricity), and one summary for each
long-history variant.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings

import check
import inputs
import run
from workloads import CliCold, LongHistory, Sweep


def main() -> int:
    run.pin_environment()
    # A carried-forward efficiency or a rising table would mean the inputs
    # are not what the workloads promise.
    warnings.simplefilter("error", UserWarning)
    workdir = run.WORK / "capture"
    references = {"cli-cold": {}, "long-history": {}}
    try:
        cold = CliCold(0, workdir / "cli-cold", references)
        cold.prepare()
        for i, kind in enumerate(inputs.CLI_MIX):
            i = (i - cold.start) % len(inputs.CLI_MIX)
            code, stdout = cold.run(i, None).output
            if code != 0:
                raise SystemExit(f"{kind} exited with status {code}")
            if kind == "backtest":
                payload = json.loads((cold.out_dir / "report.json").read_text())
                references["cli-cold"][kind] = check.summarize(payload)
            elif kind == "var":
                references["cli-cold"][kind] = check.summarize(json.loads(stdout))
            elif kind != "price":  # price is checked against the closed form
                references["cli-cold"][kind] = stdout

        sweep = Sweep(0, workdir / "sweep", references)
        sweep.prices = [inputs.DEFAULT_ELECTRICITY]
        sweep.prepare()
        references["sweep"] = check.summarize(sweep.run(0, None).output.to_dict())

        for variant in range(inputs.HISTORY_VARIANTS):
            history = LongHistory(variant, workdir / "long-history", references)
            history.prepare()
            code, _ = history.run(0, None).output
            if code != 0:
                raise SystemExit(f"long-history variant {variant} exited with {code}")
            payload = json.loads((history.out_dir / "report.json").read_text())
            references["long-history"][str(variant)] = check.summarize(payload)
            print(f"long-history {variant}: ratio mean "
                  f"{payload['ratio']['mean']:.3f}, max {payload['ratio']['max']:.2f}, "
                  f"p = {payload['lag_selection']['chosen_p']}, "
                  f"{len(payload['episodes'])} episodes", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "references.json").write_text(
        json.dumps(references, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
