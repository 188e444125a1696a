#!/usr/bin/env python3
"""Run every workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 0] [--workload NAME ...]

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median —
the acceptance measure of the benchmark contract. Workloads alternate, so a
slow minute of the machine lands on all of them. Exit code 1 when a spread
exceeds its metric's bound in ``BENCHMARK.json`` (``setup_s`` excepted, as
in the contract).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness.stats import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--out", type=Path, help="also write every run's metrics here (JSON)")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs = {name: [] for name in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed}: exit code {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append({m: v["value"] for m, v in result["metrics"].items()})
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={v:.5g}" for m, v in runs[name][-1].items()), flush=True)
    status = 0
    for name in workloads:
        print(f"== {name}")
        for spec in benchmark["end_to_end"]:
            values = [run[spec["name"]] for run in runs[name]]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            over = spread > spec["bound"] and spec["name"] != "setup_s"
            status |= int(over)
            verdict = "OVER" if over else "ok" if spread <= spec["bound"] / 3 else "ok (> bound/3)"
            print(f"  {spec['name']:<22} median {statistics.median(values):>12.6g} "
                  f"{spec['unit']:<6} spread {spread:6.1%}  bound {spec['bound']:.0%}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
