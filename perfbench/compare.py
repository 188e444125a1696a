#!/usr/bin/env python3
"""Check one set of results against another under the bounds of ``BENCHMARK.json``.

    python3 perfbench/compare.py BASE.json CANDIDATE.json

Both files are ``perfbench/out/benchmark.json`` outputs (one run of all
workloads) or ``spread.py --out`` files (many runs per workload; medians are
compared). Prints one line per (workload, metric) that got worse by more
than its bound, refuses to compare runs of different inputs, and exits 1 if
anything was reported. A single pair of runs shows regressions, never gains:
claiming a gain takes ten alternating pairs (see ``README.md``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness.stats import check_bounds  # noqa: E402


def load(path: str) -> Dict[str, Dict[str, object]]:
    """``{workload: {"metrics": {name: value}, "inputs": sha or None}}`` of either format."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {}
    if "workloads" in data:
        for name, entry in data["workloads"].items():
            record = entry["end_to_end"]
            out[name] = {
                "metrics": {m: v["value"] for m, v in record["metrics"].items()},
                "inputs": record["inputs_sha256"],
            }
    else:
        for name, runs in data.items():
            out[name] = {
                "metrics": {m: statistics.median(run[m] for run in runs) for m in runs[0]},
                "inputs": None,
            }
    return out


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, candidate = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for name in base:
        if name not in candidate:
            print(f"{name}: missing from candidate")
            status = 1
            continue
        if base[name]["inputs"] != candidate[name]["inputs"]:
            print(f"{name}: different inputs_sha256 — not the same benchmark, not compared")
            status = 1
            continue
        problems = check_bounds(benchmark, base[name]["metrics"], candidate[name]["metrics"])
        for problem in problems:
            print(f"{name}: {problem}")
        status |= int(bool(problems))
    if status == 0:
        print("no end-to-end metric is worse than its bound allows")
    return status


if __name__ == "__main__":
    sys.exit(main())
