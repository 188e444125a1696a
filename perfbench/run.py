#!/usr/bin/env python3
"""The DSQL benchmark: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).

Two ways to run it:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload in
  this process and prints, as the last line of standard output, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
  Exit code 0 when every answer was correct, 1 otherwise.
* without ``--workload`` it runs all workloads one after the other (each in
  a process of its own: fresh caches, its own peak RSS), prints every
  metric by name with its unit, and writes ``perfbench/out/benchmark.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
HISTORY = HERE / "history.jsonl"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0, help="drives all input generation")
    parser.add_argument("--seconds", type=float, help="timed seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (+ span file)")
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle of ~1/10 the ops; quick, not comparable")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a timing spread exceeds its bound")
    parser.add_argument("--record", action="store_true",
                        help="append {commit, env, metrics} to perfbench/history.jsonl")
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt the reference in smoke runs; they must fail")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def print_record(record: Dict[str, object]) -> None:
    """Every metric by name with its unit, spreads beside the timing metrics."""
    print(f"== {record['workload']}  seed={record['seed']}  inputs={record['inputs_sha256'][:12]}"
          f"  attempted={record['attempted']}  failed={record['failed']}")
    spreads = record["spreads"]
    for name, metric in record["metrics"].items():
        spread = spreads.get(f"{name}.spread")
        note = f"   (cycle spread {spread:.1%})" if spread is not None else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    for name, value in record["extras"].items():
        print(f"  {name:<44} {value:>14.6g}")
    if record["noisy"]:
        print(f"  NOISY: spread above bound for {', '.join(record['noisy'])}")


def run_one(args: argparse.Namespace, seconds: float) -> int:
    from harness import env
    from harness.runner import run_workload

    env.adopt_orphans()
    env.pin_to_one_core()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # leave through the finally below
    try:
        record = run_workload(
            args.workload, args.seed, seconds, trace=bool(args.trace),
            smoke=args.smoke, corrupt=args.corrupt, out_dir=OUT_DIR,
        )
    finally:
        # However the run ends, no process it started is alive after this one.
        env.stop_children()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if not record["correct"] or (args.strict and record["noisy"]):
        return 1
    return 0


def child(workload: str, args: argparse.Namespace, seconds: float, trace: int,
          extra: List[str]) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command + extra, cwd=ROOT, capture_output=True, text=True)


def run_all(args: argparse.Namespace, benchmark: Dict[str, object], seconds: float) -> int:
    """All workloads, sequentially, each in its own process; one combined output file."""
    combined: Dict[str, object] = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    for spec in benchmark["workloads"]:
        name = spec["name"]
        for trace in range(args.trace + 1):
            started = time.perf_counter()
            done = child(name, args, seconds, trace, [])
            suffix = "_trace" if trace else ""
            path = OUT_DIR / f"{name}{suffix}.json"
            if done.returncode not in (0, 1) or not path.exists():
                sys.stderr.write(done.stderr)
                print(f"== {name}: run failed with exit code {done.returncode}")
                status = 1
                continue
            record = json.loads(path.read_text(encoding="utf-8"))
            print_record(record)
            print(f"  ({time.perf_counter() - started:.1f} s)")
            entry = combined["workloads"].setdefault(name, {})
            entry["trace" if trace else "end_to_end"] = record
            if not record["correct"] or (args.strict and record["noisy"]):
                status = 1
    combined["noisy"] = any(
        record["noisy"] for entry in combined["workloads"].values() for record in entry.values()
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "benchmark.json").write_text(
        json.dumps(combined, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUT_DIR / 'benchmark.json'}")
    if args.record and status == 0:
        first = next(iter(combined["workloads"].values()))["end_to_end"]
        line = {
            "commit": first["env"]["commit"],
            "env": first["env"],
            "seed": args.seed,
            "metrics": {
                name: {
                    kind: {m: v["value"] for m, v in record["metrics"].items()}
                    for kind, record in entry.items()
                }
                for name, entry in combined["workloads"].items()
            },
        }
        with HISTORY.open("a", encoding="utf-8") as out:
            out.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    return status


def selftest(args: argparse.Namespace, benchmark: Dict[str, object]) -> int:
    """The check is not vacuous: with a corrupted reference every smoke run must fail."""
    args.smoke = True
    status = 0
    for spec in benchmark["workloads"]:
        done = child(spec["name"], args, 1, 0, ["--corrupt"])
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        try:
            failed = json.loads(last).get("failed", 0)
        except ValueError:
            failed = 0
        caught = done.returncode == 1 and failed > 0
        print(f"{spec['name']:<16} exit={done.returncode} failed={failed} "
              f"{'corruption caught' if caught else 'CORRUPTION MISSED'}")
        if not caught:
            sys.stderr.write(done.stderr)
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    benchmark_file = ROOT / "BENCHMARK.json"
    if not (source / "repro").is_dir() or not benchmark_file.is_file():
        sys.stderr.write(f"perfbench: no program to measure under {source}\n")
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    benchmark = json.loads(benchmark_file.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    names = [spec["name"] for spec in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {names}\n")
        return 2
    if args.selftest:
        return selftest(args, benchmark)
    if args.workload is not None:
        return run_one(args, seconds)
    return run_all(args, benchmark, seconds)


if __name__ == "__main__":
    sys.exit(main())
