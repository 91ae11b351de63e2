#!/usr/bin/env python3
"""Run the benchmark that BENCHMARK.json declares and write BENCH_<pr>.json.

    python3 scripts/bench.py --pr N [--seeds 1,2,3,4,5] [--seconds 20] [--workload NAME ...]

For each workload and seed, BENCHMARK.json's command runs once untraced
(--trace 0), which gives the end-to-end metrics, and once traced (--trace 1),
which gives the per-layer ones.  Every metric gets the median, first and third
quartiles (numpy's linear interpolation), the number of runs and its unit.  The
file also records the core count and the Python and numpy versions.  A
run that exits non-zero, is not correct or has a failed operation stops the
script with exit 1, and no file is written.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
                 f"result {lines[-1] if lines else None}\n{proc.stderr}")
    return result["metrics"]


def _summary(runs: list[dict]) -> dict:
    summary = {}
    for name, metric in runs[0].items():
        q1, median, q3 = np.percentile([run[name]["value"] for run in runs], [25, 50, 75])
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(runs),
                         "unit": metric["unit"]}
    return summary


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated run seeds")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--out-dir", default=str(ROOT), help="directory for BENCH_<pr>.json")
    args = parser.parse_args()

    seeds = [int(seed) for seed in args.seeds.split(",")]
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    doc = {
        "command": spec["command"],
        "seconds": args.seconds,
        "seeds": seeds,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "workloads": {},
    }
    for workload in workloads:
        runs = {"end_to_end": [], "per_layer": []}
        for seed in seeds:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                runs[kind].append(_run(spec["command"], workload, seed, args.seconds, trace))
        doc["workloads"][workload] = {kind: _summary(values) for kind, values in runs.items()}
    out = Path(args.out_dir) / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
