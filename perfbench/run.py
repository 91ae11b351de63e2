"""Benchmark of the justnow library and CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: survey-7x1000, vocab-ladder, model-queries (see perfbench/README.md).
The package is imported from ./src; nothing is installed.  A run sets up the
workload, then repeats whole rounds of its operations until S seconds have
passed (at least one round), checks every round's outputs, and prints one
JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pipeline_s,
peak_rss_mb).  With --trace 1 the same rounds are run again with spans
recorded around every call into a layer, and the metrics are the per-layer
ones; the spans are written to perfbench/out/trace-<workload>-seed<N>.json.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: before numpy, scipy and justnow load

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-ups per run behind the setup_s median: this process plus fresh interpreters.
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_sample(workload: str, seed: int, workdir: Path) -> float:
    """Set-up seconds measured in a fresh interpreter (imports included)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def _measure(workload, seconds, tracer, checks, rounds=None):
    """Whole rounds until `seconds` have passed (or exactly `rounds` rounds)."""
    done = []
    start = time.perf_counter()
    while True:
        rnd = workload.round(tracer)
        workload.check(rnd, checks)
        done.append(rnd)
        if rounds is None and time.perf_counter() - start >= seconds:
            return done
        if rounds is not None and len(done) == rounds:
            return done


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "justnow" / "__init__.py").is_file():
        print(f"error: no justnow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and justnow

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        make(args.seed, workdir).setup()
        print(time.perf_counter() - _START)
        return 0

    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make(args.seed, workdir)
        workload.setup()
        setup_samples = [time.perf_counter() - _START]
        if not args.trace:
            setup_samples += [
                _setup_sample(args.workload, args.seed, workdir / f"setup{k}")
                for k in range(SETUP_SAMPLES - 1)
            ]
        checks = workloads.Checks()
        rounds = _measure(workload, args.seconds, tracing.NullTracer(), checks)
        pipeline = [r.seconds for r in rounds]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = _measure(workload, args.seconds, tracer, checks, rounds=len(rounds))
            rounds += traced
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            values, note = tracing.layer_metrics(tracer, len(traced), workloads.LADDER)
            values["trace.overhead_s"] = (
                statistics.median(r.seconds for r in traced) - statistics.median(pipeline)
            )
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
            print(f"# {note}")
            print(f"# per-layer values are per round, from {len(traced)} traced round(s)")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "pipeline_s": {"value": statistics.median(pipeline), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            print(f"# setup_s: median of {len(setup_samples)} set-ups "
                  f"{[round(s, 4) for s in setup_samples]}")
            print(f"# pipeline_s: median of {len(pipeline)} round(s) "
                  f"{[round(s, 4) for s in pipeline[:8]]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}; "
          f"{checks.count} checks, {len(checks.failed)} failed; "
          f"run took {time.perf_counter() - _START:.1f} s")
    for name, detail in checks.failed.items():
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    """Per-layer units follow the name: *_s (also *_s.<rung>) seconds, *_ms milliseconds."""
    stem = name.split(".")[1]
    return "ms" if stem.endswith("_ms") else "s" if stem.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
