#!/usr/bin/env python3
"""End-to-end comparison of the factorized and per-pair model families.

Synthesizes a survey from the parameters shipped with the repository, fits
both families to it, and prints accuracy side by side plus the
function-count table for growing vocabularies.
"""

import argparse
import time

from justnow.data import generate_synthetic
from justnow.evaluation import (
    compare,
    extendability_table,
    format_accuracy_comparison,
    format_extendability_table,
)
from justnow.fitting import FitConfig, fit_baseline, fit_factorized
from justnow.model import reference_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--times", type=int, default=7, help="log-spaced times per event")
    parser.add_argument("--votes", type=int, default=100, help="votes per cell")
    parser.add_argument("--noise", type=float, default=0.1, help="rating noise SD")
    parser.add_argument("--seed", type=int, default=42, help="seed of the survey's rating noise")
    parser.add_argument("--multistarts", type=int, default=FitConfig.multistart_count)
    args = parser.parse_args()

    truth = reference_model()
    data = generate_synthetic(truth, args.times, args.votes, args.noise, args.seed)
    print(f"synthesized {len(data)} records "
          f"({args.times} times/event, {args.votes} votes/cell, noise {args.noise})")

    config = FitConfig(multistart_count=args.multistarts)
    t0 = time.perf_counter()
    factorized = fit_factorized(data, config)
    t1 = time.perf_counter()
    baseline = fit_baseline(data, config)
    t2 = time.perf_counter()
    print(f"factorized fit: cost={factorized.final_cost:.6g} "
          f"iterations={factorized.iterations} converged={factorized.converged} "
          f"({t1 - t0:.1f}s)")
    print(f"baseline fit:   cost={baseline.final_cost:.6g} "
          f"iterations={baseline.iterations} converged={baseline.converged} "
          f"({t2 - t1:.1f}s)")
    for warning in baseline.warnings:
        print(f"warning: {warning}")
    print()
    print(format_accuracy_comparison(compare(factorized.model, baseline.model, data)))
    print()
    print("Functions needed as the vocabulary grows:")
    rows = extendability_table([2, 2, 2, 2, 4, 8, 16], [2, 4, 8, 16, 16, 16, 16])
    print(format_extendability_table(rows))


if __name__ == "__main__":
    main()
