"""Command-line workflows: fitting, prediction, evaluation, and plot export.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation error,
4 fit finished without converging (outputs are still written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import generate_synthetic, load_csv, save_csv
from .evaluation import (
    accuracy,
    compare,
    extendability_table,
    format_accuracy_comparison,
    format_accuracy_report,
    format_extendability_table,
)
from .fitting import FitConfig, FitReport, cell_means, fit_baseline, fit_factorized
from .model import (
    Duration,
    _write_document,
    best_adverbial,
    load_any_model,
    load_baseline,
    load_model,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for I/O here.
    def error(self, message):
        raise _UsageError(message)


def _report_payload(report: FitReport) -> dict:
    payload = report.model.to_dict()
    payload.update(
        final_cost=report.final_cost,
        iterations=report.iterations,
        converged=report.converged,
        residual_count=report.residual_count,
        parameter_count=report.parameter_count,
    )
    if report.warnings:
        payload["warnings"] = list(report.warnings)
    return payload


def _cmd_fit(args: argparse.Namespace) -> int:
    """fit and fit-baseline: flags the user gave override FitConfig's defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(FitConfig) if f.name in args}
    # Looked up per call, not stored in the parser, so a rebound name is honoured.
    fit = fit_factorized if args.subcommand == "fit" else fit_baseline
    data = load_csv(args.data)
    config = FitConfig(**given)
    report = fit(cell_means(data) if "per_cell_means" in args else data, config)
    _write_document(args.out, _report_payload(report))
    print(
        f"cost={report.final_cost:.6g} iterations={report.iterations} "
        f"converged={report.converged} residuals={report.residual_count} "
        f"parameters={report.parameter_count}"
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.converged:
        print(
            f"warning: fit did not converge within --max-iterations={config.max_iterations}; "
            "wrote best parameters found",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    event = model.event(args.event)
    elapsed = Duration.parse(args.elapsed)
    adverbial_ids = sorted(model.adverbials)
    probabilities = model.predict([args.event], adverbial_ids, [elapsed.to_minutes()])
    for adverbial_id, p in zip(adverbial_ids, probabilities.tolist()):
        print(f"{adverbial_id}\t{p:.9f}")
    best_id, best_p = best_adverbial(elapsed, event, model)
    print(f"best\t{best_id}\t{best_p:.9f}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_any_model(args.model)
    data = load_csv(args.data)
    report = accuracy(model, data)
    print(format_accuracy_report(report))
    if args.out:
        _write_document(args.out, report.to_dict())
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    factorized = load_model(args.factorized)
    baseline = load_baseline(args.baseline)
    doc = compare(factorized, baseline, load_csv(args.data))
    print(format_accuracy_comparison(doc))
    if args.out:
        _write_document(args.out, doc)
    return EXIT_OK


def _parse_counts(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not counts:
        raise ValueError(f"expected at least one count, got {text!r}")
    return counts


def _cmd_extendability(args: argparse.Namespace) -> int:
    rows = extendability_table(_parse_counts(args.events), _parse_counts(args.adverbials))
    print(format_extendability_table(rows))
    if args.out:
        _write_document(args.out, {"rows": [row.to_dict() for row in rows]})
    return EXIT_OK


def _cmd_synthesize(args: argparse.Namespace) -> int:
    truth = load_model(args.truth)
    dataset = generate_synthetic(truth, args.times, args.votes, args.noise, args.seed)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return EXIT_OK


def _cmd_plot_data(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    model = load_model(args.model)
    # Every name is checked before any file is written: ids may contain "__", a path
    # separator or NUL.  A ".tsv" name without the last two is one file inside --out-dir.
    files: dict[str, tuple[str, str]] = {}
    for pair in itertools.product(sorted(model.events), sorted(model.adverbials)):
        name = "{}__{}.tsv".format(*pair)
        if any(char and char in name for char in ("/", os.sep, os.altsep, "\0")):
            raise ValueError(f"pair {pair} would write {name!r}, not a file name in --out-dir")
        if name in files:
            raise ValueError(f"pairs {files[name]} and {pair} would both write {name}")
        files[name] = pair
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = {pair: name for name, pair in files.items()}
    adverbial_ids = sorted(model.adverbials)
    for event_id, event in sorted(model.events.items()):
        grid = np.geomspace(event.sigma_e / 100.0, 100.0 * event.sigma_e, args.points)
        # One call per event: the grid as a column evaluates each precedence once.
        curves = model.predict([event_id], adverbial_ids, grid[:, None]).T.tolist()
        # repr round-trips doubles exactly, so parsed curves match the model.
        times = [repr(t) for t in grid.tolist()]
        for adverbial_id, probabilities in zip(adverbial_ids, curves):
            lines = ["t_minutes\tprobability"] + [
                f"{t}\t{p!r}" for t, p in zip(times, probabilities)
            ]
            text = "\n".join(lines) + "\n"
            (out_dir / names[event_id, adverbial_id]).write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} curve files to {out_dir}")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="justnow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    for name, family in (("fit", "factorized model"), ("fit-baseline", "per-pair baseline")):
        # Unset flags stay out of the namespace, so FitConfig holds every default.
        p = sub.add_parser(
            name, help=f"fit the {family} to a CSV", argument_default=argparse.SUPPRESS
        )
        p.add_argument("--data", required=True, help="judgment CSV path")
        p.add_argument("--out", required=True, help="output model+report JSON path")
        p.add_argument("--max-iterations", type=int)
        p.add_argument("--multistarts", type=int, dest="multistart_count")
        p.add_argument(
            "--per-cell-means",
            action="store_true",
            help="fit one vote per (event, adverbial, time) cell, at the cell's mean rating",
        )
        p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "predict", help="per-adverbial probabilities for one event"
    )
    p.add_argument("--model", required=True, help="factorized model JSON path")
    p.add_argument("--event", required=True, help="event id")
    p.add_argument("--elapsed", required=True, help="elapsed time, e.g. '1 day'")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "evaluate", help="mean absolute error of a model on a CSV"
    )
    p.add_argument("--model", required=True, help="model JSON path (either family)")
    p.add_argument("--data", required=True, help="judgment CSV path")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "compare", help="side-by-side accuracy of both families"
    )
    p.add_argument("--factorized", required=True, help="factorized model JSON path")
    p.add_argument("--baseline", required=True, help="baseline model JSON path")
    p.add_argument("--data", required=True, help="judgment CSV path")
    p.add_argument("--out", help="optional JSON comparison path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "extendability", help="function counts per vocabulary size"
    )
    p.add_argument("--events", required=True, help="comma-separated event counts, e.g. 2,4,8")
    p.add_argument("--adverbials", required=True, help="comma-separated adverbial counts")
    p.add_argument("--out", help="optional JSON table path")
    p.set_defaults(func=_cmd_extendability)

    p = sub.add_parser(
        "synthesize", help="generate a synthetic judgment CSV"
    )
    p.add_argument("--truth", required=True, help="truth model JSON path")
    p.add_argument("--times", type=int, default=7, help="log-spaced times per event")
    p.add_argument("--votes", type=int, default=100, help="votes per cell")
    p.add_argument("--noise", type=float, default=0.1, help="rating noise SD before clamping")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "plot-data", help="export per-pair curves as TSV files"
    )
    p.add_argument("--model", required=True, help="factorized model JSON path")
    p.add_argument("--out-dir", required=True, help="directory for <event>__<adverbial>.tsv")
    p.add_argument("--points", type=int, default=200, help="grid points per curve")
    p.set_defaults(func=_cmd_plot_data)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures onto the documented exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        # KeyError repr-quotes its message; unwrap for readable output.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
