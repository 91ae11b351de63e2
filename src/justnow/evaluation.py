"""Accuracy scoring and model-size accounting for both model families."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, _run_starts
from .model import FactorizedModel, PairGaussianModel

__all__ = [
    "AccuracyReport",
    "ExtendabilityRow",
    "accuracy",
    "extendability_table",
    "compare",
    "format_accuracy_report",
    "format_accuracy_comparison",
    "format_extendability_table",
]


@dataclass(frozen=True)
class AccuracyReport:
    """Mean absolute error, overall and split by event and by adverbial.

    Group values are unweighted means over the records in each group;
    overall is the mean over all records.
    """

    per_event: dict[str, float]
    per_adverbial: dict[str, float]
    overall: float

    def to_dict(self) -> dict:
        return {
            "per_event": dict(sorted(self.per_event.items())),
            "per_adverbial": dict(sorted(self.per_adverbial.items())),
            "overall": self.overall,
        }


def accuracy(model: FactorizedModel | PairGaussianModel, data: Dataset) -> AccuracyReport:
    """Mean absolute deviation between model predictions and ratings.

    The votes are sorted by (event, adverbial, minutes) once, and the model
    predicts once per such cell; each vote's error is its cell's prediction
    minus its rating.  Every mean is an exactly rounded fsum, so the report is
    the same for any record order.  An id the model lacks raises the model's
    UnknownIdError, naming the first one in cell order.
    """
    if not len(data):
        raise ValueError("dataset is empty")
    order = np.lexsort((data.minutes, data.adverbial, data.event))
    event, adverbial, minutes = data.event[order], data.adverbial[order], data.minutes[order]
    starts = _run_starts(event, adverbial, minutes)
    cells = model.predict(
        data.event_ids[event[starts]], data.adverbial_ids[adverbial[starts]], minutes[starts]
    )
    errors = np.abs(np.repeat(cells, np.diff(starts, append=order.size)) - data.rating[order])
    return AccuracyReport(
        per_event=_group_means(data.event_ids, event, errors),
        per_adverbial=_group_means(data.adverbial_ids, adverbial, errors),
        overall=math.fsum(errors.tolist()) / len(errors),
    )


def _group_means(ids: np.ndarray, codes: np.ndarray, errors: np.ndarray) -> dict[str, float]:
    """Mean error of the votes whose code indexes each id."""
    groups = np.split(errors[np.argsort(codes)], np.cumsum(np.bincount(codes))[:-1])
    # fsum keeps the means independent of record order.
    return {key: math.fsum(group.tolist()) / group.size for key, group in zip(ids, groups)}


@dataclass(frozen=True)
class ExtendabilityRow:
    """Function counts each family needs to cover an E x A vocabulary."""

    n_events: int
    n_adverbials: int
    factorized_functions: int
    baseline_functions: int

    def to_dict(self) -> dict:
        return asdict(self)


def extendability_table(
    event_counts: list[int], adverbial_counts: list[int]
) -> list[ExtendabilityRow]:
    """Rows of (E, A, E + A, E * A) for paired count lists.

    A singleton list broadcasts against the other list; otherwise the two
    lists pair up elementwise and must have equal length.
    """
    if not event_counts or not adverbial_counts:
        raise ValueError("count lists must be non-empty")
    for count in [*event_counts, *adverbial_counts]:
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValueError(f"counts must be integers >= 1, got {count!r}")
    if len(event_counts) == 1 and len(adverbial_counts) > 1:
        event_counts = event_counts * len(adverbial_counts)
    elif len(adverbial_counts) == 1 and len(event_counts) > 1:
        adverbial_counts = adverbial_counts * len(event_counts)
    if len(event_counts) != len(adverbial_counts):
        raise ValueError(
            f"count lists must align: {len(event_counts)} events vs "
            f"{len(adverbial_counts)} adverbials"
        )
    return [
        ExtendabilityRow(e, a, e + a, e * a)
        for e, a in zip(event_counts, adverbial_counts)
    ]


def compare(factorized: FactorizedModel, baseline: PairGaussianModel, data: Dataset) -> dict:
    """Side-by-side accuracy and size accounting; declares no winner."""
    if not isinstance(factorized, FactorizedModel):
        raise ValueError("first model must be a factorized model")
    if not isinstance(baseline, PairGaussianModel):
        raise ValueError("second model must be a per-pair baseline model")
    acc_f = accuracy(factorized, data)
    acc_b = accuracy(baseline, data)
    events = sorted(acc_f.per_event)
    adverbials = sorted(acc_f.per_adverbial)
    return {
        "factorized": {
            "accuracy": acc_f.to_dict(),
            "parameter_count": factorized.parameter_count,
            "function_count": factorized.function_count,
        },
        "baseline": {
            "accuracy": acc_b.to_dict(),
            "parameter_count": baseline.parameter_count,
            "function_count": baseline.function_count,
        },
        "accuracy_difference": {
            "per_event": {e: acc_f.per_event[e] - acc_b.per_event[e] for e in events},
            "per_adverbial": {
                a: acc_f.per_adverbial[a] - acc_b.per_adverbial[a] for a in adverbials
            },
            "overall": acc_f.overall - acc_b.overall,
        },
    }


def _mae_table(columns: list[tuple[str, int, dict]], footer=()) -> list[str]:
    """Text rows of MAE per event, per adverbial and overall, one column per accuracy document.

    columns are (heading, width, document in AccuracyReport.to_dict() layout);
    the first column's document names the rows.  footer rows (label, one
    integer per column) follow after a blank line.
    """
    first = columns[0][2]
    width = max([10, *(len(str(name)) for name in [*first["per_event"], *first["per_adverbial"]])])

    def row(kind: str, name: str, cells) -> str:
        return f"{kind:<10} {name:<{width}}" + "".join(cells)

    lines = [row("Type", "Name", (f" {heading:>{w}}" for heading, w, _ in columns))]
    for kind, key in (("Event", "per_event"), ("Adverbial", "per_adverbial")):
        for name in sorted(first[key]):
            lines.append(row(kind, name, (f" {doc[key][name]:>{w}.4f}" for _, w, doc in columns)))
    lines.append(row("Overall", "", (f" {doc['overall']:>{w}.4f}" for _, w, doc in columns)))
    if footer:
        lines.append("")
    for label, counts in footer:
        lines.append(row(label, "", (f" {c:>{w}d}" for c, (_, w, _) in zip(counts, columns))))
    return lines


def format_accuracy_report(report: AccuracyReport, title: str = "Model") -> str:
    """Plain-text MAE table with one row per event, adverbial, and overall."""
    lines = _mae_table([("MAE", 8, report.to_dict())])
    return "\n".join([f"{title} mean absolute error", *lines])


def format_accuracy_comparison(doc: dict) -> str:
    """Plain-text side-by-side MAE table for a compare() document."""
    fac, base = doc["factorized"], doc["baseline"]
    columns = [("Factorized", 12, fac["accuracy"]), ("Non-factorized", 15, base["accuracy"])]
    footer = [
        ("Functions", [fac["function_count"], base["function_count"]]),
        ("Parameters", [fac["parameter_count"], base["parameter_count"]]),
    ]
    return "\n".join(_mae_table(columns, footer))


def format_extendability_table(rows: list[ExtendabilityRow]) -> str:
    """Plain-text function-count table, one row per vocabulary size."""
    lines = [f"{'Events':>8} {'Adverbials':>11} {'Factorized':>11} {'Non-factorized':>15}"]
    for row in rows:
        lines.append(
            f"{row.n_events:>8d} {row.n_adverbials:>11d} "
            f"{row.factorized_functions:>11d} {row.baseline_functions:>15d}"
        )
    return "\n".join(lines)
