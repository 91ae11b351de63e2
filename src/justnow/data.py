"""Judgment datasets: CSV schema, Likert normalization, synthetic surveys.

CSV schema (UTF-8, header required, one judgment per row):

    event,adverbial,elapsed_value,elapsed_unit,rating,respondent

``rating`` is a normalized acceptability in [0, 1]; ``respondent`` may be
empty.  Floats are written at 9 significant digits, which round-trips the
datasets produced here.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import (
    UNIT_MINUTES,
    DomainError,
    Duration,
    FactorizedModel,
    UnknownUnitError,
    canonical_unit,
)

__all__ = [
    "CSV_HEADER",
    "CsvError",
    "JudgmentRecord",
    "Dataset",
    "normalize_likert",
    "load_csv",
    "save_csv",
    "generate_synthetic",
]

CSV_HEADER = ["event", "adverbial", "elapsed_value", "elapsed_unit", "rating", "respondent"]


class CsvError(ValueError):
    """Malformed or invalid CSV content; the message carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class JudgmentRecord:
    """One acceptability judgment for an (event, adverbial, elapsed time) triple."""

    event_id: str
    adverbial_id: str
    elapsed: Duration
    rating: float
    respondent_id: str | None = None

    def __post_init__(self) -> None:
        rating = float(self.rating)
        if not math.isfinite(rating) or not 0.0 <= rating <= 1.0:
            raise ValueError(f"rating must be in [0, 1], got {self.rating!r}")
        object.__setattr__(self, "rating", rating)


def _encode(labels) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct labels, as an object array, and each label's index into them."""
    table = sorted(set(labels))
    index = {label: code for code, label in enumerate(table)}
    codes = np.array([index[label] for label in labels], dtype=np.intp)
    return np.array(table, dtype=object), codes


def _transpose(rows: list[tuple]) -> list[list]:
    """The six columns of (event, adverbial, value, unit, rating, respondent) rows."""
    return [[row[i] for row in rows] for i in range(len(CSV_HEADER))]


class Dataset:
    """Judgments stored as columns, one entry per vote, plus provenance metadata.

    event, adverbial and unit index each vote's label in the sorted object
    arrays event_ids, adverbial_ids and unit_ids.  value is the elapsed time
    in its unit, minutes the same time in minutes; rating and respondent (a
    str or None) complete the row.  .records rebuilds the rows.
    """

    def __init__(self, records, source=None, seed=None):
        rows = [
            (r.event_id, r.adverbial_id, r.elapsed.value, r.elapsed.unit, r.rating, r.respondent_id)
            for r in records
        ]
        self._fill(*_transpose(rows), source, seed)

    @classmethod
    def _from_columns(cls, *columns, **metadata) -> Dataset:
        data = cls.__new__(cls)
        data._fill(*columns, **metadata)
        return data

    def _fill(
        self, events, adverbials, values, units, ratings, respondents, source=None, seed=None
    ) -> None:
        self.event_ids, self.event = _encode(events)
        self.adverbial_ids, self.adverbial = _encode(adverbials)
        self.unit_ids, self.unit = _encode(units)
        self.value = np.array(values, dtype=float)
        self.minutes = self.value * np.array([UNIT_MINUTES[u] for u in self.unit_ids])[self.unit]
        self.rating = np.array(ratings, dtype=float)
        self.respondent = tuple(respondents)
        self.source, self.seed = source, seed

    def __len__(self) -> int:
        return len(self.rating)

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> tuple[JudgmentRecord, ...]:
        """The rows as JudgmentRecords, rebuilt on every access."""
        columns = (
            self.event_ids[self.event], self.adverbial_ids[self.adverbial], self.value.tolist(),
            self.unit_ids[self.unit], self.rating.tolist(), self.respondent,
        )
        return tuple(
            JudgmentRecord(event_id, adverbial_id, Duration(value, unit), rating, who)
            for event_id, adverbial_id, value, unit, rating, who in zip(*columns)
        )


def normalize_likert(raw: int, scale_min: int = 1, scale_max: int = 5) -> float:
    """Affine map of a Likert response onto [0, 1]; scale endpoints map exactly."""
    if scale_min >= scale_max:
        raise ValueError(f"scale_min must be < scale_max, got [{scale_min}, {scale_max}]")
    if not scale_min <= raw <= scale_max:
        raise ValueError(f"response {raw} outside scale [{scale_min}, {scale_max}]")
    return (raw - scale_min) / (scale_max - scale_min)


def load_csv(path: str | os.PathLike) -> Dataset:
    """Read a judgment CSV; raises CsvError with a line number on the first bad row."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(1, f"expected header {','.join(CSV_HEADER)!r}")
        rows = []
        units: dict[str, str] = {}  # each spelling in the file, canonicalized once
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvError(lineno, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            event_id, adverbial_id, value_text, spelling, rating_text, respondent = row
            if not event_id or not adverbial_id:
                raise CsvError(lineno, "event and adverbial must be non-empty")
            try:
                value = float(value_text)
            except ValueError:
                raise CsvError(lineno, f"bad elapsed_value {value_text!r}") from None
            try:
                rating = float(rating_text)
            except ValueError:
                raise CsvError(lineno, f"bad rating {rating_text!r}") from None
            if not 0.0 <= rating <= 1.0:
                raise CsvError(lineno, f"rating {rating_text!r} outside [0, 1]")
            if spelling not in units:
                units[spelling] = canonical_unit(spelling)
            unit = units[spelling]
            if unit not in UNIT_MINUTES or not 0.0 <= value < math.inf:
                try:
                    Duration(value, unit)  # raises with the message for this value and unit
                except (UnknownUnitError, DomainError) as exc:
                    raise CsvError(lineno, str(exc)) from None
            rows.append((event_id, adverbial_id, value, unit, rating, respondent or None))
    return Dataset._from_columns(*_transpose(rows), source=str(path))


def save_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset in the judgment CSV schema, floats at 9 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            zip(
                dataset.event_ids[dataset.event].tolist(),
                dataset.adverbial_ids[dataset.adverbial].tolist(),
                [f"{value:.9g}" for value in dataset.value.tolist()],
                dataset.unit_ids[dataset.unit].tolist(),
                [f"{rating:.9g}" for rating in dataset.rating.tolist()],
                [who or "" for who in dataset.respondent],
            )
        )


def generate_synthetic(
    truth: FactorizedModel,
    times_per_event: int,
    votes_per_cell: int,
    noise_sd: float,
    seed: int,
) -> Dataset:
    """Seeded synthetic survey over the truth model's full event x adverbial grid.

    Per event, elapsed times are log-spaced over [sigma_e/100, 100*sigma_e],
    which brackets the precedence curve's transition region.  Every
    (event, adverbial, time) cell receives ``votes_per_cell`` ratings equal
    to the composite probability plus Gaussian noise, clamped to [0, 1].
    Rows run over events, adverbials, times and votes, in that nesting.
    Noise comes from numpy's default PCG64 generator seeded with ``seed``;
    with ``noise_sd == 0`` the generator is never consulted and ratings are
    the exact model values.
    """
    if not truth.events or not truth.adverbials:
        raise ValueError("truth model must have at least one event and one adverbial")
    if times_per_event < 1:
        raise ValueError(f"times_per_event must be >= 1, got {times_per_event}")
    if votes_per_cell < 1:
        raise ValueError(f"votes_per_cell must be >= 1, got {votes_per_cell}")
    if not math.isfinite(noise_sd) or noise_sd < 0.0:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")

    adverbial_ids = sorted(truth.adverbials)
    cells = []
    for event_id in sorted(truth.events):
        sigma_e = truth.events[event_id].sigma_e
        times = np.geomspace(sigma_e / 100.0, 100.0 * sigma_e, times_per_event).tolist()
        cells += [(event_id, adverbial_id, t) for adverbial_id in adverbial_ids for t in times]
    rating = np.repeat(truth.predict(*zip(*cells)), votes_per_cell)
    if noise_sd > 0.0:
        noise = np.random.default_rng(seed).normal(0.0, noise_sd, size=rating.size)
        rating = np.clip(rating + noise, 0.0, 1.0)

    # Zero-padded respondent labels keep lexicographic and numeric order aligned.
    pad = len(str(votes_per_cell - 1))
    respondents = tuple(f"p{v:0{pad}d}" for v in range(votes_per_cell))
    columns = (np.repeat(np.array(c, dtype=object), votes_per_cell) for c in zip(*cells))
    return Dataset._from_columns(
        *columns, ("minute",) * rating.size, rating, respondents * len(cells),
        source="synthetic", seed=seed,
    )
