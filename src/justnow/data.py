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


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of judgments plus provenance metadata."""

    records: tuple[JudgmentRecord, ...]
    source: str | None = None
    likert_scale: int | None = None
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def columns(self) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
        """(event ids, adverbial ids, elapsed minutes, ratings), one entry per record."""
        return (
            [r.event_id for r in self.records],
            [r.adverbial_id for r in self.records],
            np.array([r.elapsed.to_minutes() for r in self.records], dtype=float),
            np.array([r.rating for r in self.records], dtype=float),
        )


def normalize_likert(raw: int, scale_min: int = 1, scale_max: int = 5) -> float:
    """Affine map of a Likert response onto [0, 1]; scale endpoints map exactly."""
    if scale_min >= scale_max:
        raise ValueError(f"scale_min must be < scale_max, got [{scale_min}, {scale_max}]")
    if not scale_min <= raw <= scale_max:
        raise ValueError(f"response {raw} outside scale [{scale_min}, {scale_max}]")
    return (raw - scale_min) / (scale_max - scale_min)


def load_csv(path: str | os.PathLike) -> Dataset:
    """Read a judgment CSV; raises CsvError with a line number on any bad row."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(1, f"expected header {','.join(CSV_HEADER)!r}")
        records: list[JudgmentRecord] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvError(lineno, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            event_id, adverbial_id, value_text, unit, rating_text, respondent = row
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
            if not math.isfinite(rating) or not 0.0 <= rating <= 1.0:
                raise CsvError(lineno, f"rating {rating_text!r} outside [0, 1]")
            try:
                elapsed = Duration(value, canonical_unit(unit))
            except (UnknownUnitError, DomainError) as exc:
                raise CsvError(lineno, str(exc)) from None
            records.append(
                JudgmentRecord(event_id, adverbial_id, elapsed, rating, respondent or None)
            )
    return Dataset(tuple(records), source=str(path))


def save_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset in the judgment CSV schema, floats at 9 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in dataset.records:
            writer.writerow(
                [
                    rec.event_id,
                    rec.adverbial_id,
                    f"{rec.elapsed.value:.9g}",
                    rec.elapsed.unit,
                    f"{rec.rating:.9g}",
                    rec.respondent_id or "",
                ]
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

    event_ids = sorted(truth.events)
    adverbial_ids = sorted(truth.adverbials)
    total = len(event_ids) * len(adverbial_ids) * times_per_event * votes_per_cell
    noise = None
    if noise_sd > 0.0:
        noise = np.random.default_rng(seed).normal(0.0, noise_sd, size=total)

    # Zero-padded respondent labels keep lexicographic and numeric order aligned.
    pad = len(str(votes_per_cell - 1))
    respondents = [f"p{v:0{pad}d}" for v in range(votes_per_cell)]

    records: list[JudgmentRecord] = []
    index = 0
    for event_id in event_ids:
        sigma_e = truth.events[event_id].sigma_e
        times = np.geomspace(sigma_e / 100.0, 100.0 * sigma_e, times_per_event)
        for adverbial_id in adverbial_ids:
            probabilities = truth.predict([event_id], [adverbial_id], times)
            for t, p in zip(times.tolist(), probabilities.tolist()):
                elapsed = Duration(t, "minute")
                for respondent in respondents:
                    if noise is None:
                        rating = p
                    else:
                        rating = min(1.0, max(0.0, p + noise[index]))
                    records.append(
                        JudgmentRecord(event_id, adverbial_id, elapsed, rating, respondent)
                    )
                    index += 1
    return Dataset(tuple(records), source="synthetic", seed=seed)
