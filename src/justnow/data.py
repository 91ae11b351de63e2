"""Judgment datasets: CSV schema, Likert normalization, synthetic surveys.

CSV schema (UTF-8, header required, one judgment per row):

    event,adverbial,elapsed_value,elapsed_unit,rating,respondent

``rating`` is a normalized acceptability in [0, 1]; ``respondent`` may be
empty.  Numbers are ASCII float text without "_".  Floats are written at 9
significant digits, which round-trips the datasets produced here.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass
from typing import NoReturn

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

# One CSV row as numpy's tokenizer reads it: the two numbers as doubles, the labels as str.
_ROW = np.dtype([(n, float if n in ("elapsed_value", "rating") else object) for n in CSV_HEADER])


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


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Start index of each run of adjacent rows that are equal in every one of the columns."""
    change = np.zeros(len(columns[0]), dtype=bool)
    change[:1] = True
    for c in columns:
        change[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(change)


def _encode(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct labels of an object array, as an object array, and each label's index.

    Only the first label of each run of equal adjacent labels is hashed and looked
    up; its code is repeated over the run.  Every CSV written here keeps equal
    labels adjacent, so a survey's label columns are a few runs each.
    """
    starts = _run_starts(labels)
    firsts = labels[starts].tolist()
    table = sorted(set(firsts))
    index = {label: code for code, label in enumerate(table)}
    codes = np.fromiter(map(index.__getitem__, firsts), dtype=np.intp, count=len(firsts))
    return np.array(table, dtype=object), np.repeat(codes, np.diff(starts, append=len(labels)))


class Dataset:
    """Judgments stored as columns, one entry per vote.

    event, adverbial and unit index each vote's label in the sorted object
    arrays event_ids, adverbial_ids and unit_ids.  value is the elapsed time
    in its unit, minutes the same time in minutes; rating and respondent (a
    str or None) complete the row.  Labels are encoded only where they enter,
    in Dataset(records) and load_csv.  .records rebuilds the rows.
    """

    def __init__(self, records):
        rows = [
            (r.event_id, r.adverbial_id, r.elapsed.value, r.elapsed.unit, r.rating, r.respondent_id)
            for r in records
        ]
        events, adverbials, values, units, ratings, respondents = zip(*rows) if rows else [()] * 6
        events, adverbials, units = (
            _encode(np.array(labels, dtype=object)) for labels in (events, adverbials, units)
        )
        self._fill(events, adverbials, values, units, ratings, respondents)

    def _fill(self, events, adverbials, values, units, ratings, respondents) -> Dataset:
        """Set the columns and return self: the one path that builds every Dataset.

        events, adverbials and units each come as (sorted id table, code per vote), and
        every id-table entry has at least one vote, as evaluation._group_means requires.
        """
        self.event_ids, self.event = events
        self.adverbial_ids, self.adverbial = adverbials
        self.unit_ids, self.unit = units
        self.value = np.array(values, dtype=float)
        scale = np.array([UNIT_MINUTES.get(u, math.nan) for u in self.unit_ids])  # nan: unknown
        with np.errstate(over="ignore"):  # a finite value may be infinite in minutes
            self.minutes = self.value * scale[self.unit]
        self.rating = np.array(ratings, dtype=float)
        self.respondent = tuple(respondents)
        return self

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
        if not fh.seekable():  # a pipe: keep its text, so that a bad row can be found again
            fh = io.StringIO(fh.read(), newline="")
        _, header = next(_csv_rows(fh), (1, None))
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(1, f"expected header {','.join(CSV_HEADER)!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, _ROW, delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError:
            _raise_first_bad_row(fh)
        events, adverbials, (spelling_ids, spelling) = (
            _encode(table[name]) for name in ("event", "adverbial", "elapsed_unit")
        )
        respondents = [who or None for who in table["respondent"].tolist()]
        value, rating = table["elapsed_value"].copy(), table["rating"].copy()
        del table
        units = np.array([canonical_unit(text) for text in spelling_ids], dtype=object)
        unit_ids, unit = _encode(units)  # per spelling
        data = Dataset.__new__(Dataset)._fill(
            events, adverbials, value, (unit_ids, unit[spelling]), rating, respondents
        )
        in_range = (rating >= 0.0) & (rating <= 1.0) & (value >= 0.0) & (data.minutes < math.inf)
        if "" in data.event_ids or "" in data.adverbial_ids or not in_range.all():
            _raise_first_bad_row(fh)
    return data


def _number(text: str) -> float:
    """float(text) for the grammar numpy's parser reads: ASCII inside whitespace, no "_"."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(text)
    return float(text.strip())


def _csv_rows(fh):
    """(line, row) of each CSV row from line 1; a row csv cannot read raises CsvError."""
    line = 0
    try:
        for line, row in enumerate(csv.reader(fh), start=1):
            yield line, row
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise CsvError(line + 1, str(exc)) from None


def _raise_first_bad_row(fh) -> NoReturn:
    """Rescan the open CSV row by row and raise the first bad row's CsvError."""
    fh.seek(0)
    rows = _csv_rows(fh)
    next(rows)
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise CsvError(lineno, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
        event_id, adverbial_id, value_text, spelling, rating_text, _ = row
        if not event_id or not adverbial_id:
            raise CsvError(lineno, "event and adverbial must be non-empty")
        try:
            value = _number(value_text)
        except ValueError:
            raise CsvError(lineno, f"bad elapsed_value {value_text!r}") from None
        try:
            rating = _number(rating_text)
        except ValueError:
            raise CsvError(lineno, f"bad rating {rating_text!r}") from None
        if not 0.0 <= rating <= 1.0:
            raise CsvError(lineno, f"rating {rating_text!r} outside [0, 1]")
        try:
            Duration(value, canonical_unit(spelling))
        except (UnknownUnitError, DomainError) as exc:
            raise CsvError(lineno, str(exc)) from None
    raise RuntimeError("the CSV was rejected in bulk, but the row scan found no bad row")


def _csv_field(label: str) -> str:
    """label as csv.writer writes it as one field of a longer row, quoted if it holds \\r."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((label, ""))
    return buf.getvalue()[: -len(",\r\n")]


def save_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset in the judgment CSV schema, floats at 9 significant digits.

    The "event,adverbial,value,unit," prefix is formatted once per distinct
    (event, adverbial, value, unit), found through one sort, and gathered per
    vote; values are grouped on their bits, so -0.0 keeps its "-0".  Only the
    rating and the respondent are written per vote.
    """
    quote = np.frompyfunc(_csv_field, 1, 1)  # once per distinct label
    respondents = {who: _csv_field(who or "") for who in set(dataset.respondent)}
    bits = dataset.value.view(np.int64)
    order = np.lexsort((bits, dataset.unit, dataset.adverbial, dataset.event))
    keys = [c[order] for c in (dataset.event, dataset.adverbial, bits, dataset.unit)]
    starts = _run_starts(*keys)
    event, adverbial, bits, unit = (c[starts] for c in keys)
    prefixes = zip(
        quote(dataset.event_ids)[event].tolist(),
        quote(dataset.adverbial_ids)[adverbial].tolist(),
        bits.view(float).tolist(),
        quote(dataset.unit_ids)[unit].tolist(),
    )
    distinct = np.array(list(map("%s,%s,%.9g,%s,".__mod__, prefixes)), dtype=object)
    prefix = np.empty(len(order), dtype=object)  # in row order
    prefix[order] = np.repeat(distinct, np.diff(starts, append=len(order)))
    rows = zip(
        prefix.tolist(), dataset.rating.tolist(), map(respondents.__getitem__, dataset.respondent)
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(map("%s%.9g,%s\n".__mod__, rows))


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

    event_ids = np.array(sorted(truth.events), dtype=object)
    adverbial_ids = np.array(sorted(truth.adverbials), dtype=object)
    shape = (event_ids.size, adverbial_ids.size, times_per_event)
    event, adverbial, time = np.indices(shape).reshape(3, -1)  # one entry per cell
    sigma_e = [truth.events[event_id].sigma_e for event_id in event_ids]
    times = np.array([np.geomspace(s / 100.0, 100.0 * s, times_per_event) for s in sigma_e])
    t = times[event, time]
    rating = np.repeat(truth.predict(event_ids[event], adverbial_ids[adverbial], t), votes_per_cell)
    if noise_sd > 0.0:
        noise = np.random.default_rng(seed).normal(0.0, noise_sd, size=rating.size)
        rating = np.clip(rating + noise, 0.0, 1.0)

    # Zero-padded respondent labels keep lexicographic and numeric order aligned.
    pad = len(str(votes_per_cell - 1))
    respondents = tuple(f"p{v:0{pad}d}" for v in range(votes_per_cell))
    return Dataset.__new__(Dataset)._fill(
        (event_ids, np.repeat(event, votes_per_cell)),
        (adverbial_ids, np.repeat(adverbial, votes_per_cell)),
        np.repeat(t, votes_per_cell),
        (np.array(["minute"], dtype=object), np.zeros(rating.size, dtype=np.intp)),
        rating,
        respondents * t.size,
    )
