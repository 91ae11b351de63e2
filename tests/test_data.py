import csv
import io
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from justnow import data as data_module
from justnow.data import (
    CSV_HEADER,
    CsvError,
    Dataset,
    JudgmentRecord,
    generate_synthetic,
    load_csv,
    normalize_likert,
    save_csv,
)
from justnow.evaluation import accuracy
from justnow.fitting import FitConfig, cell_means, fit_baseline, fit_factorized
from justnow.model import (
    UNIT_MINUTES,
    AdverbialParams,
    DomainError,
    Duration,
    EventParams,
    FactorizedModel,
    UnknownUnitError,
    canonical_unit,
    composite_probability,
    reference_model,
)


class TestNormalizeLikert:
    def test_endpoints_and_midpoint(self):
        assert normalize_likert(1, 1, 5) == 0.0
        assert normalize_likert(5, 1, 5) == 1.0
        assert normalize_likert(3, 1, 5) == 0.5

    def test_seven_point_scale(self):
        assert normalize_likert(1, 1, 7) == 0.0
        assert normalize_likert(7, 1, 7) == 1.0
        assert normalize_likert(4, 1, 7) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            normalize_likert(0, 1, 5)
        with pytest.raises(ValueError):
            normalize_likert(6, 1, 5)

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError):
            normalize_likert(1, 1, 1)
        with pytest.raises(ValueError):
            normalize_likert(1, 5, 1)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_order_preserving(self, a, b):
        na, nb = normalize_likert(a, 1, 5), normalize_likert(b, 1, 5)
        assert (a < b) == (na < nb)
        assert 0.0 <= na <= 1.0

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_formula(self, lo, width, offset):
        hi = lo + width
        raw = lo + min(offset, width)
        assert normalize_likert(raw, lo, hi) == (raw - lo) / (hi - lo)


class TestJudgmentRecord:
    def test_valid(self):
        rec = JudgmentRecord("e", "a", Duration(1.0, "day"), 0.75, "p01")
        assert rec.rating == 0.75

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_rating_out_of_range(self, bad):
        with pytest.raises(ValueError):
            JudgmentRecord("e", "a", Duration(1.0, "day"), bad)


class TestCsv:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_load_small_file(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                ",".join(CSV_HEADER),
                "Vacation,Recently,1,month,0.8,p01",
                "Vacation,Recently,2,months,0.6,p02",
                "Marriage,Long Time Ago,10,years,1.0,",
            ],
        )
        data = load_csv(path)
        assert len(data) == 3
        first = data.records[0]
        assert first.event_id == "Vacation"
        assert first.adverbial_id == "Recently"
        assert first.elapsed == Duration(1.0, "month")
        assert first.rating == 0.8
        assert first.respondent_id == "p01"
        # empty respondent column maps to None
        assert data.records[2].respondent_id is None
        # row order preserved
        assert [r.elapsed.value for r in data.records] == [1.0, 2.0, 10.0]

    def test_each_unit_spelling_canonicalized_once(self, tmp_path, monkeypatch):
        spellings = []

        def counted(text):
            spellings.append(text)
            return canonical_unit(text)

        monkeypatch.setattr(data_module, "canonical_unit", counted)
        rows = [f"e,a,{i},{unit},0.5," for i in range(1, 31) for unit in ("day", " Days", "day")]
        data = load_csv(self._write(tmp_path, [",".join(CSV_HEADER), *rows]))
        assert sorted(spellings) == [" Days", "day"]
        assert len(data) == 90
        assert data.unit_ids.tolist() == ["day"]

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = self._write(tmp_path, [",".join(CSV_HEADER)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = load_csv(path)
        assert len(data) == 0

    def test_bad_header_reports_line_one(self, tmp_path):
        path = self._write(tmp_path, ["a,b,c", "Vacation,Recently,1,month,0.8,p01"])
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "lines, line",
        [
            # loadtxt reads the long id; the rescan for the bad row meets csv's field limit.
            ([",".join(CSV_HEADER), "e" * 200_000 + ",a,1,day,0.5,p01", "e,a,1,day,2,p01"], 2),
            (["x" * 200_000, "Vacation,Recently,1,month,0.8,p01"], 1),
        ],
    )
    def test_field_over_csv_limit_names_its_line(self, tmp_path, lines, line):
        with pytest.raises(CsvError) as err:
            load_csv(self._write(tmp_path, lines))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: field larger than field limit (131072)"

    def test_rating_out_of_bounds_names_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                ",".join(CSV_HEADER),
                "Vacation,Recently,1,month,0.8,p01",
                "Vacation,Recently,2,month,1.2,p01",
            ],
        )
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert err.value.line == 3
        assert "3" in str(err.value)

    @pytest.mark.parametrize(
        "row",
        [
            "Vacation,Recently,1,month,0.8",
            "Vacation,Recently,1,month,0.8,p01,extra",
            "Vacation,Recently,one,month,0.8,p01",
            "Vacation,Recently,1,month,high,p01",
            "Vacation,Recently,1,fortnight,0.8,p01",
            "Vacation,Recently,-1,month,0.8,p01",
            "Vacation,Recently,1e308,year,0.8,p01",
            "Vacation,Recently,1,month,nan,p01",
            ",Recently,1,month,0.8,p01",
            "Vacation,,1,month,0.8,p01",
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, row):
        path = self._write(tmp_path, [",".join(CSV_HEADER), row])
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "first, second",
        [
            ("Vacation,Recently,1,month,1.5,p01", "Vacation,Recently,1,fortnight,0.8,p01"),
            ("Vacation,Recently,1,fortnight,0.8,p01", "Vacation,Recently,1,month,1.5,p01"),
            ("Vacation,Recently,-1,month,0.8,p01", "Vacation,Recently,1,month"),
        ],
    )
    def test_first_of_two_bad_rows_reported(self, tmp_path, first, second):
        path = self._write(
            tmp_path,
            [",".join(CSV_HEADER), "Vacation,Recently,1,month,0.8,p01", first, "", second],
        )
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert err.value.line == 3
        assert str(err.value).startswith("line 3: ")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bad_row_read_from_a_pipe_names_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        os.mkfifo(path)
        rows = ["Vacation,Recently,1,month,0.8,", "Vacation,Recently,1,month,1.2,"]
        text = "\n".join([",".join(CSV_HEADER), *rows, ""])
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            with pytest.raises(CsvError) as err:
                load_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(err.value) == "line 3: rating '1.2' outside [0, 1]"

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            [",".join(CSV_HEADER), "", "Vacation,Recently,1,month,0.8,p01", ""],
        )
        assert len(load_csv(path)) == 1

    def test_round_trip(self, tmp_path):
        truth = reference_model()
        data = generate_synthetic(truth, times_per_event=3, votes_per_cell=2, noise_sd=0.1, seed=7)
        path = tmp_path / "out.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert len(back) == len(data)
        for orig, rt in zip(data.records, back.records):
            assert rt.event_id == orig.event_id
            assert rt.adverbial_id == orig.adverbial_id
            assert rt.respondent_id == orig.respondent_id
            # %.9g serialization: 9 significant digits survive
            assert rt.elapsed.to_minutes() == pytest.approx(
                orig.elapsed.to_minutes(), rel=1e-8
            )
            assert rt.rating == pytest.approx(orig.rating, rel=1e-8)

    def test_save_writes_expected_header(self, tmp_path):
        data = Dataset(records=())
        path = tmp_path / "empty.csv"
        save_csv(data, path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    @given(
        rows=st.lists(
            st.tuples(
                st.text(st.sampled_from('ab ,"\n\r'), min_size=1, max_size=4),
                st.sampled_from(["Just", "a,b", ' "q"', "x\ny", "x\ry", " lead", "trail "]),
                st.sampled_from([0.5, 60.0, 1e-300, 123456.789, 0.0, -0.0]),
                st.sampled_from(sorted(UNIT_MINUTES)),
                st.sampled_from([0.0, 1.0, 0.25, 0.123456789012]),
                st.sampled_from([None, "", "p1", "p,1", 'p"1', "p\r\n1", " p1"]),
            ),
            max_size=12,
        ).map(lambda rows: rows + [rows[0][:4] + rows[-1][4:]] if rows else rows)
    )
    # A row prefix is one (event, adverbial, value, unit), and -0.0 == 0.0 is no reason
    # to share one: "-0" must stay "-0" with "0" written before and after it.
    @example(rows=[("e", "Just", v, "day", 0.5, None) for v in (0.0, -0.0, 0.0, -0.0)])
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_save_matches_csv_writer_and_loads_back(self, tmp_path, rows):
        # A drawn list ends in one more row with its first row's event, adverbial, value and
        # unit: from three rows on, a repeated prefix apart from its first use.
        data = Dataset([_vote(*row) for row in rows])
        path = tmp_path / "saved.csv"
        save_csv(data, path)
        # Each row as csv.writer writes it, ending in "\n"; "\r\n" as the writer's line
        # terminator quotes a bare "\r", which a reader would otherwise take for a line end.
        expected = [",".join(CSV_HEADER) + "\n"]
        for event_id, adverbial_id, value, unit, rating, who in rows:
            line = io.StringIO(newline="")
            csv.writer(line, lineterminator="\r\n").writerow(
                (event_id, adverbial_id, f"{value:.9g}", unit, f"{rating:.9g}", who or "")
            )
            expected.append(line.getvalue()[: -len("\r\n")] + "\n")
        assert path.read_bytes() == "".join(expected).encode("utf-8")

        back = load_csv(path)
        assert back.records == tuple(
            _vote(event_id, adverbial_id, float(f"{value:.9g}"), unit, float(f"{rating:.9g}"),
                  who or None)
            for event_id, adverbial_id, value, unit, rating, who in rows
        )


def _documented_float(text):
    """float(text), narrowed and widened as README "File formats" documents.

    "_" and non-ASCII digits are rejected; whitespace that str.strip() removes pads a
    number, including the ASCII separators \\x1c-\\x1f that float() alone rejects.
    """
    if "_" in text or any(ch.isdecimal() and not ch.isascii() for ch in text):
        raise ValueError(text)
    return float(text.strip())


def _row_loop(path):
    """The loader as one streaming csv.reader pass, its floats as float.hex()."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(1, f"expected header {','.join(CSV_HEADER)!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvError(lineno, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            event_id, adverbial_id, value_text, spelling, rating_text, respondent = row
            if not event_id or not adverbial_id:
                raise CsvError(lineno, "event and adverbial must be non-empty")
            try:
                value = _documented_float(value_text)
            except ValueError:
                raise CsvError(lineno, f"bad elapsed_value {value_text!r}") from None
            try:
                rating = _documented_float(rating_text)
            except ValueError:
                raise CsvError(lineno, f"bad rating {rating_text!r}") from None
            if not 0.0 <= rating <= 1.0:
                raise CsvError(lineno, f"rating {rating_text!r} outside [0, 1]")
            unit = canonical_unit(spelling)
            try:
                Duration(value, unit)
            except (UnknownUnitError, DomainError) as exc:
                raise CsvError(lineno, str(exc)) from None
            # float.hex tells every double apart, -0.0 from 0.0 too.
            who = respondent or None
            rows.append((event_id, adverbial_id, value.hex(), unit, rating.hex(), who))
    return rows


def _outcome_of_load(load, path):
    """load(path)'s rows, or the line and message of its CsvError."""
    try:
        return load(path)
    except CsvError as exc:
        return exc.line, str(exc)


def _loaded_rows(path):
    data = load_csv(path)
    return list(zip(
        data.event_ids[data.event].tolist(), data.adverbial_ids[data.adverbial].tolist(),
        [value.hex() for value in data.value.tolist()], data.unit_ids[data.unit].tolist(),
        [rating.hex() for rating in data.rating.tolist()], data.respondent,
    ))


_LABEL = st.text(st.sampled_from('ab ,"\n\r'), min_size=1, max_size=4)
_CSV_FIELDS = (
    _LABEL,
    _LABEL,
    st.one_of(
        st.sampled_from(
            ["1", "+.5", "-0", "\t1", " 2.5 ", "1e-400", "7.", "1E3", "\x1c3", "\xa04", "\u20032"]
        ),
        st.floats(min_value=0.0, max_value=1e12).map(repr),
    ),
    st.sampled_from(["day", "Days", " HOUR ", "minutes", "MINUTE", "weeks", "month", " years"]),
    st.one_of(
        st.sampled_from(["0", "1", "+.5", "-0", "\t1", "0.25 ", "1e-400", "\x1f.5", "1.000"]),
        st.floats(min_value=0.0, max_value=1.0).map(repr),
    ),
    st.one_of(st.just(""), _LABEL),
)
# What turns a row bad, as (column, text): empty ids, numbers out of range, numbers
# float() reads but the file may not hold, and unknown units.
_BAD_FIELDS = [(0, ""), (1, "")] + [
    (column, text)
    for column, texts in (
        (2, ["1e400", "nan", "-1", "-0.5", "inf", "1_0", "\u0663", "\uff11", "", "x"]),
        (3, ["fortnight", "", "dayss", "d ay", "1"]),
        (4, ["nan", "1.5", "-0.1", "1e400", "1_0", "\u0663", "0.\u0665", "", "x"]),
    )
    for text in texts
]


def _csv_line(fields, quote_all):
    """One CSV line; fields that need it are quoted, and the rest too under quote_all."""
    return ",".join(
        '"' + f.replace('"', '""') + '"' if quote_all or f[:1] == '"' or set(f) & set(',\r\n')
        else f
        for f in fields
    )


class TestLoadCsvAgainstRowLoop:
    """load_csv reads every file as a streaming csv.reader row loop does, bit for bit."""

    @given(draw=st.data())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_same_columns_or_same_error(self, tmp_path, draw):
        rows = draw.draw(st.lists(st.tuples(*_CSV_FIELDS).map(list), max_size=8))
        defect = draw.draw(st.sampled_from([None, "field", "field", "field", "short", "long"]))
        if defect is not None:
            row = draw.draw(st.tuples(*_CSV_FIELDS).map(list))
            if defect == "field":
                column, text = draw.draw(st.sampled_from(_BAD_FIELDS))
                row[column] = text
            elif defect == "short":
                row = row[: draw.draw(st.integers(1, 5))]
            else:
                row.append(draw.draw(_LABEL))
            at = draw.draw(st.one_of(st.just(len(rows)), st.integers(0, len(rows))))
            rows.insert(at, row)
        lines = [_csv_line(row, draw.draw(st.booleans())) for row in rows]
        for _ in range(draw.draw(st.integers(0, 2))):
            at = draw.draw(st.integers(0, len(lines)))
            lines.insert(at, draw.draw(st.sampled_from(["", "", "", " ", "\t "])))
        eol = draw.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = eol.join([",".join(CSV_HEADER), *lines]) + draw.draw(st.sampled_from(["", eol]))
        path = tmp_path / "votes.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome_of_load(_loaded_rows, path) == _outcome_of_load(_row_loop, path)

    @pytest.mark.parametrize(
        "value, rating, message",
        [
            ("1_0", "0.5", "line 2: bad elapsed_value '1_0'"),
            ("\u0663", "0.5", "line 2: bad elapsed_value '\u0663'"),
            ("1", "0.1_0", "line 2: bad rating '0.1_0'"),
            ("1", "0.\u0665", "line 2: bad rating '0.\u0665'"),
        ],
    )
    def test_numbers_float_reads_but_the_file_may_not_hold(self, tmp_path, value, rating, message):
        path = tmp_path / "votes.csv"
        path.write_text(f"{','.join(CSV_HEADER)}\ne,a,{value},day,{rating},\n", encoding="utf-8")
        with pytest.raises(CsvError) as err:
            load_csv(path)
        assert str(err.value) == message


# Spellings the CSV accepts for each unit; all load as the first one.
UNIT_SPELLINGS = {
    "minute": ["minute", "minutes", "Minutes"],
    "hour": ["hour", "Hours", " HOUR "],
    "day": ["day", "days", "DAYS"],
}


def _vote(event_id, adverbial_id, value, unit, rating, who):
    return JudgmentRecord(event_id, adverbial_id, Duration(value, unit), rating, who)


# 60 minutes and 1 hour are one cell written two ways; two ids of each kind
# and few times make repeated cells, degenerate pairs and unfittable pairs.
votes = st.builds(
    _vote,
    st.sampled_from(["Vacation", "Birthday"]),
    st.sampled_from(["Just", "Recently"]),
    st.sampled_from([1.0, 2.5, 60.0]),
    st.sampled_from(sorted(UNIT_SPELLINGS)),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from([None, "p1", "p2"]),
)


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestDatasetConstruction:
    """A CSV and JudgmentRecords give the same columns, records, fits and scores."""

    @given(rows=st.lists(votes, min_size=12, max_size=48), draw=st.data())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_csv_and_records_agree(self, tmp_path, rows, draw):
        path = tmp_path / "votes.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in rows:
                spelling = draw.draw(st.sampled_from(UNIT_SPELLINGS[r.elapsed.unit]))
                writer.writerow([
                    r.event_id, r.adverbial_id, repr(r.elapsed.value), spelling,
                    repr(r.rating), r.respondent_id or "",
                ])
        loaded = load_csv(path)
        built = Dataset(rows)
        assert built.records == tuple(rows)
        assert loaded.records == built.records
        assert len(loaded) == len(built) == len(rows)

        # Another order of the same votes fits and scores bit for bit the same.
        shuffled = Dataset(draw.draw(st.permutations(rows)))
        config = FitConfig(multistart_count=2)
        for fit in (fit_factorized, fit_baseline):
            report = _outcome(fit, loaded, config)
            assert _outcome(fit, shuffled, config) == report
            if isinstance(report, tuple):
                continue
            assert accuracy(report.model, loaded) == accuracy(report.model, shuffled)

    @pytest.mark.parametrize("reduce", [lambda data: data, cell_means], ids=["votes", "cells"])
    def test_coded_columns_are_those_of_the_records(self, reduce):
        data = reduce(generate_synthetic(reference_model(), 3, 2, 0.3, seed=5))
        built = Dataset(data.records)
        for kind in ("event", "adverbial", "unit"):
            ids, codes = getattr(data, f"{kind}_ids"), getattr(data, kind)
            assert ids.dtype == object and ids.tolist() == getattr(built, f"{kind}_ids").tolist()
            assert codes.dtype == np.intp == getattr(built, kind).dtype
            assert codes.tobytes() == getattr(built, kind).tobytes()
            assert np.bincount(codes, minlength=ids.size).min() >= 1  # no id without a vote
        for column in ("value", "minutes", "rating"):
            assert getattr(data, column).dtype == getattr(built, column).dtype == float
            assert getattr(data, column).tobytes() == getattr(built, column).tobytes()
        assert data.respondent == built.respondent

    def test_labels_are_encoded_once_where_they_enter(self, tmp_path, tiny_truth, monkeypatch):
        encode, lengths = data_module._encode, []

        def counted(labels):
            lengths.append(len(labels))
            return encode(labels)

        monkeypatch.setattr(data_module, "_encode", counted)

        def vote_length_encodings(data):
            count = lengths.count(len(data))
            lengths.clear()
            return count

        synthetic = generate_synthetic(tiny_truth, 3, 4, 0.1, seed=0)
        assert vote_length_encodings(synthetic) == 0
        assert vote_length_encodings(cell_means(synthetic)) == 0
        rows = [f"e,a,{i},{unit},0.5," for i in range(1, 31) for unit in ("day", " Days", "hour")]
        (tmp_path / "votes.csv").write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
        loaded = load_csv(tmp_path / "votes.csv")
        assert len(loaded) == 90 and loaded.unit_ids.tolist() == ["day", "hour"]
        assert vote_length_encodings(loaded) == 3  # event, adverbial and unit spelling
        assert vote_length_encodings(Dataset(loaded.records)) == 3

    def test_columns(self):
        data = Dataset([
            _vote("Vacation", "Just", 2.0, "day", 0.25, "p1"),
            _vote("Birthday", "Just", 60.0, "minute", 1.0, None),
            _vote("Vacation", "Recently", 1.0, "hour", 0.5, "p1"),
        ])
        assert list(data.event_ids) == ["Birthday", "Vacation"]
        assert data.event.tolist() == [1, 0, 1]
        assert list(data.adverbial_ids) == ["Just", "Recently"]
        assert data.adverbial.tolist() == [0, 0, 1]
        assert list(data.unit_ids[data.unit]) == ["day", "minute", "hour"]
        assert data.value.tolist() == [2.0, 60.0, 1.0]
        assert data.minutes.tolist() == [2880.0, 60.0, 60.0]
        assert data.rating.tolist() == [0.25, 1.0, 0.5]
        assert data.respondent == ("p1", None, "p1")
        assert list(data) == list(data.records)


class TestGenerateSynthetic:
    def test_record_count(self, tiny_truth):
        data = generate_synthetic(tiny_truth, times_per_event=5, votes_per_cell=3, noise_sd=0.0, seed=0)
        assert len(data) == 2 * 2 * 5 * 3

    def test_full_reference_count(self):
        data = generate_synthetic(reference_model(), times_per_event=2, votes_per_cell=2, noise_sd=0.0, seed=0)
        assert len(data) == 6 * 4 * 2 * 2

    def test_zero_noise_ratings_equal_model(self, tiny_truth):
        data = generate_synthetic(tiny_truth, times_per_event=4, votes_per_cell=2, noise_sd=0.0, seed=3)
        for rec in data:
            expected = composite_probability(
                rec.elapsed,
                tiny_truth.event(rec.event_id),
                tiny_truth.adverbial(rec.adverbial_id),
            )
            assert rec.rating == expected

    def test_zero_noise_ignores_seed(self, tiny_truth):
        a = generate_synthetic(tiny_truth, 4, 2, 0.0, seed=1)
        b = generate_synthetic(tiny_truth, 4, 2, 0.0, seed=99)
        assert a.records == b.records

    def test_deterministic_for_seed(self, tiny_truth):
        a = generate_synthetic(tiny_truth, 4, 3, 0.1, seed=42)
        b = generate_synthetic(tiny_truth, 4, 3, 0.1, seed=42)
        assert a.records == b.records

    def test_seed_changes_noise(self, tiny_truth):
        a = generate_synthetic(tiny_truth, 4, 3, 0.1, seed=1)
        b = generate_synthetic(tiny_truth, 4, 3, 0.1, seed=2)
        assert a.records != b.records

    def test_ratings_clipped_to_unit_interval(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 6, 10, 0.5, seed=11)
        assert all(0.0 <= r.rating <= 1.0 for r in data)
        # with sd 0.5 both clip boundaries are hit
        assert any(r.rating == 0.0 for r in data)
        assert any(r.rating == 1.0 for r in data)

    def test_time_grid_spans_four_decades_around_sigma(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 5, 1, 0.0, seed=0)
        sigma = tiny_truth.event("meal").sigma_e
        times = sorted(
            {r.elapsed.to_minutes() for r in data if r.event_id == "meal"}
        )
        assert len(times) == 5
        assert times[0] == pytest.approx(sigma / 100.0, rel=1e-12)
        assert times[-1] == pytest.approx(sigma * 100.0, rel=1e-12)
        # log-spaced: constant ratio between consecutive grid points
        ratios = [b / a for a, b in zip(times, times[1:])]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_respondent_ids_zero_padded(self, tiny_truth):
        data = generate_synthetic(tiny_truth, 2, 12, 0.0, seed=0)
        ids = {r.respondent_id for r in data}
        assert "p00" in ids and "p11" in ids
        assert all(len(i) == 3 for i in ids)

    def test_validation(self, tiny_truth):
        with pytest.raises(ValueError):
            generate_synthetic(tiny_truth, 0, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(tiny_truth, 2, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(tiny_truth, 2, 2, -0.1, seed=0)

    def test_empty_truth_rejected(self):
        empty = FactorizedModel.from_params(
            [EventParams("e", 1.0)], []
        )
        with pytest.raises(ValueError):
            generate_synthetic(empty, 2, 2, 0.0, seed=0)
