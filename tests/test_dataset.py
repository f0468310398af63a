"""Tests for CSV ingestion, step tables, and series building."""

import csv
import datetime as dt
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minecost import (
    CarriedForwardWarning,
    CostParams,
    DomainError,
    EfficiencyTable,
    NetworkParams,
    ObservationRecord,
    Observations,
    PairedSeries,
    ParseError,
    RewardSchedule,
    ValidationError,
    build_backtest_series,
    bundled_data_path,
    load_bundled,
    load_observations,
    model_price,
    parse_efficiency_table,
    parse_observations,
    parse_reward_schedule,
    run_backtest,
    serialize_observations,
    serialize_step_table,
)
from minecost import dataset
from minecost.dataset import BUNDLED_FILES, OBSERVATION_COLUMNS
from tests.conftest import OTHER_DATE_FORMS, load_script

OBS_CSV = """date,difficulty,price_usd,eff_w_per_ghs
2016-06-25,2.0e11,600.0,0.5
2016-07-09,2.1e11,650.0,
2016-07-23,2.2e11,660.0,0.45
"""

SCHEDULE = RewardSchedule(
    entries=(
        (dt.date(2009, 1, 3), 50.0),
        (dt.date(2012, 11, 28), 25.0),
        (dt.date(2016, 7, 9), 12.5),
    )
)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
RECORDS = st.lists(
    st.builds(ObservationRecord, st.dates(), POSITIVE, POSITIVE, st.none() | POSITIVE),
    min_size=1, max_size=12, unique_by=lambda r: r.date,
).map(lambda records: sorted(records, key=lambda r: r.date))
OBSERVATION_SETS = st.lists(
    st.tuples(st.dates(), POSITIVE, POSITIVE, st.just(math.nan) | POSITIVE),
    min_size=1, max_size=12, unique_by=lambda row: row[0],
).map(lambda rows: Observations(*zip(*sorted(rows, key=lambda row: row[0]))))


class TestParseObservations:
    def test_happy_path_with_optional_efficiency(self):
        records = parse_observations(OBS_CSV)
        assert len(records) == 3
        assert records[0].date == dt.date(2016, 6, 25)
        assert records[0].efficiency == 0.5
        assert records[1].efficiency is None
        assert records[2].market_price == 660.0

    def test_header_order_does_not_matter(self):
        shuffled = (
            "price_usd,date,difficulty\n"
            "600.0,2016-06-25,2.0e11\n"
            "650.0,2016-07-09,2.1e11\n"
        )
        records = parse_observations(shuffled)
        assert [r.difficulty for r in records] == [2.0e11, 2.1e11]
        assert all(r.efficiency is None for r in records)

    def test_bad_float_reports_line_number(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11,sixhundred\n"
        with pytest.raises(ParseError, match="line 2") as excinfo:
            parse_observations(bad)
        assert excinfo.value.code == "parse"

    def test_bad_date_reports_line_number(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-06-25,2.0e11,600.0\n"
            "06/25/2016,2.1e11,650.0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_observations(bad)

    def test_wrong_field_count_rejected(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_observations(bad)

    @pytest.mark.parametrize("last, message", [
        ("2013-07-01,x,3", "bad difficulty value 'x'"),
        ("2013-07-01,3", "expected 3 fields, got 2"),
    ], ids=["bad-value", "wrong-width"])
    def test_a_row_is_named_by_its_first_line(self, last, message):
        """A line break inside a quoted field counts as a line."""
        text = f'date,difficulty,price_usd\n2013-06-29,1,"2\n"\n{last}\n'
        with pytest.raises(ParseError, match=f"^line 4: {message}$"):
            parse_observations(text)

    def test_unknown_column_rejected(self):
        bad = "date,difficulty,price_usd,volume\n"
        with pytest.raises(ParseError, match="volume"):
            parse_observations(bad)

    def test_missing_required_column_rejected(self):
        bad = "date,price_usd\n2016-06-25,600.0\n"
        with pytest.raises(ParseError, match="difficulty"):
            parse_observations(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_observations("")

    def test_out_of_order_dates_rejected(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-07-09,2.1e11,650.0\n"
            "2016-06-25,2.0e11,600.0\n"
        )
        with pytest.raises(ValidationError, match="out of order"):
            parse_observations(bad)

    def test_duplicate_dates_rejected(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-06-25,2.0e11,600.0\n"
            "2016-06-25,2.0e11,601.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_observations(bad)

    @pytest.mark.parametrize("column, field, message", [
        ("price_usd", "x" * 64, f"bad price_usd value '{'x' * 64}'"),
        ("price_usd", "x" * 65, f"bad price_usd value '{'x' * 32}'... (65 characters)"),
        ("date", "2" * 64,
         f"bad date '{'2' * 64}': Invalid isoformat string: '{'2' * 64}'"),
        ("date", "2" * 65, f"bad date '{'2' * 32}'... (65 characters)"),
    ])
    def test_a_bad_field_over_64_characters_is_named_once(self, column, field, message):
        row = {"date": "2016-06-25", "difficulty": "2.0e11", "price_usd": "600.0"}
        row[column] = field
        bad = f"date,difficulty,price_usd\n{','.join(row.values())}\n"
        with pytest.raises(ParseError) as info:
            parse_observations(bad)
        assert str(info.value) == f"line 2: {message}"

    def test_nonpositive_value_names_line(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11,-600.0\n"
        with pytest.raises(ValidationError, match="line 2"):
            parse_observations(bad)

    def test_serialize_round_trip(self):
        records = parse_observations(OBS_CSV)
        text = serialize_observations(records)
        again = parse_observations(text)
        assert again == records
        assert serialize_observations(again) == text

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(RECORDS)
    def test_parse_inverts_serialize(self, records):
        assert parse_observations(serialize_observations(records)) == records

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(OBSERVATION_SETS)
    def test_parse_inverts_serialize_of_columns(self, observations):
        """Dates from year 1 to 9999, subnormal to near-overflow values, NaN
        efficiencies: every set the writer takes, its reader reads back."""
        text = serialize_observations(observations)
        again = parse_observations(text)
        assert again == observations
        assert serialize_observations(again) == text

    @pytest.mark.parametrize("dates, problem", [
        ((dt.date(2020, 1, 2), dt.date(2020, 1, 1)),
         "observation dates out of order: 2020-01-01 after 2020-01-02"),
        ((dt.date(2020, 1, 1),) * 2, "duplicate observation date 2020-01-01"),
    ], ids=["out-of-order", "duplicate"])
    def test_observations_refuse_the_dates_the_reader_refuses(self, dates, problem):
        message = f"{problem} (dates must be strictly increasing)"
        rows = [ObservationRecord(date, 1e12, 900.0, 0.2) for date in dates]
        with pytest.raises(ValidationError) as info:
            Observations(dates, [1e12] * 2, [900.0] * 2, [0.2] * 2)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            serialize_observations(rows)
        assert str(info.value) == message
        text = "".join(f"{date},1e12,900.0,0.2\n" for date in dates)
        with pytest.raises(ValidationError) as info:
            parse_observations(f"date,difficulty,price_usd,eff_w_per_ghs\n{text}")
        assert str(info.value) == message

    @pytest.mark.parametrize("records", [[], parse_observations(OBS_CSV)[1:1]],
                             ids=["records", "empty-slice"])
    def test_serialize_refuses_an_empty_set_as_parse_does(self, records):
        message = "observations must have at least one record"
        with pytest.raises(ValidationError) as info:
            serialize_observations(records)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            parse_observations("date,difficulty,price_usd\n")
        assert str(info.value) == message

    def test_repeated_column_rejected(self):
        bad = "date,difficulty,price_usd,difficulty\n2016-06-25,2.0e11,600.0,2.0e11\n"
        with pytest.raises(ParseError, match="^line 1: repeated column 'difficulty'$"):
            parse_observations(bad)

    def test_serialize_omits_efficiency_column_when_unused(self):
        records = parse_observations(
            "date,difficulty,price_usd\n2016-06-25,2.0e11,600.0\n"
        )
        assert "eff_w_per_ghs" not in serialize_observations(records)

    def test_serialize_reproduces_the_packaged_observations(self):
        packaged = bundled_data_path("observations.csv").read_bytes()
        assert serialize_observations(load_bundled()[0]).encode() == packaged

    @pytest.mark.parametrize("text, expected", [
        (OBS_CSV, "date,difficulty,price_usd,eff_w_per_ghs\n"
                  "2016-06-25,200000000000.0,600.0,0.5\n"
                  "2016-07-09,210000000000.0,650.0,\n"
                  "2016-07-23,220000000000.0,660.0,0.45\n"),
        ("date,difficulty,price_usd\n2016-06-25,2.0e11,600.0\n",
         "date,difficulty,price_usd\n2016-06-25,200000000000.0,600.0\n"),
    ], ids=["efficiency", "no-efficiency"])
    def test_serialize_writes_columns_and_records_alike(self, text, expected):
        observations = parse_observations(text)
        assert serialize_observations(observations) == expected
        assert serialize_observations(list(observations)) == expected


def _read_date(text):
    """The format's date rule, one text at a time, on every Python.

    ``YYYY-MM-DD`` in ASCII, its calendar read by ``date.fromisoformat``;
    any other form is an error in the words of Python 3.10's.
    """
    if not (len(text) == 10 and text.isascii() and text[4] == text[7] == "-"):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _row_by_row(text):
    """Records of an observations file, read one row and one field at a time.

    The reference for the columnar reader: each row's width, then its date,
    numbers and record checks, each error naming its line; then the file's
    record count and date order.
    """
    rows = list(csv.reader(io.StringIO(text)))
    names = [name.strip() for name in rows[0]]
    records = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise ParseError(f"expected {len(names)} fields, got {len(row)}", line)
        field = dict(zip(names, row))
        try:
            date = _read_date(field["date"].strip())
        except ValueError as exc:
            raise ParseError(f"bad date {field['date']!r}: {exc}", line) from None
        values = []
        for name in ("difficulty", "price_usd", "eff_w_per_ghs"):
            text = field.get(name, "").strip() if name == "eff_w_per_ghs" else field[name]
            if name == "eff_w_per_ghs" and not text:
                values.append(None)
                continue
            try:
                if "_" in text:
                    raise ValueError(text)
                values.append(float(text))
            except ValueError:
                raise ParseError(f"bad {name} value {text!r}", line) from None
        try:
            records.append(ObservationRecord(date, *values))
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
    if not records:
        raise ValidationError("observations must have at least one record")
    for prev, cur in zip(records, records[1:]):
        if cur.date <= prev.date:
            problem = (
                f"duplicate observation date {cur.date}" if cur.date == prev.date
                else f"observation dates out of order: {cur.date} after {prev.date}"
            )
            raise ValidationError(f"{problem} (dates must be strictly increasing)")
    return records


def _assert_reads_as_row_by_row(text):
    """``parse_observations(text)`` gives the reference's records or error."""
    try:
        expected = _row_by_row(text)
    except (ParseError, ValidationError) as exc:
        with pytest.raises(type(exc)) as info:
            parse_observations(text)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "line", None) == getattr(exc, "line", None)
        return exc
    assert parse_observations(text) == expected
    return expected


def _daily_observations(n, efficiency=True):
    """``n`` well-formed rows, one a day from 2009-01-03, as lists of fields."""
    return [
        [(dt.date(2009, 1, 3) + dt.timedelta(days=i)).isoformat(), f"{1e6 + i!r}",
         f"{0.5 + i!r}", *([f"{0.25 + i / 1e4!r}"] if efficiency else [])]
        for i in range(n)
    ]


def _csv_text(rows, efficiency=True):
    header = ",".join(OBSERVATION_COLUMNS if efficiency else OBSERVATION_COLUMNS[:3])
    return "\n".join([header, *map(",".join, rows)]) + "\n"


DATE_EDGES = ["20090109", " 2009-01-09 ", "2009-01-09T00", "NaT", "2009-W02-5",
              "2009-W02", "2009W025", "\uff12\uff10\uff10\uff19-01-09"]
NUMBER_EDGES = ["1e5", " 7.5 ", "nan", "inf", "-0", "0x10", "9_4.88", "", "  "]


class TestColumnarIngress:
    """The columns are checked in bulk, then row by row where a field fails."""

    @pytest.mark.parametrize("field", DATE_EDGES)
    def test_date_edge_field(self, field):
        rows = _daily_observations(10)
        assert rows[6][0] == "2009-01-09"
        rows[6][0] = field
        _assert_reads_as_row_by_row(_csv_text(rows))

    @pytest.mark.parametrize("column", [1, 2, 3], ids=OBSERVATION_COLUMNS[1:])
    @pytest.mark.parametrize("field", NUMBER_EDGES)
    def test_number_edge_field(self, column, field):
        rows = _daily_observations(10)
        rows[6][column] = field
        _assert_reads_as_row_by_row(_csv_text(rows))

    def test_edge_fields_read_as_the_format_says(self):
        """A few of the outcomes above, spelled out."""
        rows = _daily_observations(3)
        rows[1][0], rows[1][1], rows[1][2], rows[2][3] = (
            " 2009-01-04 ", " 1e5 ", " 7.5 ", "  ")
        records = _assert_reads_as_row_by_row(_csv_text(rows))
        assert records[1] == ObservationRecord(dt.date(2009, 1, 4), 1e5, 7.5, 0.2501)
        assert records[2].efficiency is None
        rows[1][3] = "nan"
        error = _assert_reads_as_row_by_row(_csv_text(rows))
        assert str(error) == (
            "line 3: efficiency must be positive and finite, got nan (2009-01-04)"
        )
        rows[1][0] = "20090104"
        error = _assert_reads_as_row_by_row(_csv_text(rows))
        assert str(error) == (
            "line 3: bad date '20090104': Invalid isoformat string: '20090104'"
        )

    @pytest.mark.parametrize("form", OTHER_DATE_FORMS)
    @pytest.mark.parametrize("parse, header, row", [
        (parse_observations, "date,difficulty,price_usd", "{},2.1e11,650.0"),
        (parse_efficiency_table, "date,w_per_ghs", "{},0.4"),
        (parse_reward_schedule, "date,reward_btc", "{},25.0"),
    ], ids=["observations", "efficiency", "rewards"])
    def test_a_date_in_another_form_is_a_parse_error_on_its_line(
            self, parse, header, row, form):
        """Each reader takes ``YYYY-MM-DD`` only, on every Python."""
        text = "\n".join([header, row.format("2012-11-28"), "", row.format(form)])
        with pytest.raises(ParseError) as info:
            parse(text + "\n")
        assert str(info.value) == (
            f"line 4: bad date {form!r}: Invalid isoformat string: {form!r}")
        assert info.value.line == 4

    def test_blank_and_filled_efficiencies_mix(self):
        rows = _daily_observations(40)
        for i in range(0, 40, 3):
            rows[i][3] = ""
        records = _assert_reads_as_row_by_row(_csv_text(rows))
        assert [r.efficiency is None for r in records] == [i % 3 == 0 for i in range(40)]

    @pytest.mark.parametrize("column, field, message", [
        (2, "x", "line 6001: bad price_usd value 'x'"),
        (2, "-1", "line 6001: market_price must be positive and finite, got -1.0 "
                  "(2025-06-07)"),
        (0, "2009-01-03", "observation dates out of order: 2009-01-03 after "
                          "2025-06-06 (dates must be strictly increasing)"),
    ])
    def test_bad_last_row_of_six_thousand(self, column, field, message):
        rows = _daily_observations(6000, efficiency=False)
        rows[-1][column] = field
        error = _assert_reads_as_row_by_row(_csv_text(rows, efficiency=False))
        assert str(error) == message

    @pytest.mark.parametrize("first, second", [
        ((1, 2, "x"), (3, None, None)),  # a bad value, then a short row
        ((1, None, None), (3, 2, "x")),  # a short row, then a bad value
        ((1, 1, "0"), (3, None, None)),  # a value out of range, then a short row
    ])
    def test_the_first_bad_row_wins(self, first, second):
        rows = _daily_observations(6)
        for index, column, field in (first, second):
            if column is None:
                rows[index] = rows[index][:2]
            else:
                rows[index][column] = field
        lines = _csv_text(rows).splitlines()
        lines.insert(1, "")  # a blank line still counts in the line numbers
        error = _assert_reads_as_row_by_row("\n".join(lines) + "\n")
        assert str(error).startswith(f"line {first[0] + 3}: ")

    def test_a_clean_file_is_not_read_row_by_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("read row by row")

        rows = _daily_observations(6000)
        for i in range(0, 6000, 7):
            rows[i][3] = ""
        text = _csv_text(rows)
        expected = _row_by_row(text)
        monkeypatch.setattr(dataset, "_checked_rows", refuse)
        assert parse_observations(text) == expected


def _csv_table(source, columns, required):
    """``_read_table``'s result from the rows ``csv.reader`` reads: the reference.

    A string is read as csv reads a file opened with ``newline=""``; any
    other source is handed to csv as it is. Each row is numbered by its first
    line, one past the last line csv read for the row before it. A header
    csv would reject, or a csv.Error, is the expected ParseError's line.
    """
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str)
                        else source)
    numbered, line = [], 1
    try:
        for row in reader:
            numbered.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        return ParseError(str(exc), reader.line_num)
    names = [name.strip() for name in numbered[0][1]] if numbered else []
    if (not numbered or len(set(names)) < len(names) or set(names) - set(columns)
            or set(columns[:required]) - set(names)):
        return ParseError("header", 1)
    numbered = [(line, row) for line, row in numbered[1:] if row]
    end = next((i for i, (_, row) in enumerate(numbered) if len(row) != len(names)),
               len(numbered))
    malformed = None
    if end < len(numbered):
        line, row = numbered[end]
        malformed = f"line {line}: expected {len(names)} fields, got {len(row)}"
    kept = numbered[:end]
    fields = tuple(tuple(row[names.index(name)] for _, row in kept)
                   if name in names else None for name in columns)
    return [line for line, _ in kept], fields, malformed


def _assert_reads_as_csv(source, columns=OBSERVATION_COLUMNS, required=3):
    """``_read_table(source)`` reads what csv reads, or fails on the same line."""
    expected = _csv_table(source, columns, required)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as info:
            dataset._read_table(source, columns, required)
        assert info.value.line == expected.line
        if expected.line != 1:
            assert str(info.value) == str(expected)
        return
    lines, fields, malformed = dataset._read_table(source, columns, required)
    assert (list(lines), fields, malformed and str(malformed)) == expected


HEADER = "date,difficulty,price_usd,eff_w_per_ghs\n"
TEXT_ALPHABET = ',"\r\n\x0b 0123456789.-'


class TestReaderMatchesCsv:
    """Rows split from the text, or read by csv, are what csv reads."""

    @pytest.mark.parametrize("text", [
        HEADER + '2009-01-03,"1,5",2.0,0.5\n2009-01-04,1.0,"2.0",\n',
        HEADER + "2009-01-03,1.0,2.0,0.5\r\n2009-01-04,1.0,2.0,\r\n",
        HEADER + "2009-01-03,1.0,2.0,0.5\r2009-01-04,1.0,2.0,\r",
        HEADER + "2009-01-03,1.0,2.0,0.5\n\n2009-01-04,1.0,2.0,\n",
        HEADER + "2009-01-03,1.0,2.0,0.5\n2009-01-04,1.0,2.0,\n\n\n",
        HEADER + "2009-01-03,1.0,2.0,0.5\n2009-01-04,1.0,2.0,",
        "", "\n", HEADER, HEADER[:-1], "date,w_per_ghs\n",
        HEADER + "2009-01-03,1.0,2.0,0.5\n2009-01-04,1.0,2.0,0.5\n2009-01-05,1.0\n"
        "2009-01-06,1.0,2.0,0.5\n",
        HEADER + "2009-01-03,1.0,2.0,0.5,\n",
        HEADER + "2009-01-03,1.\x000,2.0,0.5\n",
        HEADER + " 2009-01-03 , 1.0,2.0 ,\n",
        HEADER + "2009-01-03,1.0\x0b,\x0c2.0,0.5 2\n",
        HEADER + "2009-01-03,1.0,2.0,0.5\x85\x1c\x1d\x1e\n",
    ], ids=["quoted", "crlf", "cr", "blank-mid", "blank-end", "no-final-newline",
            "empty", "newline", "header-only", "header-no-newline", "other-header",
            "ragged", "wide", "nul", "padded", "vt-ff-ls", "nel-separators"])
    def test_text_reads_as_csv_reads_it(self, text):
        _assert_reads_as_csv(text)

    def test_lines_without_newlines_read_as_csv_reads_them(self):
        lines = ["date,difficulty,price_usd", "2009-01-03,1.0,2.0", "",
                 "2009-01-04,1.0,2.0"]
        _assert_reads_as_csv(lines)
        assert parse_observations(lines) == parse_observations("\n".join(lines))

    def test_an_oversize_field_fails_on_its_line_only_when_quoted(self):
        field = "9" * (csv.field_size_limit() + 1)
        quoted = HEADER + "2009-01-03,1.0,2.0,0.5\n" + f'2009-01-04,1.0,"{field}",\n'
        _assert_reads_as_csv(quoted)
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            dataset._read_table(quoted, OBSERVATION_COLUMNS, 3)
        _, fields, _ = dataset._read_table(quoted.replace('"', ""), OBSERVATION_COLUMNS, 3)
        assert fields[2] == ("2.0", field)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(header=st.sampled_from([
               (HEADER, OBSERVATION_COLUMNS, 3),
               ("price_usd,date,difficulty\n", OBSERVATION_COLUMNS, 3),
               ("date,w_per_ghs\n", ("date", "w_per_ghs"), 2),
               ("reward_btc , date\n", ("date", "reward_btc"), 2)]),
           body=st.text(TEXT_ALPHABET, max_size=40))
    @example(header=(HEADER, OBSERVATION_COLUMNS, 3), body="\n\n\n1\n,\n,,,\n")
    @example(header=("date,w_per_ghs\n", ("date", "w_per_ghs"), 2), body="1\n1,2,3\n")
    def test_drawn_text_reads_as_csv_reads_it(self, header, body):
        text, columns, required = header
        _assert_reads_as_csv(text + body, columns, required)


def _kept_texts(text):
    """The (date, price) texts the columnar reader keeps for ``text``."""
    observations = parse_observations(text)
    return observations.date_text, observations.price_text


# Candidate texts for the two checks: the writers' own forms, other forms of
# the same values, and digit strings cut by a point anywhere, so that the
# 15/16/17-digit and 1e-4 edges are crossed often.
PRICE_TEXTS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.builds(lambda x, places: f"{x:.{places}f}",
              st.floats(min_value=1e-6, max_value=1e17), st.integers(0, 20)),
    st.builds(lambda digits, at: f"{digits[:at]}.{digits[at:]}",
              st.text("0123456789", min_size=1, max_size=18), st.integers(0, 18)),
    st.builds(lambda digits, at: f"{digits[:at] or 0}.{digits[at:] or 0}",
              st.integers(1, 18).flatmap(
                  lambda k: st.integers(10 ** (k - 1), 10 ** k - 1)).map(str),
              st.integers(0, 18)),
    # The last: 16 digits that a double does not keep (repr 9.000000000000002).
    st.sampled_from(["0.0001", "0.00009999", "12345678901234.5", "9.000000000000001"]),
)
DATE_TEXTS = st.one_of(
    st.dates().map(dt.date.isoformat),
    st.dates().map(lambda d: f"{d.year:04d}{d.month:02d}{d.day:02d}"),
    st.dates().map(lambda d: "{:04d}-W{:02d}-{}".format(*d.isocalendar())),
    st.text("0123456789-W", min_size=8, max_size=10),
)


class TestKeptTexts:
    """The reader keeps the texts that are the writers' texts."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(PRICE_TEXTS, min_size=1, max_size=4))
    @example(["9.000000000000001"])
    @example(["0.00009999", "1.5"])
    def test_every_kept_price_text_is_its_repr(self, texts):
        accepted = [dataset._repr_texts([text]) is not None for text in texts]
        kept = dataset._repr_texts(texts)
        assert (kept is not None) == all(accepted)
        for text, ok in zip(texts, accepted):
            if ok:
                assert repr(float(text)) == text

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(DATE_TEXTS, min_size=1, max_size=4))
    def test_a_date_column_reads_as_its_texts_one_by_one(self, texts):
        """One check of the joined column is the rule applied to each text.

        Every date text read is its date's ``isoformat()``, so it is kept.
        """
        try:
            expected = tuple(map(_read_date, texts))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                dataset._iso_dates(texts)
            if len(texts) == 1:
                assert str(info.value) == str(exc)
            return
        assert dataset._iso_dates(texts) == expected
        assert [date.isoformat() for date in expected] == texts

    def test_a_canonical_file_keeps_both_columns(self):
        rows = _daily_observations(50)
        assert _kept_texts(_csv_text(rows)) == (
            [row[0] for row in rows], tuple(row[2] for row in rows))
        bundled = load_observations(bundled_data_path("observations.csv"))
        assert bundled.date_text is not None and bundled.price_text is not None

    @pytest.mark.parametrize("accepted", [
        "94.88", "0.0001", "21340000.0", "12345678901234.5", "0.0510219077"])
    def test_repr_texts_are_kept(self, accepted):
        assert repr(float(accepted)) == accepted
        assert dataset._repr_texts(["1.5", accepted]) is not None

    @pytest.mark.parametrize("field", [
        "0.10", "94", "094.5", "0.00001", "1e5", "+1.5", " 1.5", "0.30000000000000004"])
    def test_a_price_in_another_form_leaves_the_column_to_be_formatted(self, field):
        assert dataset._repr_texts([field]) is None
        rows = _daily_observations(10)
        rows[6][2] = field
        dates, prices = _kept_texts(_csv_text(rows))
        assert prices is None
        assert dates == [row[0] for row in rows]

    def test_a_padded_date_is_kept_stripped(self):
        rows = _daily_observations(10)
        assert rows[6][0] == "2009-01-09"
        rows[6][0] = " 2009-01-09 "
        dates, prices = _kept_texts(_csv_text(rows))
        assert dates == [row[0].strip() for row in rows]
        assert prices == tuple(row[2] for row in rows)

    def test_full_width_digits_are_not_read(self):
        with pytest.raises(ValueError):
            dataset._iso_dates(["\uff12\uff10\uff10\uff19-01-09"])
        assert dataset._repr_texts(["\uff19\uff14.88"]) is None

    def test_a_header_only_file_keeps_an_empty_date_column(self):
        _, fields, _ = dataset._read_table(
            "date,difficulty,price_usd\n", OBSERVATION_COLUMNS, required=3)
        observations = dataset._checked_columns(*fields)
        assert len(observations) == 0
        assert observations.date_text == [] and observations.price_text is None


class TestObservations:
    """The columns the loaders return, read as a sequence of records."""

    RECORDS = [
        ObservationRecord(dt.date(2016, 6, 25), 2.0e11, 600.0, 0.5),
        ObservationRecord(dt.date(2016, 7, 9), 2.1e11, 650.0),
        ObservationRecord(dt.date(2016, 7, 23), 2.2e11, 660.0, 0.45),
    ]

    def test_loaders_return_observations(self):
        assert isinstance(parse_observations(OBS_CSV), Observations)
        assert isinstance(load_observations(bundled_data_path("observations.csv")),
                          Observations)
        assert isinstance(load_bundled()[0], Observations)

    def test_indexing_reads_one_record(self):
        columns = Observations.of(self.RECORDS)
        assert [columns[i] for i in range(3)] == self.RECORDS
        assert [columns[i] for i in (-1, -2, -3)] == self.RECORDS[::-1]
        for index in (3, -4):
            with pytest.raises(IndexError):
                columns[index]

    @pytest.mark.parametrize("index", [
        slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
        slice(0, 3, 2), slice(2, 2), slice(5, 9), slice(2, 0, -2), slice(0, 2, -1)])
    def test_a_slice_is_columns_of_the_same_records(self, index):
        """Every slice is total; one with falling dates is a list of records."""
        part = Observations.of(self.RECORDS)[index]
        assert isinstance(part, list if (index.step or 1) < 0 else Observations)
        assert list(part) == self.RECORDS[index]
        assert len(part) == len(self.RECORDS[index])

    def test_a_slice_keeps_its_share_of_the_input_texts(self):
        text = serialize_observations(self.RECORDS)
        part = parse_observations(text)[::2]
        assert part.date_text == ["2016-06-25", "2016-07-23"]
        assert part.price_text == ("600.0", "660.0")
        assert parse_observations(OBS_CSV.replace("600.0", "600"))[1:].price_text is None

    def test_equals_any_sequence_of_equal_records(self):
        columns = Observations.of(self.RECORDS)
        for other in (self.RECORDS, tuple(self.RECORDS), Observations.of(self.RECORDS)):
            assert columns == other and other == columns
            assert not (columns != other or other != columns)

    def test_differs_when_a_field_or_the_length_differs(self):
        columns = Observations.of(self.RECORDS)
        changed = [
            self.RECORDS[:2],
            self.RECORDS + [ObservationRecord(dt.date(2016, 8, 6), 2.3e11, 670.0)],
            [*self.RECORDS[:2], ObservationRecord(dt.date(2016, 7, 23), 2.2e11, 661.0, 0.45)],
            [*self.RECORDS[:2], ObservationRecord(dt.date(2016, 7, 23), 2.2e11, 660.0)],
            [ObservationRecord(dt.date(2016, 6, 26), 2.0e11, 600.0, 0.5), *self.RECORDS[1:]],
        ]
        for other in changed:
            assert columns != other and other != columns
            assert columns != Observations.of(other)
        assert columns != "abc" and Observations.of([]) != ""

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Observations.of(self.RECORDS))

    def test_columns_cannot_be_written(self):
        columns, schedule, table = load_bundled()
        pair = build_backtest_series(columns, schedule, table)
        assert pair.market_prices.base is not None  # shared, not copied
        for array in (columns.difficulty, columns.market_price, columns.efficiency,
                      columns[:5].market_price, pair.market_prices):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_given_arrays_stay_writable(self):
        difficulty = np.array([2.0e11, 2.1e11])
        columns = Observations((dt.date(2016, 6, 25), dt.date(2016, 7, 9)), difficulty,
                               np.array([600.0, 650.0]), np.array([math.nan, 0.5]))
        difficulty[0] = 3.0e11
        assert columns[0].difficulty == 3.0e11
        assert columns[0].efficiency is None and columns[1].efficiency == 0.5

    def test_repr_names_the_rows_and_the_date_span(self):
        assert repr(load_bundled()[0]) == "Observations(126 rows, 2013-06-29 .. 2018-04-14)"
        assert repr(Observations.of(self.RECORDS)[1:2]) == (
            "Observations(1 row, 2016-07-09 .. 2016-07-09)")
        assert repr(Observations.of([])) == "Observations(0 rows)"

    def test_of_passes_columns_through(self):
        columns = parse_observations(OBS_CSV)
        assert Observations.of(columns) is columns
        assert Observations.of(self.RECORDS) == self.RECORDS

    def test_columns_of_another_length_are_rejected(self):
        days = [dt.date(2016, 6, 25), dt.date(2016, 7, 9)]
        with pytest.raises(ValidationError, match="^length mismatch: 2 dates, "):
            Observations(days, [2.0e11], [600.0, 650.0], [0.5, 0.5])
        with pytest.raises(ValidationError, match="^length mismatch: 2 dates, "):
            Observations(days, [2.0e11, 2.1e11], [600.0, 650.0], math.nan)

    @pytest.mark.parametrize("column, value", [
        *((column, value) for column in (1, 2, 3)
          for value in (0.0, -1.0, math.inf, -math.inf)),
        (1, math.nan), (2, math.nan),  # a NaN efficiency is a blank one
    ])
    def test_a_bad_value_is_the_first_bad_rows_error(self, column, value):
        """The error of the first bad row's record, whoever built the columns."""
        rows = [[dt.date(2016, 6, 25 + day), 2.0e11, 600.0, 0.5] for day in range(3)]
        rows[1][column] = value
        rows[2][column % 3 + 1] = 0.0
        with pytest.raises(ValidationError) as expected:
            ObservationRecord(*rows[1])
        with pytest.raises(ValidationError) as info:
            Observations(*zip(*rows))
        assert str(info.value) == str(expected.value)
        with pytest.raises(ValidationError) as info:
            parse_observations(_csv_text([list(map(str, row)) for row in rows]))
        assert str(info.value) == f"line 3: {expected.value}"


class TestRewardSchedule:
    def test_step_lookup(self):
        assert SCHEDULE.reward_at(dt.date(2013, 6, 29)) == 25.0
        assert SCHEDULE.reward_at(dt.date(2018, 4, 27)) == 12.5

    def test_new_reward_applies_on_its_effective_date(self):
        assert SCHEDULE.reward_at(dt.date(2016, 7, 8)) == 25.0
        assert SCHEDULE.reward_at(dt.date(2016, 7, 9)) == 12.5

    def test_date_before_schedule_rejected(self):
        with pytest.raises(DomainError, match="precedes"):
            SCHEDULE.reward_at(dt.date(2008, 12, 31))

    def test_non_halving_step_rejected(self):
        with pytest.raises(ValidationError, match="halve"):
            RewardSchedule(
                entries=((dt.date(2009, 1, 3), 50.0), (dt.date(2012, 11, 28), 30.0))
            )

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            RewardSchedule(
                entries=((dt.date(2012, 11, 28), 50.0), (dt.date(2009, 1, 3), 25.0))
            )

    def test_parse_reward_schedule(self):
        schedule = parse_reward_schedule(
            "date,reward_btc\n2009-01-03,50.0\n2012-11-28,25.0\n"
        )
        assert schedule.reward_at(dt.date(2013, 1, 1)) == 25.0


class TestEfficiencyTable:
    TABLE = EfficiencyTable(
        entries=(
            (dt.date(2016, 1, 1), 0.5),
            (dt.date(2016, 7, 1), 0.3),
        )
    )

    def test_step_lookup_and_carry_between_entries(self):
        assert self.TABLE.efficiency_at(dt.date(2016, 1, 1)) == 0.5
        assert self.TABLE.efficiency_at(dt.date(2016, 6, 30)) == 0.5
        assert self.TABLE.efficiency_at(dt.date(2016, 7, 1)) == 0.3

    def test_carry_past_table_end_warns(self):
        with pytest.warns(CarriedForwardWarning, match="2017-01-01"):
            value = self.TABLE.efficiency_at(dt.date(2017, 1, 1))
        assert value == 0.3

    def test_date_before_table_rejected(self):
        with pytest.raises(DomainError, match="precedes"):
            self.TABLE.efficiency_at(dt.date(2015, 12, 31))

    def test_increase_warns_but_is_kept(self):
        with pytest.warns(UserWarning, match="increases"):
            table = EfficiencyTable(
                entries=((dt.date(2016, 1, 1), 0.3), (dt.date(2016, 7, 1), 0.5))
            )
        assert table.efficiency_at(dt.date(2016, 7, 1)) == 0.5

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((), "efficiency table must have at least one entry"),
            (((dt.date(2016, 1, 1), math.nan),),
             "efficiency must be positive and finite, got nan (2016-01-01)"),
            (((dt.date(2016, 7, 1), 0.5), (dt.date(2016, 1, 1), 0.4)),
             "efficiency dates out of order: 2016-01-01 after 2016-07-01 "
             "(dates must be strictly increasing)"),
            (((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 1, 1), 0.4)),
             "duplicate efficiency date 2016-01-01 (dates must be strictly increasing)"),
        ],
        ids=["empty", "nan", "out-of-order", "duplicate"],
    )
    def test_invalid_entries_rejected(self, entries, message):
        with pytest.raises(ValidationError) as info:
            EfficiencyTable(entries)
        assert str(info.value) == message

    def test_parse_efficiency_table(self):
        table = parse_efficiency_table(
            "date,w_per_ghs\n2016-01-01,0.5\n2016-06-01,0.4\n"
        )
        assert table.efficiency_at(dt.date(2016, 2, 2)) == 0.5

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ParseError, match="^line 1: unknown column 'watts'$"):
            parse_efficiency_table("date,watts\n2016-01-01,0.5\n")

    def test_parse_takes_the_columns_in_any_order(self):
        table = parse_efficiency_table("w_per_ghs,date\n0.5,2016-01-01\n0.4,2016-06-01\n")
        assert table.entries == ((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 6, 1), 0.4))


STEP_DATES = st.lists(st.dates(), min_size=1, max_size=8, unique=True).map(sorted)
REWARD_SCHEDULES = st.builds(
    lambda dates, first: RewardSchedule(tuple(
        (date, first / 2.0**i) for i, date in enumerate(dates))),
    STEP_DATES, st.floats(min_value=1e-300, max_value=1e300))
# Falling values, so that no table warns of a rise.
EFFICIENCY_TABLES = STEP_DATES.flatmap(lambda dates: st.lists(
    POSITIVE, min_size=len(dates), max_size=len(dates), unique=True,
).map(lambda values: EfficiencyTable(tuple(zip(dates, sorted(values, reverse=True))))))
STEP_TABLES = {"reward": (REWARD_SCHEDULES, parse_reward_schedule),
               "efficiency": (EFFICIENCY_TABLES, parse_efficiency_table)}


class TestStepTables:
    """What both step tables share: their stored arrays and their writer."""

    @pytest.mark.parametrize("table", [SCHEDULE, load_bundled()[2]],
                             ids=["reward", "efficiency"])
    def test_the_stored_arrays_are_read_only_and_match_the_entries(self, table):
        dates, values = zip(*table.entries)
        assert table._starts.dtype == np.int64 and table._values.dtype == np.float64
        assert table._starts.tolist() == [date.toordinal() for date in dates]
        assert table._values.tolist() == list(values)
        for array in (table._starts, table._values):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("name, load", [
        ("rewards.csv", lambda: load_bundled()[1]),
        ("efficiency.csv", lambda: load_bundled()[2]),
    ])
    def test_the_writer_writes_the_packaged_files(self, name, load):
        assert serialize_step_table(load()) == bundled_data_path(name).read_text()

    @pytest.mark.parametrize("kind", sorted(STEP_TABLES))
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_parse_inverts_serialize(self, kind, data):
        tables, parse = STEP_TABLES[kind]
        table = data.draw(tables)
        text = serialize_step_table(table)
        again = parse(text)
        assert again == table
        assert serialize_step_table(again) == text

    def test_the_writer_takes_only_a_step_table(self):
        with pytest.raises(TypeError) as info:
            serialize_step_table(((dt.date(2016, 1, 1), 0.5),))
        assert str(info.value) == "expected a RewardSchedule or EfficiencyTable, got tuple"


class TestBuildBacktestSeries:
    def test_model_price_halves_across_reward_step(self):
        """Same difficulty and efficiency, reward 25 -> 12.5: price doubles."""
        records = [
            ObservationRecord(dt.date(2016, 7, 8), 2.0e11, 600.0, 0.5),
            ObservationRecord(dt.date(2016, 7, 9), 2.0e11, 650.0, 0.5),
        ]
        pair = build_backtest_series(records, SCHEDULE)
        assert pair.model_prices[1] == pytest.approx(
            2.0 * pair.model_prices[0], rel=1e-12
        )

    def test_inline_efficiency_wins_over_table(self):
        table = EfficiencyTable(
            entries=((dt.date(2016, 1, 1), 0.4), (dt.date(2016, 7, 1), 0.35))
        )
        inline = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.2)]
        from_table = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, None)]
        pair_inline = build_backtest_series(inline, SCHEDULE, table)
        pair_table = build_backtest_series(from_table, SCHEDULE, table)
        assert pair_inline.model_prices[0] == pytest.approx(
            0.5 * pair_table.model_prices[0], rel=1e-12
        )

    def test_missing_efficiency_without_table_rejected(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, None)]
        with pytest.raises(ValidationError, match="2016-06-01"):
            build_backtest_series(records, SCHEDULE)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            build_backtest_series([], SCHEDULE)

    def test_model_prices_scale_with_electricity(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5)]
        base = build_backtest_series(records, SCHEDULE, electricity_price=0.135)
        doubled = build_backtest_series(records, SCHEDULE, electricity_price=0.27)
        assert doubled.model_prices[0] == pytest.approx(
            2.0 * base.model_prices[0], rel=1e-12
        )

    def test_carry_past_table_end_warns_once_per_series(self):
        table = EfficiencyTable(entries=((dt.date(2016, 1, 1), 0.5),))
        records = [
            ObservationRecord(dt.date(2016, m, 1), 2.0e11, 600.0, None)
            for m in (1, 2, 3, 4)
        ]
        with pytest.warns(CarriedForwardWarning) as caught:
            pair = build_backtest_series(records, SCHEDULE, table)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            "3 date(s) are past the last efficiency entry 2016-01-01, "
            "the first 2016-02-01; carrying last value forward"
        )
        assert len(pair) == 4

    @pytest.mark.parametrize("source", ["bundled", "inline and table"])
    @pytest.mark.parametrize("electricity", [0.135, 0.07])
    def test_model_prices_equal_per_record_model_price(self, source, electricity):
        if source == "bundled":
            records, schedule, table = load_bundled()
        else:  # crosses the 2016-07-09 halving; the middle row uses the table
            records, schedule = parse_observations(OBS_CSV), SCHEDULE
            table = EfficiencyTable(
                entries=((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 8, 1), 0.48))
            )
            assert [r.efficiency for r in records] == [0.5, None, 0.45]
        expected = []
        for r in records:
            efficiency = (
                table.efficiency_at(r.date) if r.efficiency is None else r.efficiency
            )
            expected.append(model_price(
                CostParams(electricity_price=electricity, efficiency=efficiency),
                NetworkParams(difficulty=r.difficulty,
                              block_reward=schedule.reward_at(r.date)),
            ))
        pair = build_backtest_series(records, schedule, table, electricity)
        assert pair.model_prices.tolist() == expected
        assert pair.market_prices.tolist() == [r.market_price for r in records]

    @pytest.mark.parametrize("price", [0.0, -0.1, math.nan, math.inf])
    def test_bad_electricity_price_rejected(self, price):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5)]
        with pytest.raises(DomainError) as info:
            build_backtest_series(records, SCHEDULE, electricity_price=price)
        assert str(info.value) == (
            f"electricity_price must be a positive finite number, got {price!r}"
        )

    @pytest.mark.parametrize("difficulty, result", [(1e308, "inf"), (1e-320, "0.0")])
    def test_model_price_outside_double_range_names_its_date(self, difficulty, result):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5),
                   ObservationRecord(dt.date(2016, 6, 15), difficulty, 600.0, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning included
            with pytest.raises(DomainError) as info:
                build_backtest_series(records, SCHEDULE)
        assert str(info.value) == (
            f"model price is {result} on 2016-06-15: the inputs overflow or "
            "underflow double precision"
        )

    def test_infinite_over_infinite_model_price_is_the_same_error(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 1e308, 600.0, 0.5)]
        schedule = RewardSchedule(entries=((dt.date(2009, 1, 3), 1e300),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^model price is nan on 2016-06-01: "):
                build_backtest_series(records, schedule)

    @pytest.mark.parametrize("build", [build_backtest_series, run_backtest])
    @pytest.mark.parametrize("order", ["reversed", "duplicated"])
    def test_records_out_of_date_order_rejected(self, build, order):
        records, schedule, table = load_bundled()
        if order == "reversed":
            records = records[::-1]
            message = "observation dates out of order: 2018-03-31 after 2018-04-14"
        else:
            records = list(records)[:3] + list(records)[2:]
            message = f"duplicate observation date {records[2].date.isoformat()}"
        with pytest.raises(ValidationError) as info:
            build(records, schedule, table)
        assert str(info.value) == f"{message} (dates must be strictly increasing)"

    @pytest.mark.parametrize("records, with_table, message", [
        # Within a record: no efficiency without a table before the reward.
        ([(dt.date(2008, 1, 1), None), (dt.date(2016, 1, 1), 0.5)], False,
         "no efficiency for 2008-01-01 and no efficiency table supplied"),
        # Within a record: the table before the reward.
        ([(dt.date(2008, 1, 1), None), (dt.date(2016, 1, 1), 0.5)], True,
         "date 2008-01-01 precedes first efficiency entry 2015-01-01"),
        # The first failing record wins, whatever fails later.
        ([(dt.date(2008, 1, 1), 0.5), (dt.date(2014, 1, 1), None)], True,
         "date 2008-01-01 precedes first reward entry 2009-01-03"),
        ([(dt.date(2014, 1, 1), None), (dt.date(2014, 6, 1), None)], True,
         "date 2014-01-01 precedes first efficiency entry 2015-01-01"),
        # Records out of date order are no observation set: no lookup runs.
        ([(dt.date(2014, 1, 1), None), (dt.date(2008, 1, 1), 0.5)], True,
         "observation dates out of order: 2008-01-01 after 2014-01-01 "
         "(dates must be strictly increasing)"),
    ])
    def test_the_first_failing_lookup_raises(self, records, with_table, message):
        table = EfficiencyTable(entries=((dt.date(2015, 1, 1), 0.5),))
        records = [ObservationRecord(date, 2.0e11, 600.0, eff) for date, eff in records]
        with pytest.raises((DomainError, ValidationError)) as info:
            build_backtest_series(records, SCHEDULE, table if with_table else None)
        assert str(info.value) == message

    @pytest.mark.parametrize("source", ["bundled", "inline and table"])
    @pytest.mark.parametrize("electricity", [0.135, 0.07])
    def test_the_pair_is_the_one_the_public_constructor_builds(self, source, electricity):
        """Pairing builds its series from checked columns without checking them
        again; the public constructor, on the same prices, gives the same series."""
        if source == "bundled":
            records, schedule, table = load_bundled()
        else:
            records, schedule = parse_observations(OBS_CSV), SCHEDULE
            table = EfficiencyTable(
                entries=((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 8, 1), 0.48))
            )
        pair = build_backtest_series(records, schedule, table, electricity)
        public = PairedSeries(tuple(r.date for r in records),
                              [r.market_price for r in records],
                              pair.model_prices.tolist())
        assert type(pair.dates) is tuple and pair.dates == public.dates
        for name in ("market_prices", "model_prices"):
            column, expected = getattr(pair, name), getattr(public, name)
            assert column.dtype == expected.dtype and column.shape == expected.shape
            assert column.tobytes() == expected.tobytes()
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_observations_keep_their_date_ordinals(self):
        observations = load_bundled()[0]
        days = observations._days
        assert days.dtype == np.int64 and days.tolist() == [date.toordinal() for date in observations.dates]
        assert not days.flags.writeable

    def test_columns_and_records_pair_alike(self):
        columns, schedule, table = load_bundled()
        records = list(columns)
        assert len(columns) == len(records) and list(columns) == records
        assert columns[5] == records[5] and columns[-1] == records[-1]
        by_columns = build_backtest_series(columns, schedule, table)
        by_records = build_backtest_series(records, schedule, table)
        assert by_columns.dates == by_records.dates
        assert by_columns.market_prices.tolist() == by_records.market_prices.tolist()
        assert by_columns.model_prices.tolist() == by_records.model_prices.tolist()

    def test_paired_series_length_and_dates(self):
        records = parse_observations(OBS_CSV)
        table = EfficiencyTable(
            entries=((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 8, 1), 0.45))
        )
        pair = build_backtest_series(records, SCHEDULE, table)
        assert len(pair) == 3
        assert pair.dates == tuple(r.date for r in records)
        assert np.all(pair.model_prices > 0)


class TestPairedSeries:
    DATES = (dt.date(2017, 1, 7), dt.date(2017, 1, 21))

    def test_prices_are_kept_as_float_arrays(self):
        pair = PairedSeries(self.DATES, [900, 920], (1.5, 1.25))
        assert pair.market_prices.dtype == pair.model_prices.dtype == np.float64
        assert pair.model_prices.tolist() == [1.5, 1.25] and len(pair) == 2

    @pytest.mark.parametrize("market, model, message", [
        ([900.0, 920.0, 940.0], [1.0, 1.0],
         "length mismatch: 2 dates, columns of shape [(3,), (2,)]"),
        ([900.0, 920.0], [[1.0, 1.0]],
         "length mismatch: 2 dates, columns of shape [(2,), (1, 2)]"),
        ([900.0, 0.0], [1.0, 1.0],
         "market_prices must be positive and finite, got 0.0 (2017-01-21)"),
        ([900.0, math.nan], [1.0, 1.0],
         "market_prices must be positive and finite, got nan (2017-01-21)"),
        ([900.0, 920.0], [-1.0, 1.0],
         "model_prices must be positive and finite, got -1.0 (2017-01-07)"),
        ([900.0, 920.0], [1.0, math.inf],
         "model_prices must be positive and finite, got inf (2017-01-21)"),
        ([900.0, -2.0], [-1.0, 1.0],
         "model_prices must be positive and finite, got -1.0 (2017-01-07)"),
    ], ids=["long-market", "2d-model", "zero-market", "nan-market", "negative-model",
            "inf-model", "first-bad-row"])
    def test_a_bad_column_is_a_validation_error(self, market, model, message):
        with pytest.raises(ValidationError) as info:
            PairedSeries(self.DATES, market, model)
        assert str(info.value) == message

    def test_columns_are_read_only_views_of_the_callers_arrays(self):
        market = np.array([900.0, 920.0])
        pair = PairedSeries(list(self.DATES), market, np.ones(2))
        assert pair.dates == self.DATES and np.shares_memory(pair.market_prices, market)
        for column in (pair.market_prices, pair.model_prices):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        assert market.flags.writeable

    def test_a_zero_price_is_named_with_its_date(self):
        with pytest.raises(ValidationError) as info:
            PairedSeries(self.DATES, [900.0, 0.0], [1.0, 1.0])
        assert str(info.value) == (
            "market_prices must be positive and finite, got 0.0 (2017-01-21)")

    @pytest.mark.parametrize("dates, market, message", [
        ((), [], "paired series must be non-empty"),
        (DATES[::-1], [900.0, 920.0],
         "observation dates out of order: 2017-01-07 after 2017-01-21 "
         "(dates must be strictly increasing)"),
        ((DATES[0],) * 2, [900.0, 920.0],
         "duplicate observation date 2017-01-07 (dates must be strictly increasing)"),
        ((DATES[0], "2017-01-21"), [900.0, 920.0],
         "observation date must be a datetime.date, got '2017-01-21'"),
        (DATES, [900.0, -2.0],
         "market_prices must be positive and finite, got -2.0 (2017-01-21)"),
        (DATES, ["900", "920"],
         "market_prices must be positive and finite, got '900' (2017-01-07)"),
    ], ids=["empty", "out-of-order", "duplicate", "not-a-date", "negative", "text"])
    def test_the_public_constructor_keeps_every_check(self, dates, market, message):
        with pytest.raises(ValidationError) as info:
            PairedSeries(dates, market, [1.0] * len(dates))
        assert str(info.value) == message


class TestDateRule:
    """Every date the library takes is a ``datetime.date`` and not a ``datetime``."""

    DAY = dt.date(2017, 1, 7)
    # Each site's constructor given one date, and the word that names its dates.
    SITES = {
        "ObservationRecord": (lambda d: ObservationRecord(d, 3.0e11, 900.0, 0.2),
                              "observation"),
        "Observations": (lambda d: Observations((d,), [3.0e11], [900.0], [0.2]),
                         "observation"),
        "RewardSchedule": (lambda d: RewardSchedule(((d, 25.0),)), "reward"),
        "EfficiencyTable": (lambda d: EfficiencyTable(((d, 0.2),)), "efficiency"),
        "PairedSeries": (lambda d: PairedSeries((d,), [900.0], [1.0]), "observation"),
        "RewardSchedule.reward_at": (SCHEDULE.reward_at, "reward"),
        "EfficiencyTable.efficiency_at": (EfficiencyTable(((DAY, 0.2),)).efficiency_at,
                                          "efficiency"),
    }
    NOT_DATES = ["2017-01-07", dt.datetime(2017, 1, 7), None, DAY.toordinal(),
                 np.datetime64("2017-01-07")]

    @pytest.mark.parametrize("value", NOT_DATES, ids=repr)
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_every_site_rejects_what_is_not_a_date(self, site, value):
        build, what = self.SITES[site]
        with pytest.raises(ValidationError) as info:
            build(value)
        assert str(info.value) == f"{what} date must be a datetime.date, got {value!r}"

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_every_site_accepts_a_date(self, site):
        self.SITES[site][0](self.DAY)

    def test_a_datetime_beside_dates_is_named(self):
        later = dt.datetime(2017, 1, 21)
        with pytest.raises(ValidationError) as info:
            PairedSeries((self.DAY, later), [900.0, 920.0], [1.0, 1.0])
        assert str(info.value) == (
            f"observation date must be a datetime.date, got {later!r}"
        )


class TestBundledData:
    def test_an_unknown_name_is_rejected(self):
        with pytest.raises(ValueError) as info:
            bundled_data_path("prices.csv")
        assert str(info.value) == (
            f"unknown bundled file 'prices.csv'; choose from {BUNDLED_FILES}"
        )

    def test_loads_and_is_coherent(self):
        records, schedule, table = load_bundled()
        assert len(records) == 126
        dates = [r.date for r in records]
        assert dates[0] == dt.date(2013, 6, 29)
        assert dates[-1] == dt.date(2018, 4, 14)
        assert all(a < b for a, b in zip(dates, dates[1:]))
        assert schedule.reward_at(dates[0]) == 25.0
        assert schedule.reward_at(dates[-1]) == 12.5
        # Table covers the full observation window: no carry-forward warning.
        eff_first = table.efficiency_at(dates[0])
        eff_last = table.efficiency_at(dates[-1])
        assert eff_first > eff_last > 0.0

    def test_bundled_series_builds_clean(self):
        records, schedule, table = load_bundled()
        pair = build_backtest_series(records, schedule, table)
        assert len(pair) == len(records)
        ratios = pair.market_prices / pair.model_prices
        assert math.isfinite(ratios.mean())

    def test_given_paths_replace_only_their_bundled_file(self, tmp_path):
        rewards = tmp_path / "rewards.csv"
        rewards.write_text("date,reward_btc\n2012-11-28,25.0\n2016-07-09,12.5\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_CSV)
        records, schedule, table = load_bundled(observations=obs, rewards=str(rewards))
        assert [r.date for r in records] == [r.date for r in parse_observations(OBS_CSV)]
        assert schedule.entries[0] == (dt.date(2012, 11, 28), 25.0)
        assert table == load_bundled()[2]

    def test_non_utf8_file_is_a_parse_error_naming_file_and_line(self, tmp_path):
        bad = tmp_path / "obs.csv"
        bad.write_bytes(b"date,difficulty,price_usd\n2017-01-07,3.0e11,9\xb50.0\n")
        with pytest.raises(ParseError) as info:
            load_bundled(observations=bad)
        assert str(info.value) == f"{bad}:2: not UTF-8 text (byte 0xb5)"

    @pytest.mark.parametrize("name", BUNDLED_FILES)
    def test_a_leading_byte_order_mark_is_dropped(self, name, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with U+FEFF."""
        path = tmp_path / name
        path.write_bytes("\ufeff".encode() + bundled_data_path(name).read_bytes())
        key = name.removesuffix(".csv")
        assert load_bundled(**{key: path}) == load_bundled()

    def test_parse_error_names_the_file_and_keeps_its_line(self, tmp_path):
        bad = tmp_path / "eff.csv"
        bad.write_text("date,w_per_ghs\n2013-01-01,0.5\n2013-02-01,x\n")
        with pytest.raises(ParseError) as info:
            load_bundled(efficiency=bad)
        assert str(info.value) == f"{bad}: line 3: bad w_per_ghs value 'x'"
        assert info.value.line == 3

    def test_generator_reproduces_the_packaged_files(self, tmp_path, capsys):
        load_script("tools/build_reference_dataset.py").build(tmp_path)
        for name in BUNDLED_FILES:
            packaged = bundled_data_path(name).read_bytes()
            assert (tmp_path / name).read_bytes() == packaged, name
        above = ["2013-11-30", "2013-12-14", "2017-11-25", "2017-12-09", "2017-12-23",
                 "2018-01-06"]
        assert capsys.readouterr().out.splitlines() == [
            "epochs: 126  efficiency steps: 33",
            "ratio mean 1.183  sd 0.522  min 0.660 max 3.887",
            "log-log R^2 0.9378",
            "efficiency first 690.0  last 0.2",
            f"epochs above mean+2sd (2.226): {above}",
        ]
