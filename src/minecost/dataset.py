r"""Difficulty-epoch dataset: parsing, validation, lookups, series building.

The backtest consumes one observation per difficulty retarget (roughly every
two weeks): date, protocol difficulty, observed market price, and the
network-average hardware efficiency in force that day. Efficiency and block
reward may ride along in the observation file or be supplied as separate
step-function tables keyed by effective date.

Input files (UTF-8, comma-delimited, header row, ``YYYY-MM-DD`` dates,
period decimal separator; one leading byte-order mark is dropped):

* ``observations.csv`` - ``date,difficulty,price_usd[,eff_w_per_ghs]``
* ``efficiency.csv``   - ``date,w_per_ghs``
* ``rewards.csv``      - ``date,reward_btc``
* raw chart payloads   - ``timestamp,value`` (see :mod:`minecost.fetch`)

The header names each column once, in any order. Blank lines are skipped;
every other row has one field per column, and a blank efficiency is looked
up in the table. Each file holds at least one row, every number is positive
and finite, and dates strictly increase. Each reward halves the one before;
a rising efficiency only warns. The records, step tables and paired series
the library builds enforce the same value, order and halving rules, and
take only ``datetime.date`` values as dates.

Every table is read as columns, exactly as ``csv.reader`` reads it. The
header is read by csv. A text with no ``"``, ``\r`` or NUL whose rows all
hold one field per column has its rows split into columns at ``,`` and
``\n`` by string methods, with no list per row. Any other text (quoted
fields, CR line ends, blank or ragged rows) and an iterable of lines are
read by ``csv.reader`` row by row; a field csv refuses, such as one over
``csv.field_size_limit()``, is a ParseError on its line.

Each column is checked in one pass by the same functions the row checks
use; if any field fails, the rows are checked one by one, so the error
names the first bad row and its line. The observation loaders return the
columns as :class:`Observations`, a read-only sequence of
:class:`ObservationRecord` that the library and the CLI share. Pairing
takes it as it is and looks up every date's reward and table efficiency at
once (``np.searchsorted`` over date ordinals), with no per-row Python work.

A reconstructed June 2013 - April 2018 dataset ships with the package; see
:func:`bundled_data_path`.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from operator import eq, lt
from pathlib import Path

import numpy as np

from .errors import (
    CarriedForwardWarning,
    DomainError,
    ParseError,
    ValidationError,
    _utf8_text,
)
from .pricing import (
    DEFAULT_ELECTRICITY_USD_PER_KWH,
    _closed_form,
    _positive_finite,
    _require_positive_finite,
)
# perfbench/tracing.py counts calls to this name here, so it stays imported.
from .pricing import model_price  # noqa: F401

OBSERVATION_COLUMNS = ("date", "difficulty", "price_usd", "eff_w_per_ghs")


def _in_force(entries, days) -> np.ndarray:
    """Position of the step entry in force on each day, -1 before the first.

    ``days`` are date ordinals; an entry applies from its own date on.
    """
    starts = [date.toordinal() for date, _ in entries]
    return np.searchsorted(starts, days, side="right") - 1


def _precedes(date: dt.date, entries, what: str) -> DomainError:
    return DomainError(
        f"date {date.isoformat()} precedes first {what} entry "
        f"{entries[0][0].isoformat()}"
    )


def _value_on(entries, date: dt.date, what: str) -> float:
    """Value of the step entry in force on ``date``."""
    _check_dates_are_dates((date,), what)
    at = _in_force(entries, [date.toordinal()])[0]
    if at < 0:
        raise _precedes(date, entries, what)
    return entries[at][1]


def _check_dates_are_dates(dates: Sequence, what: str) -> None:
    """Raise ValidationError unless each of ``dates`` is a ``datetime.date`` and
    not a ``datetime``, whose time no stage reads and which no date compares with."""
    if not set(map(type, dates)) <= {dt.date}:
        for date in dates:
            if not isinstance(date, dt.date) or isinstance(date, dt.datetime):
                raise ValidationError(
                    f"{what} date must be a datetime.date, got {date!r}")


def _check_dates_sorted(dates: Sequence[dt.date], what: str) -> None:
    """Raise ValidationError unless ``dates`` strictly increase."""
    if all(map(lt, dates, dates[1:])):
        return
    prev, cur = next((p, c) for p, c in zip(dates, dates[1:]) if c <= p)
    problem = (f"duplicate {what} date {cur}" if cur == prev
               else f"{what} dates out of order: {cur} after {prev}")
    raise ValidationError(f"{problem} (dates must be strictly increasing)")


def _check_steps(entries, table: str, what: str) -> None:
    """The rules of a step table: entries, positive finite values, date order."""
    if not entries:
        raise ValidationError(f"{table} must have at least one entry")
    dates = [date for date, _ in entries]
    _check_dates_are_dates(dates, what)
    for date, value in entries:
        if not _positive_finite(value):
            raise ValidationError(
                f"{what} must be positive and finite, got {value!r} on "
                f"{date.isoformat()}"
            )
    _check_dates_sorted(dates, what)


@dataclass(frozen=True)
class ObservationRecord:
    """One difficulty-epoch sample.

    ``efficiency`` is optional at the record level; when absent it must be
    resolvable through an :class:`EfficiencyTable` at series-build time.
    """

    date: dt.date
    difficulty: float
    market_price: float
    efficiency: float | None = None

    def __post_init__(self):
        _check_dates_are_dates((self.date,), "observation")
        checked = (("difficulty", self.difficulty), ("market_price", self.market_price))
        if self.efficiency is not None:
            checked += (("efficiency", self.efficiency),)
        for name, value in checked:
            if not _positive_finite(value):
                raise ValidationError(
                    f"{name} must be positive and finite, got {value!r} "
                    f"({self.date.isoformat()})"
                )


class Observations(Sequence):
    """Observation columns, read as a sequence of :class:`ObservationRecord`.

    ``dates`` is a tuple of dates; the other three are read-only float
    arrays, and ``efficiency`` is NaN where a row has none (a record never
    holds NaN). Each column holds one value per date, and a value that is
    not positive and finite (other than a NaN efficiency) is the
    ValidationError of the first bad row's record. If a column is not of
    floats (text, bytes, ints, Decimals), each row is checked as its record
    before the columns are converted, so text is refused, not parsed. Then
    the dates must strictly increase, the reader's rule. A record is built
    only when one is read. A slice is columns too, and may be empty, which
    :func:`serialize_observations` refuses as the reader does; a slice with
    a negative step, whose dates fall, is the list of its records. It
    equals any sequence of equal records. ``date_text`` holds the stripped
    date fields of a file, each its date's ``isoformat()``, and
    ``price_text`` its market prices when each is its ``repr``, texts that
    ``backtest`` writes back as they are; else (``94.880``, ``9.488e1``,
    columns not read from a file) None.
    """

    def __init__(self, dates, difficulty, market_price, efficiency,
                 date_text=None, price_text=None):
        self.dates = tuple(dates)
        _check_dates_are_dates(self.dates, "observation")
        given = (difficulty, market_price, efficiency)
        columns = [np.asarray(values) for values in given]
        if any(column.shape != (len(self.dates),) for column in columns):
            raise ValidationError(f"length mismatch: {len(self.dates)} dates, columns "
                                  f"of shape {[column.shape for column in columns]}")
        if any(column.dtype.kind != "f" for column in columns):
            # Each value as given: asarray turns a float beside text into text.
            rows = [np.asarray(values, dtype=object).tolist() for values in given]
            rows[2] = [None if isinstance(e, float) and math.isnan(e) else e
                       for e in rows[2]]
            for _ in map(ObservationRecord, self.dates, *rows):
                pass
        # Views the caller cannot write through: a series shares them uncopied.
        columns = [np.asarray(column, dtype=float).view() for column in columns]
        for column in columns:
            column.flags.writeable = False
        self.difficulty, self.market_price, self.efficiency = columns
        self.date_text = date_text
        self.price_text = price_text
        ok = (_positive_finite(self.difficulty) & _positive_finite(self.market_price)
              & (_positive_finite(self.efficiency) | np.isnan(self.efficiency)))
        if not ok.all():  # the first bad row's record raises its error
            bad = int(ok.argmin())
            next(self._records(slice(bad, bad + 1)))
        _check_dates_sorted(self.dates, "observation")

    @classmethod
    def of(cls, records: Sequence[ObservationRecord]) -> "Observations":
        """``records`` as columns; columns pass through as they are."""
        if isinstance(records, cls):
            return records
        return cls(
            [r.date for r in records], [r.difficulty for r in records],
            [r.market_price for r in records],
            [math.nan if r.efficiency is None else r.efficiency for r in records],
        )

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            index = range(len(self))[index]  # IndexError when out of range
            return next(self._records(slice(index, index + 1)))
        if (index.step or 1) < 0:  # falling dates: its records, as a list's slice
            return list(self._records(index))
        return Observations(
            self.dates[index], self.difficulty[index], self.market_price[index],
            self.efficiency[index],
            *(None if text is None else text[index]
              for text in (self.date_text, self.price_text)),
        )

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice):
        """The records of ``rows``, each built when it is read."""
        efficiencies = [None if math.isnan(e) else e
                        for e in self.efficiency[rows].tolist()]
        return map(ObservationRecord, self.dates[rows], self.difficulty[rows].tolist(),
                   self.market_price[rows].tolist(), efficiencies)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        # Defining __eq__ leaves __hash__ None: columns are not hashable.
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        rows = f"{len(self)} row{'' if len(self) == 1 else 's'}"
        if not self.dates:
            return f"Observations({rows})"
        return f"Observations({rows}, {self.dates[0]} .. {self.dates[-1]})"


@dataclass(frozen=True)
class RewardSchedule:
    """Block-reward step function keyed by calendar date.

    Each entry is ``(effective_date, reward_btc)``; the reward in force on a
    date is that of the latest entry at or before it. A new reward applies
    ON its effective date. Entries must be strictly increasing in date, with
    each reward exactly half the previous (the protocol's halving rule).
    """

    entries: tuple[tuple[dt.date, float], ...]

    def __post_init__(self):
        _check_steps(self.entries, "reward schedule", "reward")
        for (_, prev_reward), (date, reward) in zip(self.entries, self.entries[1:]):
            if not math.isclose(reward, prev_reward / 2.0, rel_tol=1e-12):
                raise ValidationError(
                    f"each reward must halve the previous: {prev_reward} -> "
                    f"{reward} on {date.isoformat()}"
                )

    def reward_at(self, date: dt.date) -> float:
        """Reward in force on ``date`` (step lookup, halving-day inclusive)."""
        return _value_on(self.entries, date, "reward")


@dataclass(frozen=True)
class EfficiencyTable:
    """Network-average hardware efficiency (W per GH/s) by effective date.

    Last-observation-carried-forward step function. Values are expected to
    fall over time as hardware improves; an increase is suspicious but not
    fatal, so it only warns.
    """

    entries: tuple[tuple[dt.date, float], ...]

    def __post_init__(self):
        _check_steps(self.entries, "efficiency table", "efficiency")
        for (_, prev_value), (date, value) in zip(self.entries, self.entries[1:]):
            if value > prev_value:
                warnings.warn(
                    f"efficiency increases from {prev_value} to {value} on "
                    f"{date.isoformat()}; hardware normally only improves",
                    UserWarning,
                    stacklevel=2,
                )

    def efficiency_at(self, date: dt.date) -> float:
        """Efficiency in force on ``date``; warns when carried past the table."""
        value = _value_on(self.entries, date, "efficiency")
        if date > self.entries[-1][0]:
            warnings.warn(
                f"date {date.isoformat()} is past the last efficiency entry "
                f"{self.entries[-1][0].isoformat()}; carrying last value forward",
                CarriedForwardWarning,
                stacklevel=2,
            )
        return value


@dataclass(frozen=True)
class PairedSeries:
    """Aligned (market price, model price) series, the object of all analyses."""

    dates: tuple[dt.date, ...]
    market_prices: np.ndarray
    model_prices: np.ndarray

    def __post_init__(self):
        market, model = np.asarray(self.market_prices), np.asarray(self.model_prices)
        n = len(self.dates)
        if n < 1:
            raise ValidationError("paired series must be non-empty")
        if market.shape != (n,) or model.shape != (n,):
            raise ValidationError(
                f"length mismatch: {n} dates, {market.shape} market, "
                f"{model.shape} model"
            )
        _check_dates_are_dates(self.dates, "observation")
        _check_dates_sorted(self.dates, "observation")
        for name, column in (("market", market), ("model", model)):
            if column.dtype.kind != "f":  # each value as given: asarray parses text
                given = np.asarray(getattr(self, f"{name}_prices"), dtype=object)
                column = [v if _positive_finite(v) else math.nan for v in given.tolist()]
            column = np.asarray(column, dtype=float)
            if not _positive_finite(column).all():
                raise ValidationError(f"{name} prices must all be positive and finite")
            object.__setattr__(self, f"{name}_prices", column)

    def __len__(self) -> int:
        return len(self.dates)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _bad_field(what: str, text: str, line: int, why: str = "") -> ParseError:
    """A bad field's ParseError: the field quoted, then ``why``, if at most 64
    characters long; else the field named once, by its start and length."""
    if len(text) <= 64:
        return ParseError(f"bad {what} {text!r}{why}", line)
    return ParseError(f"bad {what} {text[:32]!r}... ({len(text)} characters)", line)


def _parse_date(text: str, line: int) -> dt.date:
    try:
        return _iso_dates([text.strip()])[0]
    except ValueError as exc:  # exc quotes the text again
        raise _bad_field("date", text, line, f": {exc}") from None


def _parse_float(text: str, name: str, line: int) -> float:
    try:
        return _floats([text]).item()
    except ValueError:
        raise _bad_field(f"{name} value", text, line) from None


# The lines of a text as csv reads a file through ``TextIOWrapper(newline="")``:
# each ends after "\r\n", "\r" or "\n", and at no other ``str.splitlines`` break.
def _text_lines(text: str):
    return map(re.Match.group, re.finditer(r"[^\r\n]*(?:\r\n|[\r\n])|[^\r\n]+", text))


def _csv_rows(lines):
    """``(first line, row)`` of each csv row; csv.Error is a ParseError on its line."""
    reader = csv.reader(lines)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # for example a field over csv.field_size_limit()
        raise ParseError(str(exc), reader.line_num) from None


def _split_columns(body: str, width: int) -> list[tuple[str, ...]] | None:
    r"""The ``width`` columns of ``body``; None unless each line has ``width`` fields.

    ``body`` holds no ``"``, ``\r`` or NUL, so csv would end a row only at
    ``\n`` and a field only at ``,``. With each ``\n`` made a token of its
    own, the lines all hold ``width`` fields exactly when the n newline
    tokens are every ``(width + 1)``-th of ``(width + 1) * n`` tokens. A
    blank line is one empty field, never ``width`` of them, as every table
    has at least two columns; it goes to csv, which skips it.
    """
    if body and not body.endswith("\n"):
        body += "\n"
    rows, step = body.count("\n"), width + 1
    tokens = body.replace("\n", ",\n,").split(",")
    tokens.pop()  # the empty text after the final newline
    if len(tokens) != step * rows or tokens[width::step].count("\n") != rows:
        return None
    return [tuple(tokens[i::step]) for i in range(width)]


def _read_table(source, columns: Sequence[str], required: int):
    r"""``(lines, fields, malformed)`` of a CSV string or iterable of lines.

    The header names columns from ``columns`` once each, in any order, and
    names the first ``required``; empty input or an unknown, repeated or
    missing name is a ParseError on line 1. Blank rows are skipped.
    ``fields`` holds, for each name in ``columns``, the text of that field
    in every row (None for an absent column), and ``lines`` each row's first
    line, as a quoted field may span lines. Row width is checked over the
    whole file at once: a row of the wrong width ends the table, and
    ``malformed`` is its ParseError, for the caller to raise once the rows
    before it pass (None if every row fits).
    The rows of a string with no ``"``, ``\r`` or NUL are split by
    :func:`_split_columns` when every row fits; csv reads all other rows.
    """
    text = source if isinstance(source, str) else None
    rows = _csv_rows(source if text is None else _text_lines(text))
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError("empty input: missing header row", 1)
    names = [name.strip() for name in header]
    for i, name in enumerate(names):
        if name not in columns:
            raise ParseError(f"unknown column {name!r}", 1)
        if name in names[:i]:
            raise ParseError(f"repeated column {name!r}", 1)
    for name in columns[:required]:
        if name not in names:
            raise ParseError(f"missing {name!r} column in header {names!r}", 1)
    width, split, malformed = len(names), None, None
    # csv before Python 3.11 refuses a NUL, so a text with one is left to it.
    if text is not None and not ('"' in text or "\r" in text or "\0" in text):
        split = _split_columns(text.partition("\n")[2], width)
    if split is not None:  # one line per row
        lines, by_name = range(2, len(split[0]) + 2), dict(zip(names, split))
    else:
        kept = [(line, row) for line, row in rows if row]  # blank rows skipped
        end = next((i for i, (_, row) in enumerate(kept) if len(row) != width), None)
        if end is not None:
            line, row = kept[end]
            malformed = ParseError(f"expected {width} fields, got {len(row)}", line)
            del kept[end:]
        lines, rows = [line for line, _ in kept], [row for _, row in kept]
        by_name = dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())
    return lines, tuple(by_name.get(name) for name in columns), malformed


def _floats(texts) -> np.ndarray:
    """``float`` of each field; ValueError for any that is not a number."""
    # float() would also read "9_4.88" as 94.88; the format has no digit separator.
    if "_" in "".join(texts):
        raise ValueError("digit separator")
    return np.fromiter(map(float, texts), dtype=float, count=len(texts))


def _iso_dates(texts: Sequence[str]) -> tuple[dt.date, ...]:
    """The dates of stripped date fields, each ``YYYY-MM-DD`` in ASCII.

    Python 3.11 and later also read ``20130629`` and ``2013-W26-6`` with
    ``date.fromisoformat``, so one test of the joined column checks the
    form first (its length is 11n - 1 with ``,`` at every 11th character
    only if each text is 10 characters long or holds a comma, as no date
    does); another form raises ValueError in the words of 3.10's.
    """
    joined, n = ",".join(texts), len(texts)
    if texts and not (len(joined) == 11 * n - 1 and joined.isascii()
                      and joined[10::11] == "," * (n - 1)
                      and joined[4::11] == joined[7::11] == "-" * n):
        raise ValueError(f"Invalid isoformat string: {joined!r}")
    return tuple(map(dt.date.fromisoformat, texts))


# A number that is its own repr, the shortest text that reads back as the
# same double: no sign, space, exponent or redundant zero; at most 16
# characters, so at most 15 significant digits, which a double keeps; and
# inside repr's fixed notation, from 1e-4 (no "0.0000" prefix) up to 1e16
# (16 characters with a point stay below 1e14).
_REPR_FIELD = r"(?!0\.0000)(?=[^,]{1,16}(?:,|\Z))(?:0|[1-9][0-9]*)\.(?:[0-9]*[1-9]|0)"
# Compiled on first use (re caches it), so a run that reads no observations
# does not pay for it.
_REPR_COLUMN = rf"{_REPR_FIELD}(?:,{_REPR_FIELD})*"


def _repr_texts(texts: Sequence[str]) -> Sequence[str] | None:
    """``texts`` if each has the form above, else None (one regex match).

    Only a text equal to ``repr(float(text))`` has that form; some such
    texts, of 16 or 17 significant digits, do not, and are formatted.
    """
    return texts if re.fullmatch(_REPR_COLUMN, ",".join(texts)) else None


def _checked_columns(dates, difficulty, price, efficiency) -> Observations | None:
    """The observation fields as columns, or None if any field fails its check
    or the dates are out of order.

    Each column goes through the function the row loop applies to one field
    (:func:`_iso_dates` of the stripped text, ``float`` with no ``_``),
    then the checks of :class:`Observations`, which are the record's, so a
    field passes here exactly when it passes there; only a blank efficiency
    is NaN. The stripped date texts are kept, and the price texts
    when :func:`_repr_texts` passes them.
    """
    try:
        date_texts = list(map(str.strip, dates))
        days = _iso_dates(date_texts)
        difficulty, market = _floats(difficulty), _floats(price)
        if efficiency is None:
            efficiency = np.full(len(days), math.nan)
        else:
            texts = list(map(str.strip, efficiency))
            efficiency = _floats([text or "nan" for text in texts])
            if np.isnan(efficiency).sum() != texts.count(""):
                return None  # a "nan" field: only a blank one is NaN
        return Observations(days, difficulty, market, efficiency, date_texts,
                            _repr_texts(price))
    except (ValueError, ValidationError):
        return None


def _checked_rows(lines, dates, difficulty, price, efficiency):
    """The record of each row, else the error of the first row whose fields
    fail the row checks.

    Called once :func:`_checked_columns` has found a bad field or dates out
    of order, so some row fails or the records are out of order.
    """
    records = []
    rows = zip(lines, dates, difficulty, price, efficiency or repeat(""))
    for line, date, row_difficulty, row_price, row_efficiency in rows:
        row_efficiency = row_efficiency.strip()
        try:
            records.append(ObservationRecord(
                _parse_date(date, line),
                _parse_float(row_difficulty, "difficulty", line),
                _parse_float(row_price, "price_usd", line),
                _parse_float(row_efficiency, "eff_w_per_ghs", line)
                if row_efficiency else None,
            ))
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
    return records


def parse_observations(source) -> Observations:
    """Parse an ``observations.csv`` stream into validated records.

    ``source`` may be a string or any iterable of text lines (an open file).
    Columns are matched by header name; order does not matter. The
    efficiency column is optional, and a blank efficiency field is None.

    Raises:
        ParseError: bad header, wrong field count, or a value that does not
            parse; carries the 1-based line number.
        ValidationError: no records, a parsed value violating a record
            invariant, or dates out of order / duplicated.
    """
    lines, fields, malformed = _read_table(source, OBSERVATION_COLUMNS, required=3)
    observations = _checked_columns(*fields)
    records = _checked_rows(lines, *fields) if observations is None else None
    if malformed:
        raise malformed
    if observations is None:  # every row passes, so their date order fails here
        observations = Observations.of(records)
    if not observations:
        raise ValidationError("observations must have at least one record")
    return observations


def _csv(header: str, *columns: Iterable[str]) -> str:
    """``header`` and one line per row of ``columns``, whose texts need no quoting."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def serialize_observations(records: Sequence[ObservationRecord]) -> str:
    """Render records in canonical form (column order, ISO dates, repr floats).

    ``serialize(parse(text))`` is the canonical normalization of ``text``;
    serializing is idempotent across a parse round-trip, and
    ``parse(serialize(records)) == records``.

    Raises:
        ValidationError: no records, which the reader refuses, or records
            that are not an :class:`Observations` (dates out of order).
    """
    observations = Observations.of(records)
    if not observations:
        raise ValidationError("observations must have at least one record")
    efficiency = observations.efficiency.tolist()
    columns = [map(dt.date.isoformat, observations.dates),
               map(repr, observations.difficulty.tolist()),
               map(repr, observations.market_price.tolist())]
    if not all(map(math.isnan, efficiency)):
        columns.append(["" if math.isnan(e) else repr(e) for e in efficiency])
    return _csv(",".join(OBSERVATION_COLUMNS[:len(columns)]), *columns)


def _parse_steps(source, value_column: str):
    """``(date, value)`` entries of a ``date,<value_column>`` table."""
    lines, (dates, values), malformed = _read_table(
        source, ("date", value_column), required=2
    )
    try:
        entries = tuple(zip(_iso_dates([*map(str.strip, dates)]),
                            _floats(values).tolist()))
    except ValueError:
        entries = None
    if entries is None:  # some field fails: raise the first bad row's error
        for line, date, value in zip(lines, dates, values):
            _parse_date(date, line)
            _parse_float(value, value_column, line)
    if malformed:
        raise malformed
    return entries


def parse_reward_schedule(source) -> RewardSchedule:
    """Parse a ``rewards.csv`` stream (``date,reward_btc``)."""
    return RewardSchedule(_parse_steps(source, "reward_btc"))


def parse_efficiency_table(source) -> EfficiencyTable:
    """Parse an ``efficiency.csv`` stream (``date,w_per_ghs``)."""
    return EfficiencyTable(_parse_steps(source, "w_per_ghs"))


def parse_chart_points(text: str) -> list[tuple[dt.date, float]]:
    """Parse a raw ``timestamp,value`` chart payload into dated points.

    The first field is a ``YYYY-MM-DD`` date, alone or followed by a space
    or ``T`` and a time. Line 1 is a header, and skipped, when neither of its
    fields parses; any other bad row, or a value that is not positive and
    finite, is a ParseError. Timestamps must be strictly increasing.
    """
    points = []
    for line_no, line in enumerate(_text_lines(text), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'timestamp,value', got {line!r}", line_no)
        stamp = parts[0].strip().split(" ")[0].split("T")[0]
        if line_no == 1:
            try:
                _parse_date(stamp, line_no)
            except ParseError:
                try:
                    _parse_float(parts[1], "chart", line_no)
                except ParseError:
                    continue  # neither field parses: a header row
        date = _parse_date(stamp, line_no)
        value = _parse_float(parts[1], "chart", line_no)
        if not _positive_finite(value):
            raise _bad_field("chart value", parts[1], line_no,
                             ": not positive and finite")
        points.append((date, value))
    _check_dates_sorted([d for d, _ in points], "chart")
    return points


def load_observations(path) -> Observations:
    return _load(path, parse_observations)


def load_reward_schedule(path) -> RewardSchedule:
    return _load(path, parse_reward_schedule)


def load_efficiency_table(path) -> EfficiencyTable:
    return _load(path, parse_efficiency_table)


def _load(path, parse):
    """Parse the UTF-8 file ``path`` (a path or packaged resource).

    Raises:
        ParseError: a byte that is not UTF-8, naming the file and line; or
            a ParseError of ``parse``, its message prefixed with the file
            and its ``line`` kept.
        ValidationError: one of ``parse``, its message prefixed with the file.
    """
    source = path if hasattr(path, "read_bytes") else Path(path)
    text = _utf8_text(source.read_bytes(), source, ParseError)
    return _parse_named(parse, text, source)


def _parse_named(parse, text: str, source):
    """``parse(text)``, its ParseError or ValidationError prefixed with ``source``."""
    try:  # the text itself: a StringIO of it would hold 4 bytes per character
        return parse(text)
    except (ParseError, ValidationError) as exc:
        named = type(exc)(f"{source}: {exc}")
        named.__dict__.update(vars(exc))  # ParseError's line
        raise named from None


# ---------------------------------------------------------------------------
# Series building
# ---------------------------------------------------------------------------


def build_backtest_series(
    records: Sequence[ObservationRecord],
    schedule: RewardSchedule,
    table: EfficiencyTable | None = None,
    electricity_price: float = DEFAULT_ELECTRICITY_USD_PER_KWH,
) -> PairedSeries:
    """Pair each observed market price with the model price for that date.

    For every record the block reward comes from ``schedule`` and the
    efficiency from the record itself when present, else from ``table``
    (inline values win, so a partially annotated file needs the table only
    for its gaps). Table lookups past the last table entry carry its value
    forward under one :class:`CarriedForwardWarning` for the whole series.

    :class:`Observations` are paired as they are (any other record sequence
    is turned into columns once), and every date is looked up in both step
    tables at once.
    The model prices are then one array expression of
    :func:`minecost.pricing.model_price`'s closed form, with the same
    operations in the same order, so each equals the per-record
    ``model_price`` bit for bit.

    Raises:
        ValidationError: empty input, dates out of order or repeated, or a
            record without efficiency when no table was given.
        DomainError: a non-positive or non-finite ``electricity_price``, a
            date not covered by the schedule or table, or a model price that
            overflows or underflows double precision; the message names the
            offending value or date (the first such date).
    """
    electricity_price = _require_positive_finite("electricity_price", electricity_price)
    observations = Observations.of(records)
    dates = observations.dates
    days = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    blank = np.isnan(observations.efficiency)
    reward_at = _in_force(schedule.entries, days)
    table_at = None if table is None else _in_force(table.entries, days)
    unresolved = blank if table is None else blank & (table_at < 0)
    failed = np.flatnonzero(unresolved | (reward_at < 0))
    if failed.size:  # the first failing record, its checks in lookup order
        first = failed[0]
        if unresolved[first] and table is None:
            raise ValidationError(
                f"no efficiency for {dates[first].isoformat()} and no "
                f"efficiency table supplied"
            )
        if unresolved[first]:
            raise _precedes(dates[first], table.entries, "efficiency")
        raise _precedes(dates[first], schedule.entries, "reward")
    efficiency = observations.efficiency
    if table is not None:
        values = np.array([value for _, value in table.entries], dtype=float)
        efficiency = np.where(blank, values[table_at], efficiency)
        carried = np.flatnonzero(blank & (days > table.entries[-1][0].toordinal()))
        if carried.size:
            warnings.warn(
                f"{carried.size} date(s) are past the last efficiency entry "
                f"{table.entries[-1][0].isoformat()}, the first "
                f"{dates[carried[0]].isoformat()}; carrying last value forward",
                CarriedForwardWarning,
                stacklevel=2,
            )
    rewards = np.array([reward for _, reward in schedule.entries], dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        model = _closed_form(
            electricity_price, efficiency, observations.difficulty, rewards[reward_at]
        )
    bad = np.flatnonzero(~_positive_finite(model))
    if bad.size:
        price, date = float(model[bad[0]]), dates[bad[0]]
        raise DomainError(
            f"model price is {price!r} on {date.isoformat()}: the inputs overflow "
            "or underflow double precision"
        )
    return PairedSeries(dates, observations.market_price, model)


# ---------------------------------------------------------------------------
# Bundled reference data
# ---------------------------------------------------------------------------

BUNDLED_FILES = ("observations.csv", "efficiency.csv", "rewards.csv")


def bundled_data_path(name: str):
    """Path to one of the packaged reference CSVs (see BUNDLED_FILES)."""
    if name not in BUNDLED_FILES:
        raise ValueError(f"unknown bundled file {name!r}; choose from {BUNDLED_FILES}")
    return resources.files("minecost.data").joinpath(name)


def load_bundled(observations=None, efficiency=None, rewards=None):
    """Load the three backtest inputs from the given paths.

    Each input left as None comes from the packaged 2013-2018 reconstruction.

    Returns:
        (observations, schedule, table) for :func:`build_backtest_series`.
    """
    def source(path, name):
        return bundled_data_path(name) if path is None else path

    return (
        load_observations(source(observations, "observations.csv")),
        load_reward_schedule(source(rewards, "rewards.csv")),
        load_efficiency_table(source(efficiency, "efficiency.csv")),
    )
