"""Difficulty-epoch dataset: parsing, validation, lookups, series building.

The backtest consumes one observation per difficulty retarget (roughly every
two weeks): date, protocol difficulty, observed market price, and the
network-average hardware efficiency in force that day. Efficiency and block
reward may ride along in the observation file or be supplied as separate
step-function tables keyed by effective date.

Input files (UTF-8, comma-delimited, header row, ISO-8601 dates, period
decimal separator):

* ``observations.csv`` - ``date,difficulty,price_usd[,eff_w_per_ghs]``
* ``efficiency.csv``   - ``date,w_per_ghs``
* ``rewards.csv``      - ``date,reward_btc``
* raw chart payloads   - ``timestamp,value`` (see :mod:`minecost.fetch`)

The header names each column once, in any order. Blank lines are skipped;
every other row has one field per column, and a blank efficiency is looked
up in the table. Each file holds at least one row, every number is positive
and finite, and dates strictly increase. Each reward halves the one before;
a rising efficiency only warns. The records, step tables and paired series
the library builds enforce the same value, order and halving rules.

A reconstructed June 2013 - April 2018 dataset ships with the package; see
:func:`bundled_data_path`.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from operator import lt
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CarriedForwardWarning,
    DomainError,
    ParseError,
    ValidationError,
)
from .pricing import (
    DEFAULT_ELECTRICITY_USD_PER_KWH,
    _closed_form,
    _require_positive_finite,
)
# perfbench/tracing.py counts calls to this name here, so it stays imported.
from .pricing import model_price  # noqa: F401

OBSERVATION_COLUMNS = ("date", "difficulty", "price_usd", "eff_w_per_ghs")


def _step_lookup(entries, dates, date: dt.date, what: str) -> float:
    """Value of the last ``(effective_date, value)`` entry on or before ``date``.

    ``dates`` lists the entries' effective dates; a caller with many dates
    to look up builds it once.
    """
    index = bisect.bisect_right(dates, date)
    if index == 0:
        raise DomainError(
            f"date {date.isoformat()} precedes first {what} entry "
            f"{entries[0][0].isoformat()}"
        )
    return entries[index - 1][1]


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
    for date, value in entries:
        if not 0.0 < value < math.inf:
            raise ValidationError(
                f"{what} must be positive and finite, got {value!r} on "
                f"{date.isoformat()}"
            )
    _check_dates_sorted([date for date, _ in entries], what)


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
        checked = (("difficulty", self.difficulty), ("market_price", self.market_price))
        if self.efficiency is not None:
            checked += (("efficiency", self.efficiency),)
        for name, value in checked:
            if not 0.0 < value < math.inf:
                raise ValidationError(
                    f"{name} must be positive and finite, got {value!r} "
                    f"({self.date.isoformat()})"
                )


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
        return _step_lookup(self.entries, [d for d, _ in self.entries], date, "reward")


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
        value = _step_lookup(
            self.entries, [d for d, _ in self.entries], date, "efficiency"
        )
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
        market = np.asarray(self.market_prices, dtype=float)
        model = np.asarray(self.model_prices, dtype=float)
        object.__setattr__(self, "market_prices", market)
        object.__setattr__(self, "model_prices", model)
        n = len(self.dates)
        if n < 1:
            raise ValidationError("paired series must be non-empty")
        if market.shape != (n,) or model.shape != (n,):
            raise ValidationError(
                f"length mismatch: {n} dates, {market.shape} market, "
                f"{model.shape} model"
            )
        _check_dates_sorted(self.dates, "observation")
        for name, values in (("market", market), ("model", model)):
            if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
                raise ValidationError(f"{name} prices must all be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_date(text: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"bad date {text!r}: {exc}", line) from None


def _parse_float(text: str, name: str, line: int) -> float:
    # float() would also read "9_4.88" as 94.88; the format has no digit separator.
    if "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ParseError(f"bad {name} value {text!r}", line)


def _read_table(source, columns: Sequence[str], required: int):
    """``(at, rows)`` of a CSV string or iterable of lines, header checked.

    The header names columns from ``columns`` once each, in any order, and
    names the first ``required``. ``at`` is the field index of each name in
    ``columns`` (None if absent); ``rows`` yields ``(line, fields)`` per
    non-blank row. Raises ParseError, with the line number, for empty input,
    an unknown, repeated or missing name, or a row of the wrong width.
    """
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    header = next(reader, None)
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
    width = len(names)

    def rows():
        for line, row in enumerate(reader, start=2):
            if len(row) == width:
                yield line, row
            elif row:
                raise ParseError(f"expected {width} fields, got {len(row)}", line)

    return tuple(names.index(c) if c in names else None for c in columns), rows()


def parse_observations(source) -> list[ObservationRecord]:
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
    at, rows = _read_table(source, OBSERVATION_COLUMNS, required=3)
    date_at, difficulty_at, price_at, eff_at = at
    records = []
    for line, row in rows:
        efficiency = "" if eff_at is None else row[eff_at].strip()
        try:
            records.append(ObservationRecord(
                _parse_date(row[date_at], line),
                _parse_float(row[difficulty_at], "difficulty", line),
                _parse_float(row[price_at], "price_usd", line),
                _parse_float(efficiency, "eff_w_per_ghs", line) if efficiency else None,
            ))
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
    if not records:
        raise ValidationError("observations must have at least one record")
    _check_dates_sorted([r.date for r in records], "observation")
    return records


def serialize_observations(records: Sequence[ObservationRecord]) -> str:
    """Render records in canonical form (column order, ISO dates, repr floats).

    ``serialize(parse(text))`` is the canonical normalization of ``text``;
    serializing is idempotent across a parse round-trip.
    """
    include_eff = any(r.efficiency is not None for r in records)
    columns = OBSERVATION_COLUMNS if include_eff else OBSERVATION_COLUMNS[:3]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        row = [r.date.isoformat(), repr(float(r.difficulty)), repr(float(r.market_price))]
        if include_eff:
            row.append("" if r.efficiency is None else repr(float(r.efficiency)))
        writer.writerow(row)
    return out.getvalue()


def _parse_steps(source, value_column: str):
    """``(date, value)`` entries of a ``date,<value_column>`` table."""
    (date_at, value_at), rows = _read_table(source, ("date", value_column), required=2)
    return tuple(
        (_parse_date(row[date_at], line), _parse_float(row[value_at], value_column, line))
        for line, row in rows
    )


def parse_reward_schedule(source) -> RewardSchedule:
    """Parse a ``rewards.csv`` stream (``date,reward_btc``)."""
    return RewardSchedule(_parse_steps(source, "reward_btc"))


def parse_efficiency_table(source) -> EfficiencyTable:
    """Parse an ``efficiency.csv`` stream (``date,w_per_ghs``)."""
    return EfficiencyTable(_parse_steps(source, "w_per_ghs"))


def parse_chart_points(text: str) -> list[tuple[dt.date, float]]:
    """Parse a raw ``timestamp,value`` chart payload into dated points.

    The first field may be an ISO date or ``date time``; a leading header
    row is tolerated. Timestamps must be strictly increasing.
    """
    points = []
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'timestamp,value', got {line!r}", line_no)
        stamp = parts[0].strip().split(" ")[0].split("T")[0]
        if line_no == 1:
            try:
                dt.date.fromisoformat(stamp)
            except ValueError:
                continue  # header row
        date = _parse_date(stamp, line_no)
        value = _parse_float(parts[1], "chart value", line_no)
        points.append((date, value))
    _check_dates_sorted([d for d, _ in points], "chart")
    return points


def load_observations(path) -> list[ObservationRecord]:
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
    try:
        text = source.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{source}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None
    try:
        return parse(io.StringIO(text, newline=""))
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

    The lookups run per record; the model prices are then one array
    expression of :func:`minecost.pricing.model_price`'s closed form, with
    the same operations in the same order, so each equals the per-record
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
    efficiencies, rewards, carried = [], [], []
    table_dates = None if table is None else [d for d, _ in table.entries]
    schedule_dates = [d for d, _ in schedule.entries]
    for record in records:
        efficiency = record.efficiency
        if efficiency is None:
            if table is None:
                raise ValidationError(
                    f"no efficiency for {record.date.isoformat()} and no "
                    f"efficiency table supplied"
                )
            efficiency = _step_lookup(
                table.entries, table_dates, record.date, "efficiency"
            )
            if record.date > table_dates[-1]:
                carried.append(record.date)
        efficiencies.append(efficiency)
        rewards.append(
            _step_lookup(schedule.entries, schedule_dates, record.date, "reward")
        )
    if carried:
        warnings.warn(
            f"{len(carried)} date(s) are past the last efficiency entry "
            f"{table.entries[-1][0].isoformat()}, the first "
            f"{carried[0].isoformat()}; carrying last value forward",
            CarriedForwardWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        model = _closed_form(
            electricity_price,
            np.array(efficiencies, dtype=float),
            np.array([r.difficulty for r in records], dtype=float),
            np.array(rewards, dtype=float),
        )
    bad = np.flatnonzero(~((0.0 < model) & (model < math.inf)))
    if bad.size:
        price, date = float(model[bad[0]]), records[bad[0]].date
        raise DomainError(
            f"model price is {price!r} on {date.isoformat()}: the inputs overflow "
            "or underflow double precision"
        )
    return PairedSeries(
        tuple(r.date for r in records),
        np.array([r.market_price for r in records], dtype=float),
        model,
    )


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

    Each input left as None comes from the packaged 2013-2018
    reconstruction instead.

    Returns:
        (records, schedule, table) ready for :func:`build_backtest_series`.
    """
    def source(path, name):
        return bundled_data_path(name) if path is None else path

    return (
        load_observations(source(observations, "observations.csv")),
        load_reward_schedule(source(rewards, "rewards.csv")),
        load_efficiency_table(source(efficiency, "efficiency.csv")),
    )
