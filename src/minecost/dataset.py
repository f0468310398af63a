"""Difficulty-epoch dataset: parsing, validation, lookups, series building.

The backtest consumes one observation per difficulty retarget (roughly every
two weeks): date, protocol difficulty, observed market price, and the
network-average hardware efficiency in force that day. Efficiency and block
reward may ride along in the observation file or be supplied as separate
step-function tables keyed by effective date.

File formats (comma-delimited, header row, ISO-8601 dates, period decimal
separator):

* ``observations.csv`` - ``date,difficulty,price_usd[,eff_w_per_ghs]``
* ``efficiency.csv``   - ``date,w_per_ghs``
* ``rewards.csv``      - ``date,reward_btc``
* raw chart payloads   - ``timestamp,value`` (see :mod:`minecost.fetch`)

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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

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


def _step_lookup(entries, date: dt.date, what: str) -> float:
    """Value of the last ``(effective_date, value)`` entry on or before ``date``."""
    index = bisect.bisect_right(entries, date, key=itemgetter(0))
    if index == 0:
        raise DomainError(
            f"date {date.isoformat()} precedes first {what} entry "
            f"{entries[0][0].isoformat()}"
        )
    return entries[index - 1][1]


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
        for name in ("difficulty", "market_price"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    f"{name} must be positive and finite, got {value!r} "
                    f"({self.date.isoformat()})"
                )
        if self.efficiency is not None:
            if not math.isfinite(self.efficiency) or self.efficiency <= 0.0:
                raise ValidationError(
                    f"efficiency must be positive and finite, got "
                    f"{self.efficiency!r} ({self.date.isoformat()})"
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
        if not self.entries:
            raise ValidationError("reward schedule must have at least one entry")
        prev_date, prev_reward = None, None
        for date, reward in self.entries:
            if reward <= 0.0 or not math.isfinite(reward):
                raise ValidationError(
                    f"reward must be positive, got {reward!r} on {date.isoformat()}"
                )
            if prev_date is not None:
                if date <= prev_date:
                    raise ValidationError(
                        f"reward dates must be strictly increasing at {date.isoformat()}"
                    )
                if not math.isclose(reward, prev_reward / 2.0, rel_tol=1e-12):
                    raise ValidationError(
                        f"each reward must halve the previous: {prev_reward} -> "
                        f"{reward} on {date.isoformat()}"
                    )
            prev_date, prev_reward = date, reward

    def reward_at(self, date: dt.date) -> float:
        """Reward in force on ``date`` (step lookup, halving-day inclusive)."""
        return _step_lookup(self.entries, date, "reward")


@dataclass(frozen=True)
class EfficiencyTable:
    """Network-average hardware efficiency (W per GH/s) by effective date.

    Last-observation-carried-forward step function. Values are expected to
    fall over time as hardware improves; an increase is suspicious but not
    fatal, so it only warns.
    """

    entries: tuple[tuple[dt.date, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("efficiency table must have at least one entry")
        prev_date, prev_value = None, None
        for date, value in self.entries:
            if value <= 0.0 or not math.isfinite(value):
                raise ValidationError(
                    f"efficiency must be positive, got {value!r} on {date.isoformat()}"
                )
            if prev_date is not None and date <= prev_date:
                raise ValidationError(
                    f"efficiency dates must be strictly increasing at {date.isoformat()}"
                )
            if prev_value is not None and value > prev_value:
                warnings.warn(
                    f"efficiency increases from {prev_value} to {value} on "
                    f"{date.isoformat()}; hardware normally only improves",
                    UserWarning,
                    stacklevel=2,
                )
            prev_date, prev_value = date, value

    def efficiency_at(self, date: dt.date) -> float:
        """Efficiency in force on ``date``; warns when carried past the table."""
        value = _step_lookup(self.entries, date, "efficiency")
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
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ParseError(f"bad {name} value {text!r}", line) from None


def _open_rows(source) -> Iterable[list[str]]:
    if isinstance(source, str):
        source = io.StringIO(source)
    return csv.reader(source)


def _check_dates_sorted(dates: Sequence[dt.date], what: str) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur == prev:
            raise ValidationError(f"duplicate {what} date {cur.isoformat()}")
        if cur < prev:
            raise ValidationError(
                f"{what} dates out of order: {cur.isoformat()} after {prev.isoformat()}"
            )


def parse_observations(source) -> list[ObservationRecord]:
    """Parse an ``observations.csv`` stream into validated records.

    ``source`` may be a string or any iterable of text lines (an open file).
    Columns are matched by header name; order does not matter. The
    efficiency column is optional.

    Raises:
        ParseError: missing/unknown header, wrong field count, or a value
            that does not parse; carries the 1-based line number.
        ValidationError: a parsed value violating a record invariant, or
            dates out of order / duplicated.
    """
    reader = _open_rows(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row", 1) from None
    columns = [h.strip() for h in header]
    if "date" not in columns:
        raise ParseError(f"missing 'date' column in header {columns!r}", 1)
    for col in columns:
        if col not in OBSERVATION_COLUMNS:
            raise ParseError(f"unknown column {col!r}", 1)
    for col in ("date", "difficulty", "price_usd"):
        if col not in columns:
            raise ParseError(f"missing {col!r} column in header {columns!r}", 1)
    index = {name: columns.index(name) for name in columns}
    has_eff = "eff_w_per_ghs" in index

    records = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise ParseError(
                f"expected {len(columns)} fields, got {len(row)}", line
            )
        date = _parse_date(row[index["date"]], line)
        difficulty = _parse_float(row[index["difficulty"]], "difficulty", line)
        price = _parse_float(row[index["price_usd"]], "price_usd", line)
        efficiency = None
        if has_eff:
            raw = row[index["eff_w_per_ghs"]].strip()
            if raw:
                efficiency = _parse_float(raw, "eff_w_per_ghs", line)
        try:
            records.append(
                ObservationRecord(date, difficulty, price, efficiency)
            )
        except ValidationError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
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


def _parse_dated_table(source, value_column: str, what: str):
    reader = _open_rows(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row", 1) from None
    columns = [h.strip() for h in header]
    if columns != ["date", value_column]:
        raise ParseError(
            f"expected header 'date,{value_column}', got {','.join(columns)!r}", 1
        )
    entries = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line)
        date = _parse_date(row[0], line)
        value = _parse_float(row[1], value_column, line)
        entries.append((date, value))
    _check_dates_sorted([d for d, _ in entries], what)
    return tuple(entries)


def parse_reward_schedule(source) -> RewardSchedule:
    """Parse a ``rewards.csv`` stream (``date,reward_btc``)."""
    return RewardSchedule(_parse_dated_table(source, "reward_btc", "reward"))


def parse_efficiency_table(source) -> EfficiencyTable:
    """Parse an ``efficiency.csv`` stream (``date,w_per_ghs``)."""
    return EfficiencyTable(_parse_dated_table(source, "w_per_ghs", "efficiency"))


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
    return _load(Path(path), parse_observations)


def load_reward_schedule(path) -> RewardSchedule:
    return _load(Path(path), parse_reward_schedule)


def load_efficiency_table(path) -> EfficiencyTable:
    return _load(Path(path), parse_efficiency_table)


def _load(source, parse):
    """Parse the UTF-8 file ``source`` (a path or packaged resource).

    Raises:
        ParseError: a byte that is not UTF-8, naming the file and line; or
            a ParseError of ``parse``, its message prefixed with the file
            and its ``line`` kept.
        ValidationError: one of ``parse``, its message prefixed with the file.
    """
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
        ValidationError: empty input, or a record without efficiency when no
            table was given.
        DomainError: a non-positive or non-finite ``electricity_price``, a
            date not covered by the schedule or table, or a model price that
            overflows or underflows double precision; the message names the
            offending value or date (the first such date).
    """
    if not records:
        raise ValidationError("cannot build a backtest series from zero records")
    electricity_price = _require_positive_finite("electricity_price", electricity_price)
    efficiencies, rewards, carried = [], [], []
    for record in records:
        efficiency = record.efficiency
        if efficiency is None:
            if table is None:
                raise ValidationError(
                    f"no efficiency for {record.date.isoformat()} and no "
                    f"efficiency table supplied"
                )
            efficiency = _step_lookup(table.entries, record.date, "efficiency")
            if record.date > table.entries[-1][0]:
                carried.append(record.date)
        efficiencies.append(efficiency)
        rewards.append(_step_lookup(schedule.entries, record.date, "reward"))
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
        return bundled_data_path(name) if path is None else Path(path)

    return (
        _load(source(observations, "observations.csv"), parse_observations),
        _load(source(rewards, "rewards.csv"), parse_reward_schedule),
        _load(source(efficiency, "efficiency.csv"), parse_efficiency_table),
    )
