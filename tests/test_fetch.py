"""Tests for the chart download/cache path. Everything runs offline: the
transport talks only to loopback listeners on 127.0.0.1."""

import datetime as dt
import math
import os
import socket

import numpy as np
import pytest

from minecost import (
    DomainError,
    FetchError,
    ObservationRecord,
    Observations,
    ParseError,
    ValidationError,
    cache_file_for,
    fetch_remote_series,
    parse_chart_points,
    resample_to_epochs,
)
from tests.conftest import CHART_TEXT, OTHER_DATE_FORMS

BOM = "\ufeff".encode()


@pytest.fixture
def refused_url(monkeypatch):
    """A loopback URL whose port has no listener."""
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def silent_url(monkeypatch):
    """A loopback URL whose listener accepts connections but never answers."""
    monkeypatch.setenv("no_proxy", "*")
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield f"http://127.0.0.1:{sock.getsockname()[1]}"


class TestFetchRemoteSeries:
    def test_download_writes_cache_and_returns_payload(self, tmp_path, chart_server):
        payload = fetch_remote_series(
            "difficulty", base_url=chart_server.url + "/api", cache_dir=tmp_path
        )
        assert payload == CHART_TEXT
        assert chart_server.paths == ["/api/difficulty?format=csv"]
        cached = cache_file_for("difficulty", tmp_path)
        assert cached.read_text() == CHART_TEXT

    def test_same_day_repeat_is_served_from_cache(self, tmp_path, chart_server):
        fetch_remote_series("difficulty", base_url=chart_server.url, cache_dir=tmp_path)
        chart_server.status = 503
        payload = fetch_remote_series(
            "difficulty", base_url=chart_server.url, cache_dir=tmp_path
        )
        assert payload == CHART_TEXT
        assert len(chart_server.paths) == 1

    def test_transport_failure_maps_to_fetch_error(self, tmp_path, refused_url):
        with pytest.raises(FetchError, match="refused"):
            fetch_remote_series("difficulty", base_url=refused_url, cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_read_timeout_maps_to_fetch_error(self, tmp_path, silent_url):
        with pytest.raises(FetchError, match="timed out"):
            fetch_remote_series(
                "difficulty", base_url=silent_url, cache_dir=tmp_path, timeout=0.2
            )
        assert not any(tmp_path.iterdir())

    def test_truncated_body_maps_to_fetch_error(self, tmp_path, chart_server):
        chart_server.content_length = len(chart_server.body) + 10
        with pytest.raises(FetchError, match="failed"):
            fetch_remote_series(
                "difficulty", base_url=chart_server.url, cache_dir=tmp_path
            )
        assert not any(tmp_path.iterdir())

    def test_url_without_scheme_maps_to_fetch_error(self, tmp_path):
        with pytest.raises(FetchError, match="unknown url type"):
            fetch_remote_series("difficulty", base_url="charts.test", cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_http_error_status_maps_to_fetch_error(self, tmp_path, chart_server):
        chart_server.status = 503
        with pytest.raises(FetchError) as info:
            fetch_remote_series(
                "difficulty", base_url=chart_server.url, cache_dir=tmp_path
            )
        assert str(info.value) == (
            f"GET {chart_server.url}/difficulty returned status 503"
        )
        assert not any(tmp_path.iterdir())

    def test_success_status_other_than_200_rejected(self, tmp_path, chart_server):
        chart_server.status, chart_server.body = 204, b""
        with pytest.raises(FetchError, match="204"):
            fetch_remote_series(
                "difficulty", base_url=chart_server.url, cache_dir=tmp_path
            )
        assert not any(tmp_path.iterdir())

    def test_empty_payload_rejected_and_not_cached(self, tmp_path, chart_server):
        chart_server.body = b"  \n"
        with pytest.raises(FetchError, match="empty"):
            fetch_remote_series(
                "market-price", base_url=chart_server.url, cache_dir=tmp_path
            )
        assert not any(tmp_path.iterdir())

    def test_non_utf8_payload_rejected_and_not_cached(self, tmp_path, chart_server):
        chart_server.body = "2017-01-01,1.0\n2017-01-02,1.0 \u00b5\n".encode("latin-1")
        with pytest.raises(FetchError) as info:
            fetch_remote_series(
                "market-price", base_url=chart_server.url, cache_dir=tmp_path
            )
        assert str(info.value) == (
            f"GET {chart_server.url}/market-price:2: not UTF-8 text (byte 0xb5)"
        )
        assert not any(tmp_path.iterdir())

    def test_payload_byte_order_mark_is_dropped_and_cached_as_received(
            self, tmp_path, chart_server):
        chart_server.body = BOM + CHART_TEXT.encode()
        for _ in range(2):  # downloaded, then served from the cache
            payload = fetch_remote_series(
                "difficulty", base_url=chart_server.url, cache_dir=tmp_path
            )
            assert payload == CHART_TEXT
        assert len(chart_server.paths) == 1
        assert cache_file_for("difficulty", tmp_path).read_bytes() == chart_server.body

    def test_cache_file_byte_order_mark_is_dropped(self, tmp_path):
        cache_file_for("difficulty", tmp_path).write_bytes(BOM + CHART_TEXT.encode())
        assert fetch_remote_series("difficulty", cache_dir=tmp_path) == CHART_TEXT

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(FetchError, match="hashrate"):
            fetch_remote_series("hashrate", cache_dir=tmp_path)

    def test_cache_dir_env_override(self, tmp_path, monkeypatch, chart_server):
        monkeypatch.setenv("MINECOST_CACHE_DIR", str(tmp_path / "cachehome"))
        fetch_remote_series("difficulty", base_url=chart_server.url)
        assert cache_file_for("difficulty", tmp_path / "cachehome").exists()

    def test_base_url_env_override(self, tmp_path, monkeypatch, chart_server):
        monkeypatch.setenv("MINECOST_BASE_URL", chart_server.url + "/env")
        fetch_remote_series("market-price", cache_dir=tmp_path)
        assert chart_server.paths == ["/env/market-price?format=csv"]

    def test_a_failed_cache_write_leaves_no_file(self, tmp_path, chart_server,
                                                 monkeypatch):
        """The temporary file is removed and the write's error propagates."""
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="^disk full$"):
            fetch_remote_series("difficulty", base_url=chart_server.url, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert chart_server.paths == ["/difficulty?format=csv"]

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -1.0, 0, "x", None, 10**400],
                             ids=lambda v: repr(v)[:12])
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cached"])
    def test_a_timeout_not_positive_and_finite_is_a_domain_error(
            self, tmp_path, chart_server, timeout, cached):
        """Checked before the cache is read, so today's cache file does not hide it."""
        if cached:
            cache_file_for("difficulty", tmp_path).write_text(CHART_TEXT)
        with pytest.raises(DomainError) as info:
            fetch_remote_series("difficulty", base_url=chart_server.url,
                                cache_dir=tmp_path, timeout=timeout)
        assert str(info.value) == f"timeout must be a positive finite number, got {timeout!r}"
        assert chart_server.paths == []

    def test_a_timeout_beyond_the_platform_clock_is_a_fetch_error(self, tmp_path,
                                                                 chart_server):
        with pytest.raises(FetchError, match="failed: timestamp out of range"):
            fetch_remote_series("difficulty", base_url=chart_server.url,
                                cache_dir=tmp_path, timeout=1e300)
        assert chart_server.paths == []
        assert not any(tmp_path.iterdir())

    def test_cache_file_name_carries_kind_and_day(self, tmp_path):
        path = cache_file_for("market-price", tmp_path, today=dt.date(2018, 4, 27))
        assert path.name == "market-price-20180427.csv"


class TestParseChartPoints:
    def test_parses_timestamped_rows(self):
        points = parse_chart_points(CHART_TEXT)
        assert points == [
            (dt.date(2017, 1, 1), 317700000000.0),
            (dt.date(2017, 1, 2), 317700000000.0),
        ]

    def test_header_row_is_tolerated(self):
        points = parse_chart_points("timestamp,value\n" + CHART_TEXT)
        assert len(points) == 2

    @pytest.mark.parametrize("first, message", [
        ("\ufeff2017-01-01,1.0", "bad date '\\ufeff2017-01-01'"),
        ("01/01/2017,1.0", "bad date '01/01/2017'"),
        ("2017-01-01,value", "bad chart value 'value'"),
    ])
    def test_a_first_row_with_one_field_that_parses_is_data(self, first, message):
        """Only a line 1 of which neither field parses is skipped as a header."""
        with pytest.raises(ParseError) as info:
            parse_chart_points(f"{first}\n2017-01-02,2.0\n")
        assert str(info.value).startswith(f"line 1: {message}")

    @pytest.mark.parametrize("form", OTHER_DATE_FORMS)
    @pytest.mark.parametrize("line", [1, 3])
    def test_a_stamp_in_another_date_form_is_a_parse_error_on_its_line(self, form, line):
        """Charts take the observations' date rule, ``YYYY-MM-DD``, on every Python."""
        rows = ["timestamp,value", "2013-06-28,1.0", "2013-06-30 00:00:00,2.0"]
        rows[line - 1] = f"{form} 00:00:00,3.0"
        with pytest.raises(ParseError) as info:
            parse_chart_points("\n".join(rows) + "\n")
        assert str(info.value) == (
            f"line {line}: bad date {form!r}: Invalid isoformat string: {form!r}")

    def test_iso_t_separator_accepted(self):
        points = parse_chart_points("2017-01-01T00:00:00,5.0\n")
        assert points == [(dt.date(2017, 1, 1), 5.0)]

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_chart_points("2017-01-01,1.0\nnot-a-row\n")

    def test_only_cr_and_lf_end_a_line(self):
        """A form feed inside a value leaves the row and the line numbers whole."""
        text = "timestamp,value\n2017-01-01,1\x0c2.0\n2017-01-02,3.0\n"
        with pytest.raises(ParseError, match="^line 2: bad chart value"):
            parse_chart_points(text)
        assert len(parse_chart_points("timestamp,value\r\n2017-01-01,1\r2017-01-02,3\n")) == 2

    def test_bad_value_names_the_field_once(self):
        with pytest.raises(ParseError) as info:
            parse_chart_points("timestamp,value\n2017-01-01,abc\n")
        assert str(info.value) == "line 2: bad chart value 'abc'"

    @pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf", "1e999"])
    def test_value_not_positive_and_finite_rejected(self, value):
        with pytest.raises(ParseError) as info:
            parse_chart_points(f"2017-01-01,1.0\n2017-01-02,{value}\n")
        assert str(info.value) == (
            f"line 2: bad chart value {value!r}: not positive and finite"
        )

    def test_blank_lines_are_skipped(self):
        text = "timestamp,value\n\n2017-01-01,1.0\n  \n2017-01-02,2.0\n\n"
        assert parse_chart_points(text) == [(dt.date(2017, 1, 1), 1.0),
                                            (dt.date(2017, 1, 2), 2.0)]

    def test_out_of_order_timestamps_rejected(self):
        text = "2017-01-02,1.0\n2017-01-01,2.0\n"
        with pytest.raises(ValidationError, match="out of order"):
            parse_chart_points(text)

    def test_duplicate_timestamps_rejected(self):
        text = "2017-01-01,1.0\n2017-01-01,2.0\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_chart_points(text)


class TestResampleToEpochs:
    DIFFICULTY = [
        (dt.date(2017, 1, 1), 1e11),
        (dt.date(2017, 1, 2), 1e11),
        (dt.date(2017, 1, 3), 2e11),
        (dt.date(2017, 1, 4), 2e11),
        (dt.date(2017, 1, 5), 3e11),
    ]
    PRICES = [
        (dt.date(2017, 1, 1), 1000.0),
        (dt.date(2017, 1, 2), 1010.0),
        (dt.date(2017, 1, 3), 1020.0),
        (dt.date(2017, 1, 4), 1030.0),
        (dt.date(2017, 1, 5), 1040.0),
    ]

    def test_keeps_only_difficulty_changes(self):
        records = resample_to_epochs(self.DIFFICULTY, self.PRICES)
        assert isinstance(records, Observations)
        assert records == [
            ObservationRecord(dt.date(2017, 1, day), difficulty, price)
            for day, difficulty, price in [(1, 1e11, 1000.0), (3, 2e11, 1020.0),
                                           (5, 3e11, 1040.0)]
        ]
        assert np.isnan(records.efficiency).all()

    def test_price_is_last_at_or_before_change(self):
        records = resample_to_epochs(self.DIFFICULTY, self.PRICES)
        assert [r.market_price for r in records] == [1000.0, 1020.0, 1040.0]

    def test_price_gap_carries_earlier_quote(self):
        sparse = [(dt.date(2017, 1, 1), 1000.0)]
        records = resample_to_epochs(self.DIFFICULTY, sparse)
        assert records == [ObservationRecord(dt.date(2017, 1, day), difficulty, 1000.0)
                           for day, difficulty in [(1, 1e11), (3, 2e11), (5, 3e11)]]

    def test_changes_before_first_price_are_dropped(self):
        late = [(dt.date(2017, 1, 4), 1030.0)]
        records = resample_to_epochs(self.DIFFICULTY, late)
        assert records == [ObservationRecord(dt.date(2017, 1, 5), 3e11, 1030.0)]

    def test_empty_difficulty_series_gives_no_records(self):
        records = resample_to_epochs([], self.PRICES)
        assert isinstance(records, Observations)
        assert records == []
        assert records.efficiency.shape == (0,)
