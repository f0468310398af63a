"""Shared fixtures: a loopback HTTP server standing in for the chart endpoint,
and the loader of the scripts under tools/ and perfbench/."""

import datetime as dt
import http.server
import importlib.util
import threading
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(path):
    """The module of the script at ``path`` (from the repo root), run as an import."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def singular_var1_logs(seed=1):
    """Log market and model prices whose VAR(1) residual covariance is singular.

    The market is an exact blend of this and last period's model price, so
    both equations of a VAR(1) share one innovation. With seed 1 the
    covariance's determinant rounds to 0 or below; with seeds 2 and 4 it is
    rounding noise above 0, and the residual correlation is 1 to rounding.
    """
    d = 10 + np.cumsum(0.05 * np.random.default_rng(seed).standard_normal(60))
    return np.column_stack([0.7 * d[1:] + 0.4 * d[:-1], d[1:]])


CHART_TEXT = "2017-01-01 00:00:00,317700000000\n2017-01-02 00:00:00,317700000000\n"

# The forms of a date that Python 3.11 and later read with date.fromisoformat
# and the input format does not: basic, week with day, week and basic week.
OTHER_DATE_FORMS = ["20130629", "2013-W26-6", "2013-W26", "2013W266"]


def _daily_chart(days, value) -> str:
    """A ``timestamp,value`` payload: ``value(day)`` on 2017-01-01 + ``day``."""
    start = dt.date(2017, 1, 1)
    return "".join(f"{start + dt.timedelta(days=day)} 00:00:00,{value(day)!r}\n"
                   for day in days)


# Two months of 2017, inside the bundled efficiency table and one reward era:
# the difficulty changes every third day, and prices start a day later, so
# the first change has no price. Keyed by the path each chart is served at.
EPOCH_CHARTS = {
    "/difficulty": _daily_chart(range(60), lambda day: 3.0e11 + 4.0e9 * (day // 3)),
    "/market-price": "timestamp,value\n" + _daily_chart(
        range(1, 60), lambda day: 900.0 + 7.0 * day + 13.0 * (day % 5)),
}


class _ChartHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.paths.append(self.path)
        body = self.server.bodies.get(urlsplit(self.path).path, self.server.body)
        self.send_response(self.server.status)
        length = self.server.content_length or len(body)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class ChartServer(http.server.ThreadingHTTPServer):
    """Answers every GET on 127.0.0.1 with ``status`` and a body; records paths.

    The body is ``bodies[path]`` for a path (query left out) that ``bodies``
    holds, and ``body`` for any other. ``content_length`` overrides the
    declared body length, to send a truncated response.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChartHandler)
        self.status = 200
        self.body = CHART_TEXT.encode()
        self.bodies = {}
        self.content_length = None
        self.paths = []
        self.url = f"http://127.0.0.1:{self.server_port}"


@pytest.fixture
def chart_server(monkeypatch):
    # A proxy configured in the environment must not see loopback requests.
    monkeypatch.setenv("no_proxy", "*")
    server = ChartServer()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
