"""Shared fixtures: a loopback HTTP server standing in for the chart endpoint."""

import datetime as dt
import http.server
import threading
from urllib.parse import urlsplit

import pytest

CHART_TEXT = "2017-01-01 00:00:00,317700000000\n2017-01-02 00:00:00,317700000000\n"


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
