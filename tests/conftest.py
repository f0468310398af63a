"""Shared fixtures: a loopback HTTP server standing in for the chart endpoint."""

import http.server
import threading

import pytest

CHART_TEXT = "2017-01-01 00:00:00,317700000000\n2017-01-02 00:00:00,317700000000\n"


class _ChartHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.paths.append(self.path)
        self.send_response(self.server.status)
        length = self.server.content_length or len(self.server.body)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, format, *args):
        pass


class ChartServer(http.server.ThreadingHTTPServer):
    """Answers every GET on 127.0.0.1 with ``status`` and ``body``; records paths.

    ``content_length`` overrides the declared body length, to send a
    truncated response.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChartHandler)
        self.status = 200
        self.body = CHART_TEXT.encode()
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
