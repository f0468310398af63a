"""Remote chart download with a local daily cache.

Pulls raw difficulty and market-price chart series over HTTP with the
standard library's ``urllib.request`` and resamples them to
difficulty-change dates so the result feeds the normal parse path. The
network modules (``urllib.request``, ``http.client`` and through them
``ssl``) are imported on the first download and numpy on the first resample,
not with this module, so a command that does neither loads none of them.
Strictly optional: the packaged reference dataset covers offline use, and
the tests talk only to a loopback server.

The endpoint layout is ``{base_url}/{chart_name}?format=csv`` with the chart
name one of :data:`CHART_KINDS`. Base URL and cache directory can be set per
call, via MINECOST_BASE_URL / MINECOST_CACHE_DIR, or left to defaults.
Payloads must be UTF-8 (one leading byte-order mark is dropped) and are
cached, as the bytes received, under ``{kind}-{YYYYMMDD}.csv``; a same-day
repeat is served from the cache without a network call, and nothing is
written unless the download succeeded. Neither side of the cache goes
through the locale's codec.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import os
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FetchError, _utf8_text

if TYPE_CHECKING:
    from .dataset import Observations

DEFAULT_BASE_URL = "https://api.blockchain.info/charts"
ENV_BASE_URL = "MINECOST_BASE_URL"
ENV_CACHE_DIR = "MINECOST_CACHE_DIR"

CHART_KINDS = ("difficulty", "market-price")


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR, Path.home() / ".cache" / "minecost"))


def cache_file_for(kind: str, cache_dir=None, today: dt.date | None = None) -> Path:
    """Cache path for one chart kind on one calendar day."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    today = today or dt.date.today()
    return cache_dir / f"{kind}-{today:%Y%m%d}.csv"


def fetch_remote_series(
    kind: str,
    base_url: str | None = None,
    cache_dir=None,
    timeout: float = 30.0,
) -> str:
    """Download (or reuse today's cached copy of) one raw chart series.

    Args:
        kind: one of CHART_KINDS.
        base_url: endpoint root; falls back to MINECOST_BASE_URL, then the
            public default.
        cache_dir: cache directory; falls back to MINECOST_CACHE_DIR, then
            ``~/.cache/minecost``.
        timeout: connect and read timeout in seconds.

    Returns:
        The raw payload text.

    Raises:
        FetchError: transport failure or timeout, a status other than 200,
            or an empty or non-UTF-8 payload, the cache left untouched; or
            today's cache file is not UTF-8, naming it and the line.
    """
    if kind not in CHART_KINDS:
        raise FetchError(f"unknown chart kind {kind!r}; choose from {CHART_KINDS}")
    cache_path = cache_file_for(kind, cache_dir)
    if cache_path.exists():
        return _utf8_text(cache_path.read_bytes(), cache_path, FetchError)

    import http.client
    import urllib.error
    import urllib.request

    base = (base_url or os.environ.get(ENV_BASE_URL) or DEFAULT_BASE_URL).rstrip("/")
    url = f"{base}/{kind}"
    # HTTPError (a 4xx/5xx status) subclasses URLError and OSError, so it is
    # caught first. Refused connections (URLError) and read timeouts (a bare
    # TimeoutError) are OSErrors; a malformed URL raises ValueError and a
    # malformed response an HTTPException.
    try:
        with urllib.request.urlopen(f"{url}?format=csv", timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise FetchError(f"GET {url} returned status {exc.code}") from exc
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise FetchError(f"GET {url} failed: {exc}") from exc
    if status != 200:
        raise FetchError(f"GET {url} returned status {status}")
    payload = _utf8_text(body, f"GET {url}", FetchError)
    if not payload.strip():
        raise FetchError(f"GET {url} returned an empty payload")

    cache_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache_path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as tmp:
            tmp.write(body)
        os.replace(tmp_name, cache_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return payload


def resample_to_epochs(
    difficulty_points: list[tuple[dt.date, float]],
    price_points: list[tuple[dt.date, float]],
) -> Observations:
    """Reduce raw daily series to one observation per difficulty change.

    Keeps the first difficulty point and every later point whose value
    differs from its predecessor, then attaches the last market price at or
    before each change date. Change dates preceding the first price point
    are dropped (no price to pair with). The efficiency column is all NaN.
    """
    from .dataset import Observations
    rows = []
    previous = None
    for date, difficulty in difficulty_points:
        if difficulty == previous:
            continue
        previous = difficulty
        index = bisect.bisect_right(price_points, date, key=itemgetter(0))
        if index:
            rows.append((date, difficulty, price_points[index - 1][1], math.nan))
    return Observations(*zip(*rows)) if rows else Observations((), (), (), ())
