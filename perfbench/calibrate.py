"""A fixed kernel that measures how fast this CPU is running right now.

The benchmark's host runs each vCPU at one of two speeds and switches
between them every few seconds to minutes; in the slow state every op takes
about 1.6 times as long. The kernel below never calls minecost. It is a
fixed mix of interpreter and numpy work like the workloads' own (JSON
encoding, float parsing, sorting, small least-squares fits), and slows down
in the slow state by about the same factor as they do.

``run.py`` runs it between ops and scales each op's wall time by
``REFERENCE_MS / kernel time``, taken as the mean of the kernel runs just
before and just after the op. A scaled time is the op's wall time at the
speed at which the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import gc
import json
import time

# The kernel's time in the fast state of a 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11.7, numpy 2.4.6, one BLAS thread). It sets the scale only:
# parent and change are scaled by the same constant.
REFERENCE_MS = 1.7
WARMUP_RUNS = 5
TIMED_RUNS = 2

_inputs = None


def _build_inputs():
    # numpy is imported here, after run.py has pinned the BLAS threads.
    import numpy as np

    rows = [{"date": f"2020-01-{i % 28 + 1:02d}", "price": 1.0 + i / 7.0, "n": i}
            for i in range(600)]
    text = [repr(1.0 + i / 3.0) for i in range(2000)]
    x = np.column_stack([np.ones(200), np.arange(400.0).reshape(200, 2) ** 0.5])
    return np, rows, text, x


def kernel_ms() -> float:
    """The kernel's wall time in ms: the faster of two timed runs.

    An untimed run goes first, because an op or a child process that has
    just run leaves the caches cold, and the cyclic GC is held off, so that
    the time depends on the CPU's speed and not on what the op left behind.
    """
    global _inputs
    if _inputs is None:
        _inputs = _build_inputs()
        for _ in range(WARMUP_RUNS):
            _run(*_inputs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _run(*_inputs)
        times = []
        for _ in range(TIMED_RUNS):
            start = time.perf_counter()
            _run(*_inputs)
            times.append(time.perf_counter() - start)
        return 1e3 * min(times)
    finally:
        if enabled:
            gc.enable()


def _run(np, rows, text, x) -> None:
    json.dumps(rows)
    sum(float(s) for s in text)
    sorted(text)
    for _ in range(20):
        np.linalg.lstsq(x, x[:, 1] * 1.5, rcond=None)


class Scaler:
    """Scales op times by kernel runs made at least every ``every_s`` seconds.

    Each op time is scaled by the mean of the kernel runs that bracket it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.scaled: list[float] = []
        self.kernel_times = [kernel_ms()]
        self._pending: list[float] = []
        self._last = time.perf_counter()

    def add(self, duration: float) -> None:
        self._pending.append(duration)

    def tick(self) -> None:
        """Run the kernel if ``every_s`` has passed since its last run."""
        if time.perf_counter() - self._last >= self.every_s:
            self.close()

    def close(self) -> None:
        """Run the kernel now and scale every op time added since the last run."""
        before = self.kernel_times[-1]
        after = kernel_ms()
        self.kernel_times.append(after)
        factor = REFERENCE_MS / (0.5 * (before + after))
        self.scaled.extend(d * factor for d in self._pending)
        self._pending.clear()
        self._last = time.perf_counter()
