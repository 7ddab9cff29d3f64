"""Progress line with an ETA derived from settled-item timings.

:class:`ProgressLine` is a drop-in ``progress(done, total)`` callback
for :class:`~repro.pipeline.core.WorkQueueCore`: it timestamps every
settle, estimates the rate over a sliding window of recent settles (so
the ETA tracks the current mix of cache hits and slow analyses rather
than the whole-run average), and renders either an in-place ``\\r`` line
(TTY) or one line per update (pipes, CI logs).

Pure stdlib, no repro imports — usable by any long loop, not just the
batch pipeline.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import Deque, Optional, TextIO, Tuple


def format_eta(seconds: float) -> str:
    """Compact human ETA: ``42s``, ``3m10s``, ``2h05m``."""
    if seconds != seconds or seconds < 0 or seconds == float("inf"):
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


class ProgressLine:
    """Render ``done/total`` with rate and ETA to a stream.

    Parameters
    ----------
    label:
        Noun after the counts (``"analysed"``).
    stream:
        Defaults to ``sys.stderr``.
    window:
        Number of recent settles the rate/ETA estimate uses.
    min_interval:
        Minimum seconds between non-final renders (keeps per-item
        printing from flooding a log on fast cache-hit storms).
    """

    def __init__(
        self,
        label: str = "done",
        stream: Optional[TextIO] = None,
        window: int = 50,
        min_interval: float = 0.1,
    ) -> None:
        self.label = label
        self._stream = stream if stream is not None else sys.stderr
        self._settles: Deque[Tuple[float, int]] = deque(maxlen=max(2, window))
        self._min_interval = min_interval
        self._last_render = -float("inf")
        self._isatty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._open = False
        self._start = time.perf_counter()

    # -- estimation ------------------------------------------------------
    def eta_seconds(self, done: int, total: int) -> float:
        """Remaining-time estimate from the recent settle window."""
        if done >= total:
            return 0.0
        if len(self._settles) >= 2:
            (t0, d0), (t1, d1) = self._settles[0], self._settles[-1]
            span, items = t1 - t0, d1 - d0
            if items > 0 and span > 0:
                return (total - done) * span / items
        elapsed = time.perf_counter() - self._start
        if done > 0 and elapsed > 0:
            return (total - done) * elapsed / done
        return float("inf")

    # -- the progress callback -----------------------------------------
    def update(self, done: int, total: int) -> None:
        now = time.perf_counter()
        self._settles.append((now, done))
        final = done >= total
        if not final and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        eta = self.eta_seconds(done, total)
        rate = ""
        if len(self._settles) >= 2:
            (t0, d0), (t1, d1) = self._settles[0], self._settles[-1]
            if t1 > t0:
                rate = f", {(d1 - d0) / (t1 - t0):.1f}/s"
        pct = 100.0 * done / total if total else 100.0
        line = (
            f"  {done}/{total} {self.label} ({pct:.0f}%{rate}, "
            f"eta {format_eta(eta)})"
        )
        if self._isatty:
            self._stream.write("\r" + line + "\x1b[K")
            self._open = True
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Terminate an in-place line (no-op on non-TTY streams)."""
        if self._open:
            self._stream.write("\n")
            self._stream.flush()
            self._open = False
