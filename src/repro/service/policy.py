"""Verdict-retention and Retry-After policies for ``repro serve``.

:func:`parse_retention` parses the ``--retain-verdicts`` grammar shared
by the CLI and :class:`~repro.service.server.ReproService`, and
:class:`ShardLatencyWindow` turns observed shard latencies into the
adaptive ``Retry-After`` hint served on 429/503.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

__all__ = [
    "RetentionPolicy",
    "ShardLatencyWindow",
    "parse_retention",
]


# -- verdict retention -------------------------------------------------------

_AGE_RE = re.compile(r"^(\d+)([smhd])$")
_AGE_UNIT_S = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


@dataclass(frozen=True)
class RetentionPolicy:
    """Parsed ``--retain-verdicts`` value.

    ``kind`` is ``"count"`` (keep the newest N verdicts) or ``"age"``
    (keep verdicts younger than ``value`` seconds).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("count", "age"):
            raise ConfigurationError(
                f"retention kind must be count|age, got {self.kind!r}"
            )
        if self.value <= 0:
            raise ConfigurationError("retention value must be positive")


def parse_retention(text) -> Optional[RetentionPolicy]:
    """Parse ``--retain-verdicts``: ``N`` verdicts or ``30m``/``24h``/``7d``.

    ``None``/empty means retain forever (the default).  Already-parsed
    policies pass through, so callers can hand either form around.
    """
    if text is None or isinstance(text, RetentionPolicy):
        return text
    if isinstance(text, int):
        return RetentionPolicy("count", text)
    text = str(text).strip()
    if not text:
        return None
    if text.isdigit():
        return RetentionPolicy("count", int(text))
    match = _AGE_RE.match(text)
    if match:
        return RetentionPolicy(
            "age", int(match.group(1)) * _AGE_UNIT_S[match.group(2)]
        )
    raise ConfigurationError(
        f"--retain-verdicts must be a count or <N>[smhd] age, got {text!r}"
    )


# -- adaptive Retry-After ----------------------------------------------------


class ShardLatencyWindow:
    """Rolling window of observed shard latencies -> back-off hint.

    The 429 ``Retry-After`` answer should reflect how fast the daemon
    is actually clearing work: a saturated queue of heavy jobs deserves
    a longer hint than one of ten-millisecond smoke jobs.  The hint is
    the window's median shard latency scaled by the number of in-flight
    jobs, clamped to ``[floor_s, cap_s]`` so an idle or brand-new
    daemon still answers something sane.
    """

    def __init__(
        self, *, floor_s: float = 1.0, cap_s: float = 60.0, size: int = 64
    ):
        if floor_s <= 0 or cap_s < floor_s:
            raise ConfigurationError(
                "retry-after window needs 0 < floor_s <= cap_s"
            )
        self.floor_s = floor_s
        self.cap_s = cap_s
        self.size = size
        self._lock = threading.Lock()
        self._samples: list = []
        self._next = 0

    def record(self, latency_s: float) -> None:
        with self._lock:
            if len(self._samples) < self.size:
                self._samples.append(latency_s)
            else:
                self._samples[self._next] = latency_s
                self._next = (self._next + 1) % self.size

    def hint(self, in_flight: int) -> float:
        """Suggested client back-off given ``in_flight`` queued+active jobs."""
        with self._lock:
            if not self._samples:
                return self.floor_s
            ordered = sorted(self._samples)
            median = ordered[len(ordered) // 2]
        return min(self.cap_s, max(self.floor_s, median * max(1, in_flight)))
