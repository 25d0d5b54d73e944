"""A structured JSONL event log for operational events.

Counters say *how many*, histograms say *how long*, the event log says
*what happened*: migrations, device failures/drains, load-sheds,
backpressure and deadline aborts land here as one JSON object per event
with a wall-clock timestamp.  Events are kept in a bounded in-memory
ring (served by ``python -m repro.obs`` and the gateway's admin status)
and, when a path is configured, appended to a JSONL file an operator can
tail.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["EventLog", "get_event_log"]


class EventLog:
    def __init__(self, *, enabled: bool = True, capacity: int = 1024,
                 path: Optional[str] = None) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._path = path
        self._file = None

    # ------------------------------------------------------------------ #
    def set_path(self, path: Optional[str]) -> None:
        """(Re)direct the JSONL stream; ``None`` keeps events in memory."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except Exception:
                    pass
                self._file = None
            self._path = path

    def emit(self, event: str, **fields: object) -> Optional[Dict[str, object]]:
        if not self.enabled:
            return None
        record: Dict[str, object] = {"ts": round(time.time(), 6),
                                     "event": event}
        record.update(fields)
        with self._lock:
            self._ring.append(record)
            self._counts[event] = self._counts.get(event, 0) + 1
            if self._path is not None:
                try:
                    if self._file is None:
                        self._file = open(self._path, "a", encoding="utf-8")
                    self._file.write(json.dumps(record, sort_keys=True,
                                                default=str) + "\n")
                    self._file.flush()
                except Exception:
                    # telemetry must never take the control plane down
                    self._file = None
                    self._path = None
        return record

    # ------------------------------------------------------------------ #
    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        with self._lock:
            events = list(self._ring)
        return events if limit is None else events[-limit:]

    def counts(self) -> Dict[str, int]:
        """Lifetime per-kind totals (survive ring eviction)."""
        with self._lock:
            return dict(self._counts)

    def close(self) -> None:
        self.set_path(None)


_DEFAULT = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default event log."""
    return _DEFAULT
