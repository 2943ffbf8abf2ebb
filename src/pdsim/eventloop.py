"""Minimal deterministic discrete-event scheduler.

Single-threaded: callbacks run in (time, insertion-order) sequence and may
schedule further events. No simulator in this package runs on it any more:
it is the scheduler the event-by-event reference simulators in the tests
run on, and it stays here because the benchmark tracer hooks
``EventLoop.run`` and ``EventLoop.schedule_at``.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventLoop:
    def __init__(self, start_ms: float = 0.0) -> None:
        self.now: float = start_ms
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule_at(self, when_ms: float, fn: Callable[[], None]) -> None:
        if when_ms < self.now:
            raise ValueError(f"cannot schedule in the past ({when_ms} < {self.now})")
        heapq.heappush(self._heap, (when_ms, self._seq, fn))
        self._seq += 1

    def schedule_after(self, delay_ms: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay_ms, fn)

    def run(self) -> float:
        """Drain the queue; returns the time of the last event."""
        while self._heap:
            when, _, fn = heapq.heappop(self._heap)
            self.now = when
            fn()
        return self.now
