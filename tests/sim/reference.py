"""The differential-testing reference scheduler.

:class:`ReferenceSimulator` is the engine's contract in its plainest
form: one binary heap of ``[when, seq, fn, args]`` entries, popped and
executed one event per loop iteration, with tombstoned (cancelled)
entries skipped at the front.  It shares everything else — timers,
processes, the ``until``/``max_events``/deadlock gates — with
:class:`~repro.sim.engine.Simulator`, so a test that runs one workload on
both and compares the execution logs proves the timing wheel and its
fast drain (bulk tombstone skip, batched same-timestamp dispatch) change
no event order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.engine import NEGATIVE_DELAY_EPSILON, Simulator
from repro.sim.errors import DeadlockError, SimTimeoutError


class ReferenceSimulator(Simulator):
    """Single-heap, one-event-at-a-time :class:`Simulator`."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        super().__init__()
        self._queue: list = []

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> list:
        if delay < 0.0:
            if delay < -NEGATIVE_DELAY_EPSILON:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0
        self._seq += 1
        entry = [self.now + delay, self._seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def at(self, when: float, fn: Callable[..., None], *args: Any) -> list:
        return self.schedule(when - self.now, fn, *args)

    def schedule_unsequenced(self, delay: float, fn: Callable[..., None],
                             *args: Any) -> list:
        if delay <= 0.0:
            raise ValueError(
                f"unsequenced delay must be positive, got {delay}")
        self._useq -= 1
        entry = [self.now + delay, self._useq, fn, args]
        heappush(self._queue, entry)
        return entry

    # -- queue internals --------------------------------------------------

    def _pending_count(self) -> int:
        return len(self._queue)

    def _next_live(self) -> Optional[list]:
        """The next live entry, not consumed; tombstones in front of it
        are popped and counted, never executed."""
        queue = self._queue
        check = self.check
        while queue:
            entry = queue[0]
            if entry[2] is not None:
                return entry
            heappop(queue)
            self.stale_events_skipped += 1
            self._stale_pending -= 1
            if check is not None:
                check.on_stale(entry)
        return None

    # -- running ----------------------------------------------------------

    def _drain(self, until: Optional[float],
               max_events: Optional[int]) -> bool:
        executed = 0
        while True:
            entry = self._next_live()
            if entry is None:
                return True
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                return False
            if max_events is not None and executed >= max_events:
                raise SimTimeoutError(
                    f"exceeded max_events={max_events} at t={self.now:.3f}us"
                )
            heappop(self._queue)
            self.now = when
            self.events_executed += 1
            executed += 1
            if self.check is not None:
                self.check.on_execute(entry)
            entry[2](*entry[3])

    def run_until_processes_done(
        self, procs, limit: float = 1e12, max_events: Optional[int] = None,
    ) -> float:
        executed = 0
        seen_stamp = -1
        while True:
            if seen_stamp != self._finish_stamp:
                seen_stamp = self._finish_stamp
                if all(p.finished for p in procs):
                    return self.now
            entry = self._next_live()
            if entry is None:
                break
            if entry[0] > limit:
                raise SimTimeoutError(
                    f"simulated time limit {limit}us exceeded; "
                    f"{sum(not p.finished for p in procs)} process(es) unfinished"
                )
            if max_events is not None and executed >= max_events:
                raise SimTimeoutError(f"exceeded max_events={max_events}")
            heappop(self._queue)
            self.now = entry[0]
            self.events_executed += 1
            executed += 1
            if self.check is not None:
                self.check.on_execute(entry)
            entry[2](*entry[3])
        unfinished = [p for p in procs if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"queue drained at t={self.now:.3f}us; unfinished: "
                + ", ".join(p.name or "<anon>" for p in unfinished)
            )
        return self.now
