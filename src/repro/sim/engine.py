"""The event loop: a timing-wheel event core with a simulated clock.

Time is a float measured in **microseconds** — the natural unit for this
paper, whose primitive costs range from 0.13 µs (MSMU gap) to 88 µs (MPL
round trip).  Ties are broken by insertion order so the simulation is fully
deterministic.

The paper's whole argument is that per-message *software* overhead is what
limits communication performance (§3); the simulator applies the same
creed to its own hot path.  The queue is a timing wheel with a fast lane
for the dominant µs-scale events (MicroChannel DMA steps, MSMU gaps, wire
serialization): the wheel's *active window* — the slot the clock
currently turns through — is one sorted list; events landing inside it
are placed by ``bisect.insort`` and consumed by advancing a cursor, so
the common schedule→run path is two C-level list operations with no heap
traffic.  Far-future timers (keep-alive probes, second-scale protocol
timeouts) overflow into a heap that is consulted only when the window
turns over; draining it in heap order yields the next window already
sorted.  The test suite keeps a plain binary-heap scheduler
(``tests/sim/reference.py``) as the differential reference: both must
execute the same events in exactly the same order.

Timers are cancellable: :meth:`Simulator.call_later` returns a
:class:`TimerHandle` whose ``cancel()`` is O(1) — it bumps the handle's
generation and tombstones the queue entry in place; the scheduler skips
tombstoned entries on pop without executing or counting them.  This is
what keeps ``Timeout`` yields (the AM keep-alive backoff, MPL's
second-scale receive timeouts) from churning the queue with stale wakeups.

**Idle fast-forward.** Because every blocking construct in the protocol
stack is either an event wait or a cancellable timer, a quiesced instant —
all runnable processes blocked on timers/events — leaves the queue front
holding only tombstones and the next live entry.  The run loops therefore
(a) jump the clock directly to the next live entry, consuming any run of
tombstones in one bulk skip instead of one loop iteration each, and
(b) batch-execute runs of same-timestamp events in a single dispatch
loop that settles the clock and the ``until``/``limit`` gates once per
timestamp instead of once per event.  Both halves are order-preserving by
construction; the reference scheduler and the committed event-order
digests in ``BENCH_simperf.json`` check it.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.errors import DeadlockError, SimTimeoutError
from repro.sim.primitives import Event

#: absolute value (µs) below which a negative delay is treated as
#: accumulated float error and clamped to "now" rather than rejected.
#: ``Switch.inject`` sums serialization starts and wire times per hop;
#: after thousands of packets the sum can land an epsilon behind
#: ``sim.now`` even though the intent is "deliver immediately".
NEGATIVE_DELAY_EPSILON = 1e-9

#: width (µs) of the wheel's active window.  Events within the window are
#: ordered exactly by (time, insertion seq), so this is a throughput
#: constant, never a correctness one.  128 us measured best-or-equal
#: across the perf workloads: wide enough that the ~100-400 us protocol
#: timers (retransmit backoff, keep-alive) are born in-window — where a
#: later cancel costs one bulk-skipped tombstone instead of a
#: heappush/heappop round trip — yet narrow enough that insort's memmove
#: stays cheap on the dense microsecond-scale workloads.
WHEEL_WINDOW_US = 128.0


class TimerHandle:
    """A cancellable scheduled callback (returned by ``call_later``).

    Cancellation is *lazy*: ``cancel()`` bumps the handle's generation and
    tombstones the live queue entry in place (O(1), no heap surgery); the
    scheduler discards the entry when it eventually reaches the front of
    the queue, without executing it or counting it as an event.  A handle
    may be rescheduled after firing or cancelling — each new entry carries
    the next generation, so at most one entry is ever live per handle.
    """

    __slots__ = ("_sim", "_entry", "gen")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._entry: Optional[list] = None
        #: generation stamp; bumped on every cancel/fire so stale queue
        #: entries (earlier generations) can never fire this handle again
        self.gen = 0

    @property
    def active(self) -> bool:
        """Whether the timer is scheduled and will still fire."""
        e = self._entry
        return e is not None and e[2] is not None

    def cancel(self) -> bool:
        """Cancel the pending firing; returns True if one was pending.

        Safe at any instant, including from a callback executing at the
        same ``(time, seq)`` batch as this timer's entry: the dispatch
        loops re-read the entry's callback slot at dispatch time, so the
        tombstone written here is honoured even for an entry later in the
        very batch that is currently executing.
        """
        e = self._entry
        if e is None or e[2] is None:
            return False
        e[2] = None        # tombstone: skipped (uncounted) on pop
        e[3] = ()          # drop callback-arg references immediately
        self._entry = None
        self.gen += 1
        sim = self._sim
        sim._stale_pending += 1
        ck = sim.check
        if ck is not None:
            ck.on_cancel(e)
        return True

    def _fire(self, gen: int, fn: Callable[..., None], args: tuple) -> None:
        if gen != self.gen:
            # The generation stamped into the entry at schedule time no
            # longer matches: the handle was cancelled or rescheduled and
            # the tombstone was somehow bypassed.  Firing would run a
            # callback the owner already disowned — fail loudly instead.
            raise RuntimeError(
                f"timer entry from generation {gen} fired on a handle at "
                f"generation {self.gen} (cancelled/rescheduled timer was "
                "not tombstoned)"
            )
        # the entry just popped is this handle's live one: retire it
        self._entry = None
        self.gen += 1
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "idle"
        return f"TimerHandle(gen={self.gen}, {state})"


class Simulator:
    """Discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, callback, arg)          # plain event
        h = sim.call_later(400.0, on_timeout)      # cancellable timer
        h.cancel()
        proc = sim.spawn(my_generator(...))        # coroutine process
        sim.run()                                  # drain the queue
        print(sim.now)

    ``run`` drains the queue or stops at ``until``.  If the queue drains
    while spawned processes are still blocked on events, a
    :class:`DeadlockError` is raised — silent hangs in protocol code become
    loud test failures.
    """

    __slots__ = (
        "now", "_seq", "_useq",
        "_live_processes", "_blocked_processes", "_finish_stamp",
        "events_executed", "stale_events_skipped", "_stale_pending",
        "_window_end", "_cur_list", "_cur_idx", "_far", "check",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        #: separate (decrementing) sequence counter for *unsequenced*
        #: entries — observers like the metrics sampler whose timers must
        #: not perturb the (when, seq) identity of ordinary events.  The
        #: negative seqs never collide with the positive ``_seq`` stream,
        #: sort deterministically (before ordinary events at an equal
        #: timestamp), and let digest recorders recognise observer events
        #: by ``entry[1] < 0``.
        self._useq = 0
        self._live_processes = 0
        self._blocked_processes = 0
        #: monotonically bumped every time a process finishes; lets run
        #: loops re-evaluate "are my processes done?" only when the answer
        #: can have changed instead of per event
        self._finish_stamp = 0
        self.events_executed = 0
        #: tombstoned (cancelled) entries discarded at the queue front
        self.stale_events_skipped = 0
        #: cancelled entries still buried in the queue
        self._stale_pending = 0
        self._window_end = WHEEL_WINDOW_US  # first window covers [0, W)
        self._cur_list: List[list] = []  # sorted entries of active window
        self._cur_idx = 0                # consume cursor into _cur_list
        self._far: List[list] = []       # heap of entries past the window
        #: event-ordering checker (repro.check), None when unchecked
        self.check = None

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated time.

        Returns the queue entry (an engine-internal list); treat it as
        opaque.  Use :meth:`call_later` when you need to cancel.
        """
        if delay < 0.0:
            if delay < -NEGATIVE_DELAY_EPSILON:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0  # accumulated float error, not intent
        self._seq += 1
        when = self.now + delay
        entry = [when, self._seq, fn, args]
        if when < self._window_end:
            # inside the active window: exact (time, seq) position past
            # the consume cursor — two C-level list operations
            insort(self._cur_list, entry, self._cur_idx)
        else:
            heappush(self._far, entry)
        return entry

    def at(self, when: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Body mirrors :meth:`schedule` (the switch calls this twice per
        packet hand-off) including the ``now + (when - now)`` round-trip,
        which is not a float identity — timestamps must stay bit-identical
        to the delegating form.
        """
        delay = when - self.now
        if delay < 0.0:
            if delay < -NEGATIVE_DELAY_EPSILON:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0  # accumulated float error, not intent
        self._seq += 1
        when = self.now + delay
        entry = [when, self._seq, fn, args]
        if when < self._window_end:
            insort(self._cur_list, entry, self._cur_idx)
        else:
            heappush(self._far, entry)
        return entry

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> TimerHandle:
        """Schedule a cancellable timer; returns its :class:`TimerHandle`.

        The queue entry carries the handle's generation at schedule time;
        :meth:`TimerHandle._fire` refuses entries whose generation no
        longer matches, so even an entry that escapes tombstoning (an
        engine bug) cannot fire a cancelled timer.
        """
        handle = TimerHandle(self)
        handle._entry = self.schedule(delay, handle._fire, handle.gen,
                                      fn, args)
        return handle

    def schedule_unsequenced(self, delay: float, fn: Callable[..., None],
                             *args: Any) -> list:
        """Like :meth:`schedule`, but the entry draws from the separate
        negative sequence stream: it does not advance ``_seq``, so its
        presence or absence leaves every ordinary event's ``(when, seq)``
        identity — and therefore the event-order digests — untouched.
        Digest recorders skip entries with ``entry[1] < 0``.

        ``delay`` must be strictly positive: an unsequenced entry landing
        at the *current* timestamp could execute after same-instant
        ordinary events with larger (positive) seqs, breaking the
        scheduler's strict (time, seq) execution-order invariant.
        """
        if delay <= 0.0:
            raise ValueError(
                f"unsequenced delay must be positive, got {delay}")
        self._useq -= 1
        when = self.now + delay
        entry = [when, self._useq, fn, args]
        if when < self._window_end:
            insort(self._cur_list, entry, self._cur_idx)
        else:
            heappush(self._far, entry)
        return entry

    def call_later_unsequenced(self, delay: float, fn: Callable[..., None],
                               *args: Any) -> TimerHandle:
        """Cancellable variant of :meth:`schedule_unsequenced` — the timer
        lane for observers (the metrics sampler) that must stay
        digest-neutral."""
        handle = TimerHandle(self)
        handle._entry = self.schedule_unsequenced(
            delay, handle._fire, handle.gen, fn, args)
        return handle

    def event(self, name: str = "") -> Event:
        """Create a new one-shot :class:`Event` bound to this simulator."""
        return Event(self, name)

    # -- process bookkeeping (used by Process) ----------------------------

    def _process_started(self) -> None:
        self._live_processes += 1

    def _process_finished(self) -> None:
        self._live_processes -= 1
        self._finish_stamp += 1

    def _process_blocked(self) -> None:
        self._blocked_processes += 1

    def _process_unblocked(self) -> None:
        self._blocked_processes -= 1

    # -- queue internals --------------------------------------------------

    def _advance(self) -> Optional[list]:
        """Turn the wheel to the next window.  Points the cursor at the
        globally next entry and returns it, or None when the queue is
        empty.  Does not consume and never executes anything, so it is
        safe to call as a peek."""
        if self._cur_idx < len(self._cur_list):
            return self._cur_list[self._cur_idx]
        far = self._far
        if not far:
            return None
        # next window starts at the earliest far timer; draining the heap
        # in pop order yields the next window's entries already sorted
        w_end = far[0][0] + WHEEL_WINDOW_US
        entries = [heappop(far)]
        while far and far[0][0] < w_end:
            entries.append(heappop(far))
        self._window_end = w_end
        self._cur_list = entries
        self._cur_idx = 0
        return entries[0]

    def _pending_count(self) -> int:
        """Queued entries **including tombstones** (debug/repr).  Use
        :meth:`live_pending_count` for "how much will actually run"."""
        return len(self._cur_list) - self._cur_idx + len(self._far)

    def live_pending_count(self) -> int:
        """Queued entries that will actually execute — tombstoned
        (cancelled) timers excluded.  Quiesce predicates must use this:
        a cancelled long keep-alive timer still occupies a queue slot
        but represents no future work."""
        return self._pending_count() - self._stale_pending

    # -- running ----------------------------------------------------------

    def spawn(self, gen, name: str = "") -> "Process":  # noqa: F821
        """Register a generator as a process starting at the current time."""
        from repro.sim.process import Process

        return Process(self, gen, name=name)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> float:
        """Drain the event queue.

        :param until: stop once simulated time would pass this point; events
            at exactly ``until`` still execute.  Must not lie before
            ``now``: the clock never runs backwards.
        :param max_events: safety valve against runaway protocol loops.
        :param check_deadlock: raise :class:`DeadlockError` if the queue
            drains while processes remain blocked on events.
        :returns: the final simulated time.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"run(until={until}) lies before the current time "
                f"t={self.now}us")
        if not self._drain(until, max_events):
            return self.now  # stopped at `until`
        if check_deadlock and self._blocked_processes > 0:
            raise DeadlockError(
                f"event queue drained at t={self.now:.3f}us with "
                f"{self._blocked_processes} process(es) still blocked"
            )
        return self.now

    def _drain(self, until: Optional[float],
               max_events: Optional[int]) -> bool:
        """The body of :meth:`run`: returns True when the queue is empty,
        False when stopped at ``until``.

        The loop positions on the next live entry — consuming any run of
        tombstones in one bulk skip — then batch-executes every live entry
        sharing that timestamp: the clock store and the ``until`` compare
        happen once per timestamp, and each dispatch re-reads the entry's
        callback slot so a cancel() issued earlier in the batch is still
        honoured (see :class:`TimerHandle`).  Because the skip happens
        before any gate, ``until``/``max_events`` only ever see entries
        that will actually execute.
        """
        check = self.check
        event_cap = float("inf") if max_events is None else max_events
        plain = check is None and max_events is None
        executed = 0
        # ``executed`` is folded into the public counter on every exit
        # path (including callback exceptions) instead of per event
        try:
            while True:
                i = self._cur_idx
                cur = self._cur_list
                if i >= len(cur):
                    if self._advance() is None:
                        return True
                    i = self._cur_idx
                    cur = self._cur_list
                entry = cur[i]
                fn = entry[2]
                if fn is None:
                    # fast-forward: consume the tombstone run in one bulk skip
                    n = len(cur)
                    j = i + 1
                    while j < n and cur[j][2] is None:
                        j += 1
                    self._cur_idx = j
                    self.stale_events_skipped += j - i
                    self._stale_pending -= j - i
                    if check is not None:
                        for k in range(i, j):
                            check.on_stale(cur[k])
                    continue
                when = entry[0]
                if until is not None and when > until:
                    self.now = until
                    return False
                self.now = when
                # Batched same-timestamp dispatch.  Callbacks never consume
                # events (no reentrant run in this codebase), so the
                # cursor needs writing, not re-reading, per dispatch.  The
                # unchecked/uncapped variant drops two per-dispatch
                # branches — this loop body is the per-event floor of the
                # whole simulator.
                if plain:
                    while True:
                        self._cur_idx = i = i + 1
                        executed += 1
                        fn(*entry[3])
                        cur = self._cur_list
                        if i >= len(cur):
                            break
                        entry = cur[i]
                        if entry[0] != when:
                            break
                        fn = entry[2]
                        if fn is None:
                            break
                    continue
                while True:
                    if executed >= event_cap:
                        raise SimTimeoutError(
                            f"exceeded max_events={max_events} "
                            f"at t={self.now:.3f}us"
                        )
                    self._cur_idx = i = i + 1
                    executed += 1
                    if check is not None:
                        check.on_execute(entry)
                    fn(*entry[3])
                    cur = self._cur_list
                    if i >= len(cur):
                        break
                    entry = cur[i]
                    if entry[0] != when:
                        break
                    fn = entry[2]
                    if fn is None:
                        break
        finally:
            self.events_executed += executed

    def run_until_processes_done(
        self, procs, limit: float = 1e12, max_events: Optional[int] = None,
    ) -> float:
        """Run until every process in ``procs`` has finished.

        Convenience for benchmarks: background processes (e.g. adapter
        service loops) may still have pending events when the measured
        programs complete.  ``limit`` bounds *live* simulated work — a
        cancelled timer beyond the limit is discarded, not misreported
        as a timeout.  Same batching as :meth:`_drain`, plus the
        finish-stamp compare before every dispatch: a process finishing
        mid-batch stops the run at exactly that event.
        """
        check = self.check
        event_cap = float("inf") if max_events is None else max_events
        plain = check is None and max_events is None
        executed = 0
        # re-check "all done?" only when a process actually finished —
        # the stamp compare is one int per event instead of a scan
        seen_stamp = -1
        try:
            while True:
                stamp = self._finish_stamp
                if seen_stamp != stamp:
                    seen_stamp = stamp
                    if all(p.finished for p in procs):
                        return self.now
                i = self._cur_idx
                cur = self._cur_list
                if i >= len(cur):
                    if self._advance() is None:
                        break
                    i = self._cur_idx
                    cur = self._cur_list
                entry = cur[i]
                fn = entry[2]
                if fn is None:
                    n = len(cur)
                    j = i + 1
                    while j < n and cur[j][2] is None:
                        j += 1
                    self._cur_idx = j
                    self.stale_events_skipped += j - i
                    self._stale_pending -= j - i
                    if check is not None:
                        for k in range(i, j):
                            check.on_stale(cur[k])
                    continue
                when = entry[0]
                if when > limit:
                    raise SimTimeoutError(
                        f"simulated time limit {limit}us exceeded; "
                        f"{sum(not p.finished for p in procs)} "
                        "process(es) unfinished"
                    )
                self.now = when
                # batched same-timestamp dispatch (cursor discipline and
                # unchecked/uncapped specialization as in :meth:`_drain`)
                if plain:
                    while True:
                        self._cur_idx = i = i + 1
                        executed += 1
                        fn(*entry[3])
                        if stamp != self._finish_stamp:
                            break  # a process finished: re-run the done scan
                        cur = self._cur_list
                        if i >= len(cur):
                            break
                        entry = cur[i]
                        if entry[0] != when:
                            break
                        fn = entry[2]
                        if fn is None:
                            break
                    continue
                while True:
                    if executed >= event_cap:
                        raise SimTimeoutError(
                            f"exceeded max_events={max_events}")
                    self._cur_idx = i = i + 1
                    executed += 1
                    if check is not None:
                        check.on_execute(entry)
                    fn(*entry[3])
                    if stamp != self._finish_stamp:
                        break  # a process finished: re-run the done scan
                    cur = self._cur_list
                    if i >= len(cur):
                        break
                    entry = cur[i]
                    if entry[0] != when:
                        break
                    fn = entry[2]
                    if fn is None:
                        break
        finally:
            self.events_executed += executed
        unfinished = [p for p in procs if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"queue drained at t={self.now:.3f}us; unfinished: "
                + ", ".join(p.name or "<anon>" for p in unfinished)
            )
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(t={self.now:.3f}us, "
            f"queued={self._pending_count()} "
            f"({self.live_pending_count()} live), "
            f"live={self._live_processes}, blocked={self._blocked_processes})"
        )
