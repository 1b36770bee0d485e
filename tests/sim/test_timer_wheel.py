"""Differential + cancellation tests for the timing-wheel event core.

The timing wheel and its fast drain are pure optimization: the engine
must execute exactly the events the binary-heap reference scheduler
(``tests/sim/reference.py``) executes, at the same simulated times, in
the same order — including under cancellation and with events landing
on, inside, and far beyond the active window.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, engine
from repro.sim.engine import (
    NEGATIVE_DELAY_EPSILON,
    WHEEL_WINDOW_US,
    TimerHandle,
)
from repro.sim.errors import DeadlockError
from repro.sim.primitives import TIMED_OUT, Delay, Timeout
from tests.sim.reference import ReferenceSimulator

#: the engine under test and its reference, by the scheduler they run
ENGINES = {"wheel": Simulator, "heap": ReferenceSimulator}


# ---------------------------------------------------------------------------
# differential property: wheel == heap over randomized schedule/cancel
# ---------------------------------------------------------------------------

# delays straddle the 128 us window: sub-window, exactly on the boundary,
# just past it, several windows out, and far beyond
_W = WHEEL_WINDOW_US
_DELAY_MENU = (0.0, 0.13, 1.0, 7.5, _W - 0.1, _W, _W + 0.1, 3.5 * _W,
               40 * _W)


class _TurnoverProbe:
    """Counts the wheel's window turnovers and far-heap pushes, so the
    differential tests can assert they exercised both."""

    def __init__(self, monkeypatch):
        self.turnovers = 0
        self.far_pushes = 0
        advance = Simulator._advance
        schedule = Simulator.schedule

        def counting_advance(sim):
            before = sim._cur_list
            entry = advance(sim)
            if sim._cur_list is not before:
                self.turnovers += 1
            return entry

        def counting_schedule(sim, delay, fn, *args):
            far = len(sim._far)
            entry = schedule(sim, delay, fn, *args)
            self.far_pushes += len(sim._far) > far
            return entry

        monkeypatch.setattr(Simulator, "_advance", counting_advance)
        monkeypatch.setattr(Simulator, "schedule", counting_schedule)


def _run_random_workload(engine_cls, seed, spawn_cap=2_000):
    """Self-similar random workload: callbacks schedule more callbacks
    and randomly cancel pending timers.  Decisions are drawn from a
    seeded RNG in execution order, so two schedulers draw identical
    decisions iff they execute identical event orders — any divergence
    snowballs into a log mismatch."""
    sim = engine_cls()
    rng = random.Random(seed)
    log = []
    handles = []
    next_tag = [0]

    def cb(tag):
        log.append((sim.now, tag))
        if next_tag[0] < spawn_cap:
            for _ in range(rng.randrange(3)):
                next_tag[0] += 1
                delay = rng.choice(_DELAY_MENU) + rng.random() * 3.0
                if rng.random() < 0.3:
                    handles.append(sim.call_later(delay, cb, next_tag[0]))
                else:
                    sim.schedule(delay, cb, next_tag[0])
        if handles and rng.random() < 0.25:
            handles.pop(rng.randrange(len(handles))).cancel()

    for _ in range(20):
        next_tag[0] += 1
        sim.schedule(rng.choice(_DELAY_MENU), cb, next_tag[0])
    sim.run()
    return sim, log


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
def test_wheel_matches_heap_on_random_schedule_cancel(seed, monkeypatch):
    heap_sim, heap_log = _run_random_workload(ReferenceSimulator, seed)
    probe = _TurnoverProbe(monkeypatch)
    wheel_sim, wheel_log = _run_random_workload(Simulator, seed)
    assert wheel_log == heap_log
    assert wheel_sim.now == heap_sim.now
    assert wheel_sim.events_executed == heap_sim.events_executed
    assert wheel_sim.stale_events_skipped == heap_sim.stale_events_skipped
    # the workload crossed many windows and parked timers in the far heap
    assert probe.turnovers > 10
    assert probe.far_pushes > 30


@pytest.mark.parametrize("window_us", [0.5, 1.0, 16.0, 64.0, 1e9])
def test_wheel_window_width_is_not_a_correctness_knob(window_us,
                                                      monkeypatch):
    # any window width must give the heap's exact execution order
    _, heap_log = _run_random_workload(ReferenceSimulator, 99)
    monkeypatch.setattr(engine, "WHEEL_WINDOW_US", window_us)
    _, wheel_log = _run_random_workload(Simulator, 99)
    assert wheel_log == heap_log


def test_same_time_events_run_in_insertion_order_across_window_refills():
    # events at one instant, scheduled before and after a window turn,
    # must still run in global insertion order
    sim = Simulator()
    log = []
    sim.schedule(5 * _W, log.append, "first")
    sim.schedule(5 * _W, log.append, "second")
    sim.schedule(2 * _W, lambda: sim.schedule(3 * _W, log.append, "third"))
    sim.run()
    assert log == ["first", "second", "third"]
    assert sim.now == 5 * _W


# ---------------------------------------------------------------------------
# idle fast-forward: pure optimization, must be behaviour-invisible
# ---------------------------------------------------------------------------

def _run_random_timeout_workload(engine_cls, seed):
    """Processes racing events against timeouts.  Every event win leaves a
    cancelled timer tombstone in the queue, and every gap between firings
    is an idle stretch the fast-forward path may jump — exactly the state
    it must cross without executing, reordering, or dropping anything."""
    sim = engine_cls()
    rng = random.Random(seed)
    log = []

    def waiter(i):
        ev = sim.event(f"ev{i}")
        fire_at = rng.random() * 4 * _W
        timeout = 1e-9 + rng.random() * 4 * _W
        if rng.random() < 0.6:
            sim.schedule(fire_at, ev.succeed, i)
        value = yield Timeout(ev, timeout)
        log.append((sim.now, i, value is TIMED_OUT))
        # long tail delays leave genuinely idle gaps between survivors
        yield Delay(rng.choice((0.0, 3.0, 6 * _W, 100 * _W)))
        log.append((sim.now, i, "done"))

    procs = [sim.spawn(waiter(i), name=f"w{i}") for i in range(25)]
    sim.run_until_processes_done(procs, limit=1e9)
    return sim, log


def _assert_runs_identical(a, b):
    sim_a, log_a = a
    sim_b, log_b = b
    assert log_a == log_b
    assert sim_a.now == sim_b.now
    assert sim_a.events_executed == sim_b.events_executed
    assert sim_a.stale_events_skipped == sim_b.stale_events_skipped


class TestIdleFastForwardEquivalence:
    """Property: the engine's fast drain (bulk tombstone skip, batched
    same-timestamp dispatch) is observation-identical to the
    one-event-at-a-time reference — same execution log (the event-order
    digest of these workloads), same final clock, same executed/stale
    counts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_schedule_cancel(self, seed):
        _assert_runs_identical(
            _run_random_workload(Simulator, seed, spawn_cap=400),
            _run_random_workload(ReferenceSimulator, seed, spawn_cap=400))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_timeout_races(self, seed):
        _assert_runs_identical(
            _run_random_timeout_workload(Simulator, seed),
            _run_random_timeout_workload(ReferenceSimulator, seed))


def test_live_pending_count_excludes_tombstones():
    sim = Simulator()
    handles = [sim.call_later(1_000.0 * (i + 1), lambda: None)
               for i in range(5)]
    sim.schedule(10.0, lambda: None)
    assert sim.live_pending_count() == 6
    for h in handles[1:]:
        h.cancel()
    assert sim.live_pending_count() == 2
    sim.run()
    assert sim.live_pending_count() == 0
    assert sim.stale_events_skipped == 4


# ---------------------------------------------------------------------------
# cancel racing a same-timestamp batch (regression: the batched dispatch
# loops must re-read the callback slot, not capture it at batch start)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
class TestSameInstantCancelRace:
    def test_cancel_of_later_same_instant_entry_never_fires(self, scheduler):
        # the canceller executes at (T, seq_a); the victim timer sits at
        # (T, seq_b > seq_a) in the same dispatch batch
        sim = ENGINES[scheduler]()
        fired = []
        h = []
        sim.schedule(5.0, lambda: h[0].cancel())
        h.append(sim.call_later(5.0, fired.append, "boom"))
        sim.run()
        assert fired == []
        assert sim.events_executed == 1
        assert sim.stale_events_skipped == 1

    def test_cancel_then_reschedule_same_instant_fires_once(self, scheduler):
        sim = ENGINES[scheduler]()
        fired = []
        h = []

        def flip():
            h[0].cancel()
            h[0] = sim.call_later(0.0, fired.append, "new")

        sim.schedule(5.0, flip)
        h.append(sim.call_later(5.0, fired.append, "old"))
        sim.run()
        assert fired == ["new"]
        assert sim.stale_events_skipped == 1

    def test_stale_generation_fire_fails_loudly(self, scheduler):
        sim = ENGINES[scheduler]()
        h = sim.call_later(1.0, lambda: None)
        stale_gen = h.gen
        h.cancel()
        with pytest.raises(RuntimeError):
            h._fire(stale_gen, lambda: None, ())


# ---------------------------------------------------------------------------
# cancellable timers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
class TestTimerCancellation:
    def test_cancelled_timer_never_fires_and_is_not_counted(self, scheduler):
        sim = ENGINES[scheduler]()
        fired = []
        h = sim.call_later(10.0, fired.append, "boom")
        sim.schedule(20.0, lambda: None)  # keep the queue non-empty past 10
        assert h.active
        assert h.cancel()
        assert not h.active
        assert not h.cancel()  # second cancel is a no-op
        sim.run()
        assert fired == []
        # the tombstone was skipped, not executed: only the keep-alive
        # event counts, and the skip is visible in its own counter
        assert sim.events_executed == 1
        assert sim.stale_events_skipped == 1

    def test_cancel_after_fire_is_a_noop(self, scheduler):
        sim = ENGINES[scheduler]()
        fired = []
        h = sim.call_later(5.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert not h.active
        assert not h.cancel()

    def test_generation_bumps_on_cancel_and_fire(self, scheduler):
        sim = ENGINES[scheduler]()
        h1 = sim.call_later(1.0, lambda: None)
        g0 = h1.gen
        h1.cancel()
        assert h1.gen == g0 + 1
        h2 = sim.call_later(1.0, lambda: None)
        g1 = h2.gen
        sim.run()
        assert h2.gen == g1 + 1

    def test_stale_timeout_wakeup_never_fires(self, scheduler):
        # A process blocks on Timeout(event, duration); the event wins the
        # race.  The loser timer must be discarded as a tombstone — it may
        # not re-resume the process, and it may not count as an event.
        sim = ENGINES[scheduler]()
        ev = sim.event("ack")
        outcomes = []

        def waiter():
            value = yield Timeout(ev, 1_000.0)
            outcomes.append(value)
            # keep living past the stale timer's deadline: a buggy wakeup
            # would resume the generator here and append a second outcome
            yield Delay(2_000.0)

        sim.spawn(waiter(), name="waiter")
        sim.schedule(5.0, ev.succeed, "acked")
        sim.run()
        assert outcomes == ["acked"]
        assert sim.stale_events_skipped == 1
        assert sim.now == 2_005.0

    def test_timeout_path_still_fires_without_event(self, scheduler):
        sim = ENGINES[scheduler]()
        ev = sim.event("never")
        outcomes = []

        def waiter():
            value = yield Timeout(ev, 50.0)
            outcomes.append(value is TIMED_OUT)

        sim.spawn(waiter(), name="waiter")
        sim.run()
        assert outcomes == [True]
        assert sim.now == 50.0


def test_timer_handle_is_opaque_but_reprs():
    sim = Simulator()
    h = sim.call_later(1.0, lambda: None)
    assert isinstance(h, TimerHandle)
    assert "active" in repr(h)
    h.cancel()
    assert "idle" in repr(h)


# ---------------------------------------------------------------------------
# negative-delay epsilon clamp (float-error regression)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
class TestNegativeDelayClamp:
    def test_epsilon_negative_delay_clamps_to_now(self, scheduler):
        # Switch.inject's per-hop float sums can land an epsilon behind
        # sim.now; that must schedule "immediately", not raise
        sim = ENGINES[scheduler]()
        fired = []
        sim.schedule(-1e-10, fired.append, "ok")
        sim.run()
        assert fired == ["ok"]
        assert sim.now == 0.0

    def test_at_epsilon_in_the_past_clamps(self, scheduler):
        sim = ENGINES[scheduler]()
        fired = []

        def late():
            # an absolute timestamp an epsilon before the current instant
            sim.at(sim.now - 1e-12, fired.append, "ok")

        sim.schedule(5.0, late)
        sim.run()
        assert fired == ["ok"]
        assert sim.now == 5.0

    def test_real_past_scheduling_still_raises(self, scheduler):
        sim = ENGINES[scheduler]()
        with pytest.raises(ValueError):
            sim.schedule(-1e-6, lambda: None)
        with pytest.raises(ValueError):
            sim.at(-1.0, lambda: None)
        assert -1e-6 < -NEGATIVE_DELAY_EPSILON  # the clamp is truly tiny


# ---------------------------------------------------------------------------
# engine contract smoke (wheel scheduler)
# ---------------------------------------------------------------------------

def test_wheel_deadlock_detection_still_works():
    from repro.sim.primitives import WaitEvent

    sim = Simulator()

    def blocked():
        yield WaitEvent(sim.event("forever"))

    sim.spawn(blocked(), name="blocked")
    with pytest.raises(DeadlockError):
        sim.run()
