"""Coroutine processes: node software running on simulated time.

A *process* wraps a generator.  The generator yields instructions
(:class:`~repro.sim.primitives.Delay`, ``WaitEvent``, ``Timeout``) and the
process object drives it from engine callbacks.  Sub-procedures compose
with ``yield from``, so protocol layers stack naturally::

    def app(node):
        yield Delay(2.0)                      # compute for 2 us
        value = yield from node.am.request_1(dst, h, 42)   # AM call
        ...

When the generator returns, the process's :attr:`done` event fires with the
return value (``StopIteration.value``).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.errors import ProcessKilled, SimulationError
from repro.sim.primitives import TIMED_OUT, Delay, Event, Timeout, WaitEvent


class Process:
    """A generator registered with a :class:`~repro.sim.engine.Simulator`."""

    __slots__ = ("sim", "gen", "name", "done", "finished", "result", "error",
                 "_waiting", "_send", "_resume", "_schedule")

    def __init__(self, sim, gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done: Event = sim.event(name=f"{name}.done")
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiting = False
        # bound once: _step runs per event, and every schedule/add_waiter
        # callback would otherwise rebuild the bound method
        self._send = gen.send
        self._resume = self._step
        self._schedule = sim.schedule
        sim._process_started()
        # First step at the current instant, after already-queued events.
        sim.schedule(0.0, self._resume)

    # -- engine-facing ----------------------------------------------------

    def _step(self, send_value: Any = None) -> None:
        if self.finished:
            return  # stale wakeup after kill()
        if self._waiting:
            self._waiting = False
            self.sim._process_unblocked()
        try:
            instr = self._send(send_value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as exc:  # propagate with context, fail loudly
            self._finish(None, exc)
            raise
        # dispatch, most frequent instruction first
        cls = instr.__class__
        if cls is Delay:
            # no args: a plain-Delay resume sends None, and skipping the
            # (None,) pack/unpack matters at one resume per event
            self._schedule(instr.duration, self._resume)
        elif cls is WaitEvent:
            self._waiting = True
            self.sim._process_blocked()
            instr.event.add_waiter(self._resume)
        elif cls is Timeout:
            self._wait_with_timeout(instr)
        else:
            self._dispatch_slow(instr)

    def _dispatch_slow(self, instr: Any) -> None:
        # duck-typed instruction objects (tests/extensions) still work
        if isinstance(instr, Delay):
            self.sim.schedule(instr.duration, self._resume, None)
        elif isinstance(instr, WaitEvent):
            self._waiting = True
            self.sim._process_blocked()
            instr.event.add_waiter(self._resume)
        elif isinstance(instr, Timeout):
            self._wait_with_timeout(instr)
        else:
            exc = SimulationError(
                f"process {self.name!r} yielded {instr!r}; expected "
                "Delay, WaitEvent, or Timeout"
            )
            self.gen.throw(exc)

    def _wait_with_timeout(self, instr: Timeout) -> None:
        self._waiting = True
        self.sim._process_blocked()
        fired = [False]
        handle: list = [None]

        def resume(value: Any) -> None:
            if fired[0]:
                return
            fired[0] = True
            if value is not TIMED_OUT:
                # event won the race: the timer must never fire
                handle[0].cancel()
            self._step(value)

        instr.event.add_waiter(resume)
        handle[0] = self.sim.call_later(instr.duration, resume, TIMED_OUT)

    def kill(self) -> None:
        """Terminate the process: ``ProcessKilled`` is raised inside the
        generator (cleanup ``finally`` blocks run); a process may also
        catch it to shut down gracefully.  No-op if already finished."""
        if self.finished:
            return
        if self._waiting:
            self._waiting = False
            self.sim._process_unblocked()
        try:
            self.gen.throw(ProcessKilled(f"process {self.name!r} killed"))
        except (ProcessKilled, StopIteration):
            pass
        finally:
            if not self.finished:
                self._finish(None, None)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.finished = True
        self.result = result
        self.error = error
        self.sim._process_finished()
        if error is None:
            self.done.succeed(result)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else ("blocked" if self._waiting else "ready")
        return f"Process({self.name!r}, {state})"
