"""One trial of a workload: set up, run, verify - with spans around each.

The spans are the benchmark's own calls into each layer (set-up phases,
run, verify), each with a parent id, so a layer's set-up cost and the
run's duration come from one mechanism.  Spans stay in memory and are
written out once, when the benchmark ends.

Durations are process CPU seconds (user + system), which leave out time
the process spent descheduled.  Before each trial the freed heap goes
back to the operating system, so every set-up pays the page faults for
the node memory that a user's fresh process pays; without that, glibc
keeps the previous trial's pages and later set-ups run warm.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import time
import tracemalloc
from typing import Dict, List, Optional

from repro.am import attach_spam
from repro.bench.perf import _FFDigestRecorder as DigestRecorder
from repro.hardware import build_sp_machine
from repro.sim import Simulator

from layers import LayerProfiler


class Spans:
    """In-memory span log: name, layer, parent id, wall-clock start and
    end, and the process CPU seconds the span took."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "workload", **attrs):
        rec = {"id": len(self.records),
               "parent": self._open[-1] if self._open else None,
               "name": name, "layer": layer,
               "start_s": time.perf_counter() - self._t0, "end_s": None,
               "cpu_s": None}
        rec.update(attrs)
        self.records.append(rec)
        self._open.append(rec["id"])
        cpu0 = time.process_time()
        try:
            yield rec
        finally:
            rec["cpu_s"] = time.process_time() - cpu0
            rec["end_s"] = time.perf_counter() - self._t0
            self._open.pop()


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError):  # not glibc
    _malloc_trim = None


def release_freed_memory() -> None:
    """Collect garbage and hand the freed heap back to the OS."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def _sum_stats(components, names) -> int:
    return sum(c.stats.get(n) for c in components for n in names)


def counters(workload, machine) -> Dict[str, float]:
    """The simulated outputs and per-layer counters of a finished trial."""
    sim = machine.sim
    adapters = [n.adapter for n in machine.nodes]
    ams = [n.am for n in machine.nodes]
    tx = _sum_stats(adapters, ("tx_packets",))
    retx = _sum_stats(ams, ("retransmissions",))
    done_at = workload.done_at
    out = {
        "sim_us": sim.now if done_at is None else done_at,
        "events": sim.events_executed,
        "stale": sim.stale_events_skipped,
        "packets": tx,
        "retransmissions": retx,
        "nacks": _sum_stats(ams, ("nacks_sent", "stall_nacks_sent",
                                  "keepalive_nacks_sent",
                                  "rdzv_stall_nacks_sent")),
        "rx_dropped": (_sum_stats(adapters, ("rx_dropped_overflow",
                                             "rx_dropped_corrupt"))
                       + machine.switch.stats.get("packets_dropped_fault")),
        "goodput_ratio": (tx - retx) / tx if tx else 1.0,
    }
    adis = [n.mpi.adi for n in machine.nodes if n.mpi is not None]
    if adis:
        sends = _sum_stats(adis, ("eager_sends", "rendezvous_sends"))
        out["unexpected_share"] = _sum_stats(
            adis, ("eager_unexpected", "rts_unexpected")) / sends
        out["rendezvous_share"] = _sum_stats(
            adis, ("rendezvous_sends",)) / sends
    return out


def run_trial(cls, seed: int, spans: Spans, scale: float = 1.0,
              profiler: Optional[LayerProfiler] = None,
              digest: Optional[DigestRecorder] = None) -> dict:
    """Set up, run and verify one instance of workload ``cls``.

    Returns the span durations, the simulated outputs and counters, and
    ``attempted``/``failed``.  Inputs are generated before set-up starts;
    set-up is building the machine and attaching every stack."""
    wl = cls(seed, scale)
    release_freed_memory()
    with spans.span("trial", workload=cls.name, seed=seed) as rec:
        with spans.span("setup"):
            sim = Simulator()
            if digest is not None:
                sim.check = digest
            with spans.span("build_sp_machine", layer="hardware"):
                machine = build_sp_machine(sim, wl.nodes)
            with spans.span("attach_spam", layer="am"):
                attach_spam(machine)
            wl.attach(machine, spans)
            procs = wl.spawn(sim, machine)
        with spans.span("run"):
            if profiler is None:
                sim.run_until_processes_done(procs)
            else:
                profiler.run(sim.run_until_processes_done, procs)
        with spans.span("verify"):
            attempted, failed = wl.verify()
            out = counters(wl, machine)
    phase = {r["name"]: r["cpu_s"] for r in spans.records[rec["id"]:]}
    out.update(
        setup_s=phase["setup"], run_s=phase["run"],
        build_s=phase["build_sp_machine"], am_attach_s=phase["attach_spam"],
        mpi_attach_s=phase.get("attach_mpi", 0.0),
        msgs=wl.msgs, attempted=attempted, failed=failed,
    )
    if digest is not None:
        out["digest"] = digest.hexdigest()
    return out


def build_bytes_per_node(cls, seed: int, scale: float = 1.0) -> float:
    """Bytes that ``build_sp_machine`` allocates per node, by tracemalloc."""
    wl = cls(seed, scale)
    release_freed_memory()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = build_sp_machine(Simulator(), wl.nodes)
        used = tracemalloc.get_traced_memory()[0] - before
        del machine  # alive until measured
    finally:
        tracemalloc.stop()
    return used / wl.nodes

