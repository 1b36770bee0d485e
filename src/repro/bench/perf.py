"""Simulator-core performance suite (``spam-bench perf``).

The paper's creed — per-message *software* overhead is the limit (§3) —
applies to the simulator itself: every reproduced experiment is bounded
by how many events per second the core can retire.  This suite times
that number over the protocol workloads that dominate real runs:

* ``pingpong`` — 100k one-word AM round trips (the §2.3 latency path),
* ``bulk`` — multi-chunk ``store``/``get`` rounds (the §2.1 bulk path),
* ``alltoall`` — 16 ranks of converging ``store_async`` traffic (the
  §4.4 congestion case),
* ``soak`` — the chaos campaign at 1% loss (timers, retransmissions,
  NACK recovery — the go-back-N machinery of §2.2).

Events/sec is reported *adjusted*: ``(events_executed +
stale_events_skipped) / wall``, so cancelled timer wakeups the engine
discards on pop still count as queue work retired.  The timings are
informational: they are best-of-N walls on whatever box ran them.  The
repo's wall-time and per-layer host-cost benchmark is ``hostbench/``.

The ``determinism`` section is the contract.  Reduced copies of the four
workloads run with an event-order digest recorder on the engine's check
hooks; each records the digest of every executed event's ``(time, seq,
callback)``, the final simulated clock, and the executed-event count.
``--check`` compares those values *exactly* against a committed
``BENCH_simperf.json``: they are golden constants, so any change to the
order in which the engine or the protocol stack retires events fails
the gate until the file is re-baselined on purpose.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from typing import Callable, Dict, List, Optional

from repro.sim import Simulator

#: full-size workloads (the committed-report configuration)
FULL_SIZES: Dict[str, tuple] = {
    "pingpong": (100_000,),
    "bulk": (262_144, 4),
    "alltoall": (16, 16_384, 2),
    "soak": (60,),
}

#: reduced sizes for CI smoke runs (``--quick``)
QUICK_SIZES: Dict[str, tuple] = {
    "pingpong": (1_000,),
    "bulk": (65_536, 1),
    "alltoall": (8, 4_096, 1),
    "soak": (12,),
}

#: sizes for the determinism section; the same in quick and full runs,
#: so a quick run gates against a full-size committed report
DIGEST_SIZES: Dict[str, tuple] = {
    "pingpong": (2_000,),
    "bulk": (65_536, 2),
    "alltoall": (8, 4_096, 1),
    "soak": (20,),
}

#: every workload, in report order
WORKLOADS = ("pingpong", "bulk", "alltoall", "soak")

#: the determinism fields ``--check`` compares exactly
DIGEST_FIELDS = ("digest", "sim_us", "events")


# ---------------------------------------------------------------------------
# workload builders: populate ``sim`` and return the processes to wait on
# ---------------------------------------------------------------------------

def _build_pingpong(sim: Simulator, iterations: int,
                    xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, 2, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    am0 = machine.node(0).am
    am1 = machine.node(1).am
    got = [0]      # replies landed on node 0
    served = [0]   # requests served on node 1

    def reply_handler(token, x):
        got[0] += 1

    def request_handler(token, x):
        served[0] += 1
        yield from token.reply_1(reply_handler, x)

    am0.register(reply_handler)
    am0.register(request_handler)

    def pinger():
        for i in range(iterations):
            before = got[0]
            yield from am0.request_1(1, request_handler, i & 0xFFFF)
            while got[0] == before:
                yield from am0._wait_progress()

    def ponger():
        while served[0] < iterations:
            yield from am1._wait_progress()

    p = sim.spawn(pinger(), name="perf-ping")
    sim.spawn(ponger(), name="perf-pong")
    return [p]


def _build_bulk(sim: Simulator, nbytes: int, rounds: int,
                xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, 2, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    am0 = machine.node(0).am
    am1 = machine.node(1).am
    src = machine.node(0).memory.alloc(nbytes)
    dst = machine.node(1).memory.alloc(nbytes)
    back = machine.node(0).memory.alloc(nbytes)
    machine.node(0).memory.write(src, bytes(i % 251 for i in range(nbytes)))
    done = [False]  # set on node 1 by the done-marker handler below

    def h_bulk_done(token, x):
        done[0] = True

    am0.register(h_bulk_done)

    def mover():
        for _ in range(rounds):
            yield from am0.store(1, src, dst, nbytes)
            yield from am0.get(1, dst, back, nbytes)
        # tell the server it can stop
        yield from am0.request_1(1, h_bulk_done, 0)

    def server():
        while not done[0]:
            yield from am1._wait_progress()

    p = sim.spawn(mover(), name="perf-bulk")
    sim.spawn(server(), name="perf-bulk-server")
    return [p]


def _build_alltoall(sim: Simulator, nodes: int, nbytes: int,
                    rounds: int, xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, nodes, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    ams = [machine.node(i).am for i in range(nodes)]
    srcs = [machine.node(i).memory.alloc(nbytes) for i in range(nodes)]
    dsts = [[machine.node(i).memory.alloc(nbytes) for _ in range(nodes)]
            for i in range(nodes)]
    #: per-node set of peers that announced completion
    done_from = [set() for _ in range(nodes)]

    def h_a2a_done(token, src):
        done_from[token.am.node.id].add(src)

    ams[0].register(h_a2a_done)

    def rank(r):
        am = ams[r]
        for _ in range(rounds):
            ops = []
            for off in range(1, nodes):
                peer = (r + off) % nodes
                op = yield from am.store_async(
                    peer, srcs[r], dsts[peer][r], nbytes)
                ops.append(op)
            for op in ops:
                yield from am.wait_op(op)
        # done broadcast: my stores are acked (wait_op above), so the
        # marker can only arrive after them; serve the network until
        # every peer's marker has landed here
        for off in range(1, nodes):
            yield from am.request_1((r + off) % nodes, h_a2a_done, r)
        while len(done_from[r]) < nodes - 1:
            yield from am._wait_progress()

    return [sim.spawn(rank(r), name=f"a2a{r}") for r in range(nodes)]


_BUILDERS: Dict[str, Callable] = {
    "pingpong": _build_pingpong,
    "bulk": _build_bulk,
    "alltoall": _build_alltoall,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _adjusted_eps(sim: Simulator, wall: float) -> float:
    # stale (cancelled-then-skipped) entries are queue work the engine
    # retired without executing
    return (sim.events_executed + sim.stale_events_skipped) / wall


def _record(sim: Simulator, sizes: tuple, wall: float,
            sim_us: float) -> Dict:
    return {
        "sizes": list(sizes),
        "events": sim.events_executed,
        "stale_skipped": sim.stale_events_skipped,
        "wall_s": round(wall, 4),
        "eps": round(sim.events_executed / wall, 1),
        "adj_eps": round(_adjusted_eps(sim, wall), 1),
        "sim_us": round(sim_us, 3),
    }


def _timed_run(name: str, sizes: tuple, repeat: int,
               xfer_mode: str = "eager") -> Dict:
    """Best-of-``repeat`` wall time for one workload."""
    build = _BUILDERS[name]
    best: Optional[Dict] = None
    for _ in range(repeat):
        sim = Simulator()
        procs = build(sim, *sizes, xfer_mode=xfer_mode)
        t0 = time.perf_counter()
        sim.run_until_processes_done(procs, limit=1e12)
        rec = _record(sim, sizes, time.perf_counter() - t0, sim.now)
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


def _soak(pingpong: int, xfer_mode: str, sim_check=None):
    """One 1%-loss soak campaign (lossy run only); fails loudly on any
    reliability violation."""
    from repro.faults import run_soak

    res = run_soak(seed=11, loss=0.01, nodes=3, pingpong=pingpong,
                   compare_clean=False, sim_check=sim_check,
                   xfer_mode=xfer_mode)
    if res.violations:
        raise RuntimeError(
            f"soak workload violated reliability invariants: "
            f"{res.violations}")
    return res


def _timed_soak(pingpong: int, repeat: int,
                xfer_mode: str = "eager") -> Dict:
    best: Optional[Dict] = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = _soak(pingpong, xfer_mode)
        wall = time.perf_counter() - t0
        rec = _record(res.obs.machine.sim, (pingpong,), wall,
                      res.elapsed_us)
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


# ---------------------------------------------------------------------------
# determinism: event-order digests, gated exactly against the committed file
# ---------------------------------------------------------------------------

_DIGEST_PACK = struct.Struct("<dq").pack


class _FFDigestRecorder:
    """Event-order digest collected through the engine's check hooks.

    The engine's run loops call ``on_execute`` / ``on_stale`` /
    ``on_cancel`` on whatever object sits on ``sim.check``, so the digest
    covers exactly what the full-speed path retired, in order: every
    executed event's ``(when, seq, callback qualname)``.
    """

    __slots__ = ("_update", "_hexdigest", "stale", "cancels")

    def __init__(self):
        h = hashlib.blake2b(digest_size=16)
        self._update = h.update
        self._hexdigest = h.hexdigest
        self.stale = 0
        self.cancels = 0

    def on_execute(self, entry) -> None:
        if entry[1] < 0:
            # the unsequenced observer lane (metrics-sampler ticks) is
            # digest-neutral by contract: its presence must not change
            # any ordinary event's (when, seq) identity, so it is not
            # part of the order being proven either
            return
        fn = entry[2]
        self._update(_DIGEST_PACK(entry[0], entry[1]))
        self._update(getattr(fn, "__qualname__", type(fn).__name__).encode())

    def on_stale(self, entry) -> None:
        self.stale += 1

    def on_cancel(self, entry) -> None:
        self.cancels += 1

    def hexdigest(self) -> str:
        return self._hexdigest()


def _recorded_run(name: str, sizes: tuple, xfer_mode: str = "eager") -> Dict:
    """One workload run with a digest recorder attached."""
    rec = _FFDigestRecorder()
    if name == "soak":
        sim = _soak(sizes[0], xfer_mode, sim_check=rec).obs.machine.sim
    else:
        sim = Simulator()
        procs = _BUILDERS[name](sim, *sizes, xfer_mode=xfer_mode)
        sim.check = rec
        sim.run_until_processes_done(procs, limit=1e12)
    return {
        "digest": rec.hexdigest(),
        "sim_us": sim.now,
        "events": sim.events_executed,
    }


def run_determinism(sizes: Optional[Dict[str, tuple]] = None,
                    xfer_mode: str = "eager") -> Dict:
    """``{workload: {digest, sim_us, events}}`` for every workload named
    in ``sizes`` (default :data:`DIGEST_SIZES`)."""
    sizes = sizes or DIGEST_SIZES
    return {name: _recorded_run(name, sizes[name], xfer_mode)
            for name in WORKLOADS if name in sizes}


# ---------------------------------------------------------------------------
# critical-path attribution (embedded in the perf report)
# ---------------------------------------------------------------------------

def _attribution_section(iterations: int) -> Dict:
    """A small *observed* AM ping-pong whose critical-path rollup the
    perf report embeds.  Runs on its own simulator so the timed
    workloads above stay unobserved — their walls measure the engine,
    not the tracing."""
    from repro.bench.pingpong import am_roundtrip_observed
    from repro.obs.critpath import (
        attribution_coverage,
        bottleneck_verdict,
        critpath_rollup,
    )

    mean, obs = am_roundtrip_observed(1, iterations)
    rollup = critpath_rollup(obs)
    return {
        "iterations": iterations,
        "mean_rtt_us": mean,
        "coverage": attribution_coverage(obs, mean),
        "rollup_all": rollup.get("ALL", {}),
        "verdict": bottleneck_verdict(rollup),
    }


# ---------------------------------------------------------------------------
# suite driver + regression gate
# ---------------------------------------------------------------------------

def run_perf(
    quick: bool = False,
    repeat: Optional[int] = None,
    sizes: Optional[Dict[str, tuple]] = None,
    digest_sizes: Optional[Dict[str, tuple]] = None,
    xfer_mode: str = "eager",
) -> Dict:
    """Run the whole suite; returns the report ``extra`` payload.

    ``sizes``/``digest_sizes`` override the built-in workload sizes
    (tests use tiny ones).  ``repeat`` defaults to 3 in quick mode and 1
    on the full sizes.  The soak workload always gets at least best-of-5:
    its full-size wall is tens of milliseconds, short enough that single
    draws scatter by double-digit percentages on a noisy box.
    ``xfer_mode`` selects the AM large-message strategy throughout.
    """
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    if repeat is None:
        repeat = 3 if quick else 1
    # soak first: its short wall is the suite's most noise-sensitive
    # measurement, so take its draws before the box's background load
    # has had a minute of pingpong to drift
    workloads: Dict[str, Dict] = {
        "soak": _timed_soak(sizes["soak"][0], max(repeat, 5),
                            xfer_mode=xfer_mode),
    }
    for name in ("pingpong", "bulk", "alltoall"):
        workloads[name] = _timed_run(name, sizes[name], repeat,
                                     xfer_mode=xfer_mode)
    return {
        "quick": quick,
        "repeat": repeat,
        "xfer_mode": xfer_mode,
        "cpus": os.cpu_count(),
        "workloads": workloads,
        "determinism": run_determinism(digest_sizes, xfer_mode),
        "attribution": _attribution_section(50 if quick else 200),
    }


def report_entries(data: Dict) -> List[tuple]:
    """``(name, paper, measured)`` rows for :func:`make_report`."""
    entries = [(f"{name} events/sec (adjusted)", None, w["adj_eps"])
               for name, w in data["workloads"].items()]
    att = data.get("attribution")
    if att is not None:
        entries.append(("pingpong attribution coverage", 1.0,
                        att["coverage"]["coverage"]))
    return entries


def check_regression(current: Dict, committed: Dict) -> List[str]:
    """The golden-digest gate: every workload in the committed report's
    ``determinism`` section must reproduce its digest, final simulated
    clock and executed-event count *exactly*.  Wall times never enter
    the comparison, so the gate is independent of the box's speed."""
    problems: List[str] = []
    if current.get("xfer_mode") != committed.get("xfer_mode"):
        problems.append(
            f"xfer_mode {current.get('xfer_mode')!r} differs from the "
            f"committed report's {committed.get('xfer_mode')!r}; the "
            f"digests are only comparable in the same mode")
        return problems
    ref = committed.get("determinism", {})
    cur = current.get("determinism", {})
    if not ref:
        problems.append("committed report has no determinism section")
    for name, want in ref.items():
        got = cur.get(name)
        if got is None:
            problems.append(f"{name}: no determinism record in this run")
            continue
        for key in DIGEST_FIELDS:
            if got.get(key) != want.get(key):
                problems.append(
                    f"{name}: {key} {got.get(key)!r} != committed "
                    f"{want.get(key)!r} — the event order changed")
    return problems
