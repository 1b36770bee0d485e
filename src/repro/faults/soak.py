"""The chaos soak harness: a full AM workload under injected faults.

``run_soak`` builds a fresh SP machine, attaches the observability hub,
SP AM, and the Split-C runtime, installs a :class:`FaultPlan`, and drives
three workload phases on every node:

1. **ping-pong** — sequenced request/reply traffic (every message number
   is recorded on both sides, so exactly-once in-order delivery is
   checked literally, not statistically);
2. **bulk transfer** — a blocking ``am_store`` spanning multiple chunks
   plus a partial tail, read back with ``am_get`` and compared
   byte-for-byte;
3. **Split-C** — barrier, allreduce, and a split-phase ``put_bulk`` +
   ``sync``, exercising the runtime's handler traffic under loss.

After the phases, every rank serves the network until the whole machine
quiesces: all send windows drained, no partial chunk assemblies, no
deferred replies, nothing host-visible left unread.  The run then
reconciles three ledgers against each other:

* the workload's own records (delivery order, memory contents),
* the protocol state machines (window invariants fail loudly via
  :class:`~repro.am.window.MidChunkAckError` and friends),
* the fault ledgers: every fault the injector fired must appear in the
  observability hub's fault-event log with the victim's trace_id, and
  every lossy kind must have a matching ``packet_dropped`` event.

Recovery time is bounded by running the identical workload once with no
faults installed and requiring the lossy run to finish within a fixed
multiple of the clean run plus a per-fault allowance.

Everything — the simulator, the workload, and the injector — is
deterministic, so a failing ``(seed, loss)`` pair is a reproducer, not a
flake.  ``spam-bench soak`` and ``tests/integration/test_chaos_soak.py``
are thin wrappers over :func:`run_soak`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.faults.injector import InjectedFault, install_faults
from repro.faults.plan import FaultPlan
from repro.hardware.machine import build_sp_machine
from repro.obs.core import Observatory
from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import attach_splitc

#: fault kinds that destroy the packet and must therefore also show up
#: as a ``packet_dropped`` observability event
_LOSSY_KINDS = frozenset({"drop", "corrupt", "rx_overflow"})

#: Split-C put_bulk payload in phase 3 (small on purpose: the phase
#: exercises handler traffic, not bandwidth)
_SPLITC_BYTES = 1024


# ---------------------------------------------------------------------------
# workload handlers (one shared HandlerTable per machine keeps ids aligned)
# ---------------------------------------------------------------------------

def _h_ping(token, src, i):
    node = token.am.node
    node.soak_pings.setdefault(src, []).append(i)
    yield from token.reply_2(_h_pong, node.id, i)


def _h_pong(token, src, i):
    token.am.node.soak_pongs.setdefault(src, []).append(i)


@lru_cache(maxsize=64)
def _pattern_period(rank: int) -> bytes:
    # (17*rank + 3*j + 7) % 251 depends only on j % 251 (gcd(3, 251) = 1),
    # so one 251-byte period per rank covers any length by repetition
    return bytes((17 * rank + 3 * j + 7) % 251 for j in range(251))


def _pattern(rank: int, nbytes: int) -> bytes:
    """Deterministic per-rank payload (verifiable byte-for-byte)."""
    return (_pattern_period(rank) * (nbytes // 251 + 1))[:nbytes]


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

@dataclass
class SoakResult:
    """Everything one soak campaign produced."""

    seed: int
    loss: float
    nodes: int
    chaos: bool
    #: AM large-message strategy the workload's bulk phase used
    xfer_mode: str
    pingpong: int
    bulk_bytes: int
    #: simulated microseconds the lossy run took
    elapsed_us: float
    #: the identical workload with no faults installed (None if skipped)
    clean_elapsed_us: Optional[float]
    #: elapsed_us must stay below this (None when no clean run)
    recovery_bound_us: Optional[float]
    #: the injector's ledger, in firing order
    injected: List[InjectedFault]
    #: injections per fault kind
    injected_counts: Dict[str, int]
    #: every broken promise, human-readable; empty means the run passed
    violations: List[str]
    #: merged counter snapshot of the lossy run
    counters: Dict[str, float]
    #: the lossy run's observability hub (for trace/report export)
    obs: Observatory = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_injected(self) -> int:
        return len(self.injected)

    def summary_lines(self) -> List[str]:
        """The ``spam-bench soak`` console summary."""
        c = self.counters
        lines = [
            f"soak seed={self.seed} loss={self.loss} nodes={self.nodes}"
            f" chaos={self.chaos} mode={self.xfer_mode}",
            f"  workload: {self.pingpong} ping-pongs/rank,"
            f" {self.bulk_bytes}B bulk/rank, Split-C phase",
            f"  injected: {self.total_injected} faults "
            + (str(dict(sorted(self.injected_counts.items())))
               if self.injected_counts else "{}"),
            f"  recovery: retransmissions={c.get('retransmissions', 0):.0f}"
            f" nacks={c.get('nacks_sent', 0):.0f}"
            f" stall_nacks={c.get('stall_nacks_sent', 0):.0f}"
            f" keepalives={c.get('keepalives_sent', 0):.0f}",
            f"  drops: fabric={c.get('packets_dropped_fault', 0):.0f}"
            f" crc={c.get('rx_dropped_corrupt', 0):.0f}"
            f" overflow={c.get('rx_dropped_overflow', 0):.0f}"
            f" duplicates={c.get('duplicates_dropped', 0):.0f}",
        ]
        if self.clean_elapsed_us is not None:
            lines.append(
                f"  elapsed: {self.elapsed_us:.0f} us"
                f" (clean {self.clean_elapsed_us:.0f} us,"
                f" bound {self.recovery_bound_us:.0f} us)")
        else:
            lines.append(f"  elapsed: {self.elapsed_us:.0f} us")
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  violations: none")
        return lines


# ---------------------------------------------------------------------------
# one campaign (shared by the clean and lossy runs)
# ---------------------------------------------------------------------------

class _Campaign:
    """One machine + workload execution, with or without faults."""

    def __init__(self, nodes: int, pingpong: int, bulk_bytes: int,
                 plan: Optional[FaultPlan], limit: float,
                 sample_period_us: Optional[float] = None,
                 xfer_mode: str = "eager"):
        self.nodes = nodes
        self.pingpong = pingpong
        self.bulk_bytes = bulk_bytes
        self.limit = limit
        self.violations: List[str] = []
        self.sim = Simulator()
        self.machine = build_sp_machine(self.sim, nodes)
        self.obs = Observatory().attach(self.machine)
        if sample_period_us is not None:
            # gauge sampler for critical-path reports; its timers run on
            # the unsequenced lane so the event-order digests don't see
            # them, but as live entries they still defeat _quiesced's
            # live_pending_count()==0 shortcut — the explicit per-layer
            # drain checks below still decide quiescence correctly
            self.obs.start_sampler(period_us=sample_period_us)
        self.ams = attach_spam(self.machine, xfer_mode=xfer_mode)
        self.rts = attach_splitc(self.machine)
        self.injector = (install_faults(self.machine, plan)
                         if plan is not None else None)
        self._finished = [0]
        # per-rank buffer addresses, decided up front so every rank knows
        # its peer's layout
        self.addrs: List[Dict[str, int]] = []
        for node in self.machine.nodes:
            node.soak_pings = {}
            node.soak_pongs = {}
            self.addrs.append({
                "bulk_src": node.memory.alloc(bulk_bytes),
                "bulk_dst": node.memory.alloc(bulk_bytes),
                "bulk_back": node.memory.alloc(bulk_bytes),
                "sc_src": node.memory.alloc(_SPLITC_BYTES),
                "sc_dst": node.memory.alloc(_SPLITC_BYTES),
            })

    # -- the per-rank program ------------------------------------------------

    def _quiesced(self) -> bool:
        """Global drain predicate: nothing anywhere awaits recovery."""
        if self.sim.live_pending_count() == 0:
            # nothing will ever run again: tombstoned keep-alive timers
            # may still sit in the queue, but they represent no recovery
            # work — the raw pending count would keep this drain loop
            # spinning on a machine that can no longer change
            return True
        if self.machine.switch.in_flight > 0:
            # the fabric still holds traffic no FIFO shows yet; a rank
            # exiting its drain loop now would strand the arrival unread
            return False
        for am in self.ams:
            if am._active_sends or am._deferred_replies:
                return False
            if am._rdma_grants or am._deferred_cts or am._rdma_ack_due:
                return False
            adapter = am.adapter
            if adapter.send_fifo.occupied > 0:
                return False
            rf = adapter.recv_fifo
            visible = len(rf.visible)
            if visible > 0:
                return False
            if rf.occupied != visible + rf.pending_pop:
                return False  # a packet is mid-RX-DMA
            # unacked/partial-assembly checks open-coded: this predicate
            # runs on every idle poll, and the window properties just wrap
            # these two fields
            for peer in am._peers.values():
                s_req, s_rep = peer.send
                if s_req._saved or s_rep._saved:
                    return False
                r_req, r_rep = peer.recv
                if r_req._assembly is not None or r_rep._assembly is not None:
                    return False
        return True

    def _program(self, rank: int):
        am = self.ams[rank]
        rt = self.rts[rank]
        node = self.machine.nodes[rank]
        peer = (rank + 1) % self.nodes

        # phase 1: ping-pong around the ring, one in flight per rank
        for i in range(self.pingpong):
            yield from am.request_2(peer, _h_ping, rank, i)
            while len(node.soak_pongs.get(peer, ())) < i + 1:
                yield from am._wait_progress()

        # phase 2: multi-chunk blocking store, then read it back
        node.memory.write(self.addrs[rank]["bulk_src"],
                          _pattern(rank, self.bulk_bytes))
        yield from am.store(peer, self.addrs[rank]["bulk_src"],
                            self.addrs[peer]["bulk_dst"], self.bulk_bytes)
        yield from am.get(peer, self.addrs[peer]["bulk_dst"],
                          self.addrs[rank]["bulk_back"], self.bulk_bytes)

        # phase 3: Split-C — barrier, allreduce, split-phase put
        yield from rt.barrier()
        total = yield from rt.allreduce_int(rank + 1)
        expect = self.nodes * (self.nodes + 1) // 2
        if total != expect:
            self.violations.append(
                f"rank {rank}: allreduce returned {total}, expected {expect}")
        node.memory.write(self.addrs[rank]["sc_src"],
                          _pattern(rank + 100, _SPLITC_BYTES))
        yield from rt.put_bulk(GlobalPtr(peer, self.addrs[peer]["sc_dst"]),
                               self.addrs[rank]["sc_src"], _SPLITC_BYTES)
        yield from rt.sync()
        yield from rt.barrier()

        # drain: serve the network until the whole machine is quiet (the
        # keep-alive machinery inside _wait_progress keeps recovery going)
        self._finished[0] += 1
        while self._finished[0] < self.nodes or not self._quiesced():
            yield from am._wait_progress()

    # -- execution + checks ---------------------------------------------------

    def run(self) -> float:
        procs = [self.sim.spawn(self._program(r), name=f"soak{r}")
                 for r in range(self.nodes)]
        try:
            self.sim.run_until_processes_done(procs, limit=self.limit)
        except SimulationError as exc:
            # includes SimTimeoutError (unbounded recovery → deadlock)
            self.violations.append(f"{type(exc).__name__}: {exc}")
        except (ValueError, AssertionError) as exc:
            # window invariant violations (MidChunkAckError &c.) and
            # accounting assertions surface here
            self.violations.append(f"{type(exc).__name__}: {exc}")
        self._check_delivery()
        self._check_final_state()
        return self.sim.now

    def _check_delivery(self) -> None:
        expect = list(range(self.pingpong))
        for rank in range(self.nodes):
            node = self.machine.nodes[rank]
            peer = (rank + 1) % self.nodes
            prev = (rank - 1) % self.nodes
            got = node.soak_pings.get(prev, [])
            if got != expect:
                self.violations.append(
                    f"rank {rank}: pings from {prev} delivered as "
                    f"{_abbrev(got)}, expected 0..{self.pingpong - 1} "
                    f"exactly once in order")
            got = node.soak_pongs.get(peer, [])
            if got != expect:
                self.violations.append(
                    f"rank {rank}: pongs from {peer} delivered as "
                    f"{_abbrev(got)}, expected 0..{self.pingpong - 1} "
                    f"exactly once in order")
            want = _pattern(rank, self.bulk_bytes)
            peer_mem = self.machine.nodes[peer].memory
            if peer_mem.read(self.addrs[peer]["bulk_dst"],
                             self.bulk_bytes) != want:
                self.violations.append(
                    f"rank {rank}: bulk store to {peer} corrupted")
            if node.memory.read(self.addrs[rank]["bulk_back"],
                                self.bulk_bytes) != want:
                self.violations.append(
                    f"rank {rank}: bulk get readback from {peer} corrupted")
            sc_want = _pattern(rank + 100, _SPLITC_BYTES)
            if peer_mem.read(self.addrs[peer]["sc_dst"],
                             _SPLITC_BYTES) != sc_want:
                self.violations.append(
                    f"rank {rank}: Split-C put_bulk to {peer} corrupted")

    def _check_final_state(self) -> None:
        for rank, am in enumerate(self.ams):
            for dst, peer in am._peers.items():
                for ch, win in enumerate(peer.send):
                    if win.has_unacked:
                        self.violations.append(
                            f"rank {rank}: send window to {dst} ch{ch} "
                            f"still holds {win.in_flight} unacked packets")
                for ch, rwin in enumerate(peer.recv):
                    if rwin.has_partial_assembly:
                        self.violations.append(
                            f"rank {rank}: chunk from {dst} ch{ch} "
                            f"never completed reassembly")
            if am._active_sends:
                self.violations.append(
                    f"rank {rank}: {len(am._active_sends)} bulk ops "
                    f"never completed")

    def reconcile_faults(self) -> None:
        """Every injected fault must be visible in the obs ledger."""
        if self.injector is None:
            return
        events = self.obs.fault_events
        by_kind: Dict[str, List[Dict]] = {}
        for ev in events:
            by_kind.setdefault(ev["kind"], []).append(ev)
        for f in self.injector.injected:
            if f.trace_id <= 0:
                self.violations.append(
                    f"injected {f.kind} at t={f.t:.1f} hit an untraced "
                    f"packet (no trace_id)")
                continue
            if not any(ev["trace_id"] == f.trace_id and ev["t"] == f.t
                       for ev in by_kind.get(f.kind, ())):
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} at "
                    f"t={f.t:.1f} missing from obs fault events")
            if f.kind in _LOSSY_KINDS and not any(
                    ev["trace_id"] == f.trace_id
                    for ev in by_kind.get("packet_dropped", ())):
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} has no "
                    f"matching packet_dropped event")


def _merge_counters(snapshot_counters: Dict[str, float]) -> Dict[str, float]:
    """Sum per-registry counters (``am[0].retransmissions`` …) by name."""
    merged: Dict[str, float] = {}
    for key, value in snapshot_counters.items():
        name = key.rsplit(".", 1)[-1]
        merged[name] = merged.get(name, 0.0) + value
    return merged


def _abbrev(seq: List[int], limit: int = 12) -> str:
    if len(seq) <= limit:
        return str(seq)
    return f"[{', '.join(map(str, seq[:limit]))}, ...] ({len(seq)} items)"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_soak(
    seed: int = 7,
    loss: float = 0.01,
    nodes: int = 2,
    pingpong: int = 24,
    bulk_bytes: int = 2 * CHUNK_BYTES + 123,
    chaos: bool = False,
    plan: Optional[FaultPlan] = None,
    compare_clean: bool = True,
    limit: float = 5e7,
    sim_check: Optional[object] = None,
    sample_period_us: Optional[float] = 50.0,
    xfer_mode: str = "eager",
) -> SoakResult:
    """Run the soak workload under a fault plan; return the evidence.

    ``plan`` overrides the generated one; otherwise ``chaos`` selects
    :meth:`FaultPlan.chaos` (all six kinds) over :meth:`FaultPlan.loss`
    (uniform fabric drops) at rate ``loss`` with seed ``seed``.  With
    ``compare_clean`` the identical workload also runs fault-free to
    bound recovery time.  ``sim_check`` reaches the lossy campaign's
    engine — the perf suite hangs its event-order digest recorder there.
    ``sample_period_us`` starts the periodic gauge sampler on the lossy
    campaign (default on at 50 us: the sampler's timers run on the
    unsequenced lane, so they no longer perturb the perf suite's
    event-order digests; pass ``None`` to disable).  ``xfer_mode``
    selects the AM large-message strategy for the bulk phase.
    """
    if plan is None:
        plan = (FaultPlan.chaos(seed, loss) if chaos
                else FaultPlan.loss(seed, loss))

    clean_elapsed = None
    recovery_bound = None
    if compare_clean:
        clean = _Campaign(nodes, pingpong, bulk_bytes, plan=None, limit=limit,
                          xfer_mode=xfer_mode)
        clean_elapsed = clean.run()
        if clean.violations:
            # the workload must be sound before faults mean anything
            raise AssertionError(
                "fault-free soak run failed: " + "; ".join(clean.violations))

    lossy = _Campaign(nodes, pingpong, bulk_bytes, plan=plan, limit=limit,
                      sample_period_us=sample_period_us,
                      xfer_mode=xfer_mode)
    if sim_check is not None:
        lossy.sim.check = sim_check
    elapsed = lossy.run()
    lossy.reconcile_faults()

    injected = list(lossy.injector.injected)
    counts = lossy.injector.counts()
    if clean_elapsed is not None:
        # bounded recovery: a generous but real bound — each fault may
        # cost a few keep-alive/stall-NACK rounds, and compounding losses
        # stretch the whole run, never past a fixed multiple
        recovery_bound = clean_elapsed * 4.0 + 3_000.0 * len(injected) + 200_000.0
        if elapsed > recovery_bound:
            lossy.violations.append(
                f"recovery unbounded: lossy run took {elapsed:.0f} us, "
                f"bound was {recovery_bound:.0f} us "
                f"(clean {clean_elapsed:.0f} us, {len(injected)} faults)")

    return SoakResult(
        seed=seed, loss=loss, nodes=nodes, chaos=chaos,
        xfer_mode=xfer_mode,
        pingpong=pingpong, bulk_bytes=bulk_bytes,
        elapsed_us=elapsed, clean_elapsed_us=clean_elapsed,
        recovery_bound_us=recovery_bound,
        injected=injected, injected_counts=counts,
        violations=lossy.violations,
        counters=_merge_counters(lossy.obs.snapshot()["counters"]),
        obs=lossy.obs,
    )
