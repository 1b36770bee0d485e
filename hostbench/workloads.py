"""The benchmark's three workloads, driven through the public API.

Every workload is a closed loop: each simulated caller waits for its
reply or completion before it issues its next operation.  Inputs are
generated from the seed before set-up starts, so the simulated program
only ever sees generated data.  ``scale`` shrinks a workload for the
benchmark's own tests; the benchmark itself always runs at scale 1.

A workload object lives for one trial.  :meth:`attach` installs the
stacks above AM, :meth:`spawn` starts the simulated callers, and
:meth:`verify` returns ``(attempted, failed)`` for the operations the
trial issued, byte-checking every payload that arrived.  ``done_at`` is
the simulated time the work completed, when that is earlier than the end
of the run.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.faults import FaultPlan, install_faults
from repro.mpi import attach_mpi


class Pingpong:
    """2 thin nodes, one-word ``request_1``/``reply_1`` round trips with
    one outstanding at a time: the paper's §2.3 51 µs path."""

    name = "pingpong"
    nodes = 2
    done_at = None
    round_trips = 4000

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        n = max(1, int(self.round_trips * scale))
        self.words = [rng.getrandbits(31) for _ in range(n)]
        self.echoed: List[int] = []
        self.served = 0

    @property
    def msgs(self) -> int:
        """A request and its reply are two messages."""
        return 2 * len(self.words)

    def attach(self, machine, spans) -> None:
        pass

    def spawn(self, sim, machine) -> list:
        am0, am1 = machine.node(0).am, machine.node(1).am
        words, echoed = self.words, self.echoed

        def on_reply(token, x):
            echoed.append(x)

        def on_request(token, x):
            self.served += 1
            yield from token.reply_1(on_reply, x ^ 0x5A5A5A5A)

        am0.register(on_reply)
        am0.register(on_request)

        def pinger():
            for x in words:
                before = len(echoed)
                yield from am0.request_1(1, on_request, x)
                while len(echoed) == before:
                    yield from am0._wait_progress()

        def ponger():
            while self.served < len(words):
                yield from am1._wait_progress()

        sim.spawn(ponger(), name="pong")
        return [sim.spawn(pinger(), name="ping")]

    def verify(self) -> Tuple[int, int]:
        attempted = len(self.words)
        ok = sum(got == (x ^ 0x5A5A5A5A)
                 for x, got in zip(self.words, self.echoed))
        return attempted, attempted - ok


class MpiAlltoallLossy:
    """8 thin nodes of MPI-AM alltoall rounds at ~0.2% fabric loss.

    One trial runs one round of each size in a fixed mix that covers
    both the eager and the rendezvous protocol, largest first.  Rounds
    alternate rank-ordered and staggered order (§4.4), so the 64 KiB
    round is the rank-ordered one whose rendezvous streams contend for
    the same destinations.  The seed draws the payloads.

    The size order and the loss pattern are the same in every trial.
    Recovery cost depends on where the losses fall, and drawing either
    per trial made a trial's events range from 145k to 296k (4 rounds)
    or 334k to 963k (8 rounds), so run-to-run comparisons compared loss
    patterns.  In this order the losses fall on the 64 KiB round: every
    trial pays a go-back-N recovery of pipelined streams.  A trial is
    short so that a run's median covers many trials, since the host's
    speed varies from trial to trial."""

    name = "mpi_alltoall_lossy"
    nodes = 8
    #: the last rank's final round returned; the run ends later, when
    #: every rank has noticed and stopped serving
    done_at = None
    sizes = (65536, 4096, 256, 8)
    loss = 0.002
    fault_seed = 0

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        self.round_sizes = [max(1, int(s * scale)) for s in self.sizes]
        n = self.nodes
        #: chunks[round][src][dst]
        self.chunks = [[[rng.randbytes(size) for _dst in range(n)]
                        for _src in range(n)]
                       for size in self.round_sizes]
        #: received[round][dst] = the list alltoall returned on ``dst``
        self.received: List[List[list]] = [[None] * n
                                           for _ in self.round_sizes]
        self.finished = 0

    @property
    def msgs(self) -> int:
        """Every rank sends one MPI message to every other rank per round."""
        return len(self.round_sizes) * self.nodes * (self.nodes - 1)

    def attach(self, machine, spans) -> None:
        with spans.span("attach_mpi", layer="mpi"):
            attach_mpi(machine)
        with spans.span("install_faults", layer="faults"):
            install_faults(machine, FaultPlan.loss(self.fault_seed, self.loss))

    def spawn(self, sim, machine) -> list:
        n = self.nodes

        def rank(r):
            mpi = machine.node(r).mpi
            for i, round_chunks in enumerate(self.chunks):
                mine = [round_chunks[r][dst] for dst in range(n)]
                self.received[i][r] = yield from mpi.alltoall(
                    mine, staggered=bool(i % 2))
            # keep serving the network until every rank has its data: a
            # peer may still need this rank to answer a NACK
            self.finished += 1
            if self.finished == n:
                self.done_at = sim.now
            am = machine.node(r).am
            while self.finished < n:
                yield from am._wait_progress()

        return [sim.spawn(rank(r), name=f"rank{r}") for r in range(n)]

    def verify(self) -> Tuple[int, int]:
        failed = 0
        for round_chunks, got in zip(self.chunks, self.received):
            for dst in range(self.nodes):
                out = got[dst]
                for src in range(self.nodes):
                    if src != dst and (out is None
                                       or out[src] != round_chunks[src][dst]):
                        failed += 1
        return self.msgs, failed


class Ring1024:
    """1024 thin nodes (2x the paper's 512); each rank sends a few
    one-word requests to its right neighbour, then serves until its own
    quota has landed.  Set-up dominates: this is the per-node footprint
    workload and the only one with a large live event queue."""

    name = "ring1024"
    nodes = 1024
    done_at = None
    quota = 4

    def __init__(self, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        self.nodes = max(2, int(self.nodes * scale))
        #: words[r] = what rank r sends to rank r+1, in order
        self.words = [[rng.getrandbits(31) for _ in range(self.quota)]
                      for _ in range(self.nodes)]
        self.inbox: List[List[int]] = [[] for _ in range(self.nodes)]

    @property
    def msgs(self) -> int:
        return self.nodes * self.quota

    def attach(self, machine, spans) -> None:
        pass

    def spawn(self, sim, machine) -> list:
        n, inbox = self.nodes, self.inbox

        def on_request(token, x):
            inbox[token.am.node.id].append(x)

        machine.node(0).am.register(on_request)

        def rank(r):
            am = machine.node(r).am
            for x in self.words[r]:
                yield from am.request_1((r + 1) % n, on_request, x)
            while len(inbox[r]) < self.quota:
                yield from am._wait_progress()

        return [sim.spawn(rank(r), name=f"ring{r}") for r in range(n)]

    def verify(self) -> Tuple[int, int]:
        n = self.nodes
        failed = 0
        for r in range(n):
            sent, got = self.words[r], self.inbox[(r + 1) % n]
            failed += sum(g != s for s, g in zip(sent, got))
            failed += max(0, len(sent) - len(got))
        return self.msgs, failed


WORKLOADS = {w.name: w for w in (Pingpong, MpiAlltoallLossy, Ring1024)}
