"""Per-node host memory gate: a large machine must stay cheap to build.

Counted with ``tracemalloc``, so the figure is deterministic and does not
depend on the allocator or on what else the process holds.
"""

import tracemalloc

from repro.am import attach_spam
from repro.hardware import build_sp_machine
from repro.sim import Simulator

NODES = 1024
MAX_BYTES_PER_NODE = 32 * 1024  # measured: ~6.3 KB built, ~12.4 KB with AM


def test_built_and_attached_machine_bytes_per_node():
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine = build_sp_machine(Simulator(), NODES)
        attach_spam(machine)
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert machine.nprocs == NODES
    assert traced / NODES <= MAX_BYTES_PER_NODE, (
        f"{traced / NODES:.0f} B per node exceeds {MAX_BYTES_PER_NODE}"
    )
