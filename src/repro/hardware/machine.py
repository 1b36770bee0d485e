"""Machine builders: assemble nodes + interconnect into a runnable system.

``build_sp_machine(sim, n)`` gives the full SP stack (TB2 adapters on a
switch); ``build_generic_machine(sim, n, params)`` gives a LogP cluster for
the Table-4 peers.  Software layers (AM, MPL, MPI, Split-C) attach
themselves on top via their own ``attach`` constructors, so the same
machine can carry different stacks in different experiments.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.adapter import TB2Adapter
from repro.hardware.generic_nic import GenericFabric, GenericNIC
from repro.hardware.node import Node
from repro.hardware.params import MachineParams, machine_params
from repro.hardware.switch import Switch
from repro.sim import Simulator


class Machine:
    """A built machine: the simulator, nodes, and interconnect."""

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams,
        nodes: List[Node],
        switch: Optional[Switch] = None,
        fabric: Optional[GenericFabric] = None,
    ):
        self.sim = sim
        self.params = params
        self.nodes = nodes
        self.switch = switch
        self.fabric = fabric
        #: observability hub (set by Observatory.attach; None = untraced)
        self.obs = None

    @property
    def nprocs(self) -> int:
        return len(self.nodes)

    def node(self, i: int) -> Node:
        return self.nodes[i]

    @property
    def is_sp(self) -> bool:
        return self.switch is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Machine({self.params.name!r}, {self.nprocs} nodes)"


def build_sp_machine(
    sim: Simulator,
    nprocs: int,
    params: Optional[MachineParams] = None,
    lazy_pop_batch: int = 16,
) -> Machine:
    """Build an ``nprocs``-node SP (thin nodes unless told otherwise)."""
    if nprocs < 1:
        raise ValueError("need at least one node")
    p = params if params is not None else machine_params("sp-thin")
    if p.nodes_kind != "sp":
        raise ValueError(f"{p.name!r} is not an SP parameter set")
    switch = Switch(sim, p.switch)
    nodes: List[Node] = []
    for i in range(nprocs):
        node = Node(sim, i, p)
        adapter = TB2Adapter(
            sim,
            i,
            p.adapter,
            p.switch,
            active_nodes=nprocs,
            lazy_pop_batch=lazy_pop_batch,
        )
        adapter.switch = switch
        switch.attach(i, adapter)
        node.adapter = adapter
        nodes.append(node)
    return Machine(sim, p, nodes, switch=switch)


def build_generic_machine(
    sim: Simulator, nprocs: int, params: MachineParams
) -> Machine:
    """Build an ``nprocs``-node LogP cluster (CM-5 / Meiko / U-Net)."""
    if nprocs < 1:
        raise ValueError("need at least one node")
    if params.nodes_kind != "generic":
        raise ValueError(f"{params.name!r} is not a generic-NIC parameter set")
    fabric = GenericFabric(sim)
    nodes: List[Node] = []
    for i in range(nprocs):
        node = Node(sim, i, params)
        node.nic = GenericNIC(sim, i, params.nic, fabric)
        nodes.append(node)
    return Machine(sim, params, nodes, fabric=fabric)


def build_machine(sim: Simulator, nprocs: int, name: str) -> Machine:
    """Build any registered machine by name (``sp-thin``, ``sp-wide``,
    ``cm5``, ``meiko``, ``unet``)."""
    p = machine_params(name)
    if p.nodes_kind == "sp":
        return build_sp_machine(sim, nprocs, p)
    return build_generic_machine(sim, nprocs, p)
