"""Assembly of a complete simulated MPI job.

``run_mpi(program, nprocs, stack, cluster)`` builds the simulator, the
hardware, one stack instance per rank (wired to the node NICs and
shared-memory fabrics), spawns one application thread per rank running
``program(comm)``, and runs the simulation to completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.comparators.native import NativeStack
from repro.config import ClusterSpec, StackSpec
from repro.hardware.topology import Cluster, build_cluster
from repro.mpi.api import Communicator
from repro.mpich2.ch3 import CH3Stack
from repro.mpich2.nemesis.shm import NemesisShm
from repro.nmad.core import NmadCore
from repro.nmad.drivers import make_ib_driver, make_mx_driver
from repro.nmad.drivers.ib import RegistrationCache
from repro.nmad.packet import PacketWrapper
from repro.nmad.reliability import FrameReliability, RailHealthMonitor
from repro.nmad.strategies import make_strategy
from repro.pioman import PIOMan, make_engine
from repro.simulator import Simulator, Trace
from repro.threads.marcel import MarcelScheduler


@dataclass
class RunResult:
    """Outcome of one simulated MPI job."""

    elapsed: float                 # latest rank finish time (s)
    rank_results: List[Any]        # program return values, by rank
    rank_times: List[float]        # per-rank finish times (s)
    sim_time: float                # final simulator clock

    def result(self, rank: int = 0) -> Any:
        return self.rank_results[rank]


class MPIRuntime:
    """A fully wired simulated MPI job, ready to run programs."""

    def __init__(self, nprocs: int, stack: StackSpec,
                 cluster: Optional[ClusterSpec] = None,
                 ranks_per_node: Optional[int] = None,
                 trace: Optional[Trace] = None,
                 seed: int = 0,
                 faults: Optional[Any] = None):
        if nprocs < 1:
            raise ValueError("need at least one process")
        self.nprocs = nprocs
        self.spec = stack
        if cluster is None:
            cluster = ClusterSpec(n_nodes=nprocs)
        self.cluster_spec = cluster
        missing = set(stack.rails) - set(cluster.rail_names())
        if missing:
            raise ValueError(f"stack uses rails {sorted(missing)} "
                             f"not present in cluster {cluster.rail_names()}")

        self.seed = seed
        self.sim = Simulator(trace=trace)
        self.cluster: Cluster = build_cluster(
            self.sim, cluster.n_nodes, cluster.node, list(cluster.rails),
            topology=cluster.topology, topo_rails=cluster.topo_rails)

        if ranks_per_node is None:
            ranks_per_node = math.ceil(nprocs / cluster.n_nodes)
        self.ranks_per_node = ranks_per_node
        self._rank_node = [min(r // ranks_per_node, cluster.n_nodes - 1)
                           for r in range(nprocs)]

        self.schedulers: Dict[int, MarcelScheduler] = {}
        self.piomans: Dict[int, Optional[PIOMan]] = {}
        self.shms: Dict[int, NemesisShm] = {}
        self.stacks: List[Any] = []
        self.compute_efficiency = stack.compute_efficiency

        self.reliab: Optional[FrameReliability] = None
        self._build_nodes()
        self._build_stacks()
        self._wire_network()
        self._wire_reliability()
        self.injector = self._wire_faults(faults)

    # ------------------------------------------------------------------
    def rank_to_node(self, rank: int) -> int:
        return self._rank_node[rank]

    def scheduler_of(self, rank: int) -> MarcelScheduler:
        return self.schedulers[self.rank_to_node(rank)]

    def ranks_on_node(self, node_id: int) -> List[int]:
        return [r for r in range(self.nprocs) if self._rank_node[r] == node_id]

    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        for node in self.cluster.nodes:
            sched = MarcelScheduler(self.sim, node.params,
                                    node_id=node.node_id, seed=self.seed)
            node.scheduler = sched
            # repro-check: allow[RPC004] build-time wiring, sim not running
            self.schedulers[node.node_id] = sched
            if self.spec.pioman:
                node.pioman = make_engine(self.spec.progress, self.sim,
                                          sched, self.spec.pioman_params)
            # repro-check: allow[RPC004] build-time wiring, sim not running
            self.piomans[node.node_id] = node.pioman
            if self.spec.kind == "nmad":
                # repro-check: allow[RPC004] build-time wiring
                self.shms[node.node_id] = NemesisShm(
                    self.sim, node.params.mem, self.spec.shm_costs)

    def _build_stacks(self) -> None:
        for rank in range(self.nprocs):
            node = self.cluster.node(self.rank_to_node(rank))
            if self.spec.kind == "nmad":
                # repro-check: allow[RPC004] build-time wiring
                self.stacks.append(self._build_nmad_stack(rank, node))
            elif self.spec.kind == "native":
                # repro-check: allow[RPC004] build-time wiring
                self.stacks.append(self._build_native_stack(rank, node))
            else:
                raise ValueError(f"unknown stack kind {self.spec.kind!r}")
        if self.spec.kind == "native":
            for rank, stack in enumerate(self.stacks):
                for peer in self.ranks_on_node(stack.node.node_id):
                    if peer != rank:
                        stack.local_peers[peer] = self.stacks[peer]
        else:
            for stack in self.stacks:
                stack.setup_vcs(self.nprocs, self.rank_to_node)

    def _build_nmad_stack(self, rank: int, node) -> CH3Stack:
        nmad_costs = replace(self.spec.nmad_costs,
                             upper_complete_cost=self.spec.ch3_costs.complete_overhead)
        core = NmadCore(
            self.sim, rank, node.node_id,
            mem=node.params.mem,
            registrar=node.make_registrar(cache=self.spec.reg_cache),
            costs=nmad_costs,
            rank_to_node=self.rank_to_node,
        )
        for rail in self.spec.rails:
            nic = node.nics[rail]
            if rail == "ib":
                # per-rank pin-down cache: registrations are per-process
                reg_cache = (RegistrationCache(node.params.mem,
                                               self.spec.ib_reg_cache)
                             if self.spec.ib_reg_cache > 0 else None)
                driver = make_ib_driver(nic, window=self.spec.driver_window,
                                        reg_cache=reg_cache)
            else:
                driver = make_mx_driver(nic, window=self.spec.driver_window)
            core.add_driver(driver)
        core.set_strategy(make_strategy(self.spec.strategy, core))
        return CH3Stack(
            self.sim, rank, node, node.scheduler, core,
            shm=self.shms[node.node_id], mode=self.spec.mode,
            pioman=node.pioman, costs=self.spec.ch3_costs,
        )

    def _build_native_stack(self, rank: int, node) -> NativeStack:
        rail = self.spec.rails[0]
        return NativeStack(
            self.sim, rank, node, node.scheduler, node.nics[rail],
            self.rank_to_node, costs=self.spec.native_costs,
            pioman=node.pioman,
        )

    def _wire_network(self) -> None:
        for node in self.cluster.nodes:
            for nic in node.nics.values():
                nic.rx_notify = self._route_frame

    def _wire_reliability(self) -> None:
        """Arm ack/retransmit/failover when the spec asks for it."""
        params = self.spec.reliability
        if params is None or self.spec.kind != "nmad":
            return
        self.reliab = FrameReliability(
            self.sim, params,
            core_of=lambda rank: self.stacks[rank].core,
            nic_of=lambda node_id, rail: self.cluster.fabrics[rail].nic(node_id),
        )
        for stack in self.stacks:
            core = stack.core
            core.reliability = params
            monitor = RailHealthMonitor(
                core, params, pioman=self.piomans[core.node_id])
            core.health = monitor
            for driver in core.drivers:
                driver.reliability = params
                driver.health = monitor

    def _wire_faults(self, faults):
        """Attach a fault plan (if any) to every fabric of the cluster."""
        if faults is None or getattr(faults, "empty", True):
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self.sim, faults, seed=self.seed)
        injector.attach(self.cluster.fabrics.values())
        injector.schedule_markers()
        return injector

    def _route_frame(self, frame) -> None:
        # rx callbacks fire from the NIC's timeline; acks mutate driver
        # state and deliveries touch stack inboxes on the dst node, so
        # the whole dispatch runs under that node's virtual lock
        with self.sim.sync_region(("node", frame.dst), "net.route"):
            if frame.corrupt:
                return  # failed its CRC at the receiving NIC
            if self.reliab is not None and not self.reliab.on_frame(frame):
                return  # control frame or duplicate, consumed by reliability
            payload = frame.payload
            if isinstance(payload, PacketWrapper):
                ranks = {e.dst_rank for e in payload.entries}
            else:
                ranks = {payload.dst_rank}
            for rank in sorted(ranks):
                self.stacks[rank].deliver(("net", frame))

    # ------------------------------------------------------------------
    def run(self, program: Callable, until: Optional[float] = None) -> RunResult:
        """Run ``program(comm)`` on every rank to completion."""
        results: List[Any] = [None] * self.nprocs
        times: List[float] = [-1.0] * self.nprocs

        def rank_main(rank: int):
            sched = self.scheduler_of(rank)
            yield sched.acquire_core()
            comm = Communicator(self, rank)
            gen = program(comm)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "rank programs must be generator functions "
                    "(use `yield from comm....` inside)")
            results[rank] = yield from gen
            times[rank] = self.sim.now
            sched.release_core()

        for rank in range(self.nprocs):
            self.sim.spawn(rank_main(rank), name=f"rank{rank}")
        self.sim.run(until=until)

        stuck = [r for r, t in enumerate(times) if t < 0]
        if stuck:
            raise RuntimeError(
                f"MPI job did not complete: ranks {stuck} still blocked at "
                f"t={self.sim.now:.6f}s (deadlock or truncated run)")
        return RunResult(elapsed=max(times), rank_results=results,
                         rank_times=times, sim_time=self.sim.now)


def run_mpi(program: Callable, nprocs: int, stack: StackSpec,
            cluster: Optional[ClusterSpec] = None,
            ranks_per_node: Optional[int] = None,
            trace: Optional[Trace] = None,
            until: Optional[float] = None,
            seed: int = 0,
            faults: Optional[Any] = None) -> RunResult:
    """Build a runtime and execute one program (the main entry point).

    Example
    -------
    >>> from repro import config
    >>> from repro.runtime import run_mpi
    >>> def hello(comm):
    ...     if comm.rank == 0:
    ...         yield from comm.send(1, tag=1, size=8, data="hi")
    ...     else:
    ...         msg = yield from comm.recv(src=0, tag=1)
    ...         return msg.data
    >>> run_mpi(hello, 2, config.mpich2_nmad()).result(1)
    'hi'
    """
    runtime = MPIRuntime(nprocs, stack, cluster=cluster,
                         ranks_per_node=ranks_per_node, trace=trace,
                         seed=seed, faults=faults)
    return runtime.run(program, until=until)
