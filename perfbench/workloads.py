"""The four benchmark workloads, built from the simulator's public API.

Each workload builds a wired :class:`repro.MPIRuntime` plus a rank
program from ``(seed, params)`` and hands back a :class:`Job`.  The
harness times ``Job.run`` (``MPIRuntime.run`` plus whatever the
workload does with the result, e.g. rendering the profile report) and
calls ``Job.check`` afterwards, outside the timed region.

Nothing here imports :mod:`repro` at module level: the harness measures
``setup_s`` from ``import repro`` to a built runtime in a fresh
interpreter, so every simulator import happens inside a builder.

The seed picks the inputs, never the shape of the work:

* ``nas_lu_c64`` / ``stencil_mr_pioman`` -- the per-node OS-noise
  stream (``NodeParams.compute_jitter`` at :data:`JITTER`), so every
  seed is a different, reproducible interleaving of the same messages;
* ``allreduce_64k_p64`` -- the integer vectors every rank contributes;
* ``profile_msgrate`` -- each message's size, tag and payload.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MATRIX_PATH = os.path.join(HERE, "matrix.json")

#: the seed whose simulated outputs are pinned in ``matrix.json``
DEFAULT_SEED = 0

#: OS-noise amplitude of the seeded workloads (compute phases stretched
#: by a factor in [1, 1 + JITTER])
JITTER = 0.01

#: benchmark-size parameters of each workload
PARAMS: Dict[str, Dict[str, Any]] = {
    # NPB LU class C, p=64, Grid'5000 placement (10 nodes x 7 ranks):
    # two representative SSOR iterations instead of the kernel's 8,
    # so one run takes ~2 s of host time
    "nas_lu_c64": {"cls": "C", "procs": 64, "sim_iters": 2},
    # collbench allreduce, 64 KiB, one rank per node -> Rabenseifner
    "allreduce_64k_p64": {"procs": 64, "size": 65536, "reps": 10,
                          "warmup": 2, "elems": 64},
    # overlapped 2-D stencil (StencilConfig defaults but the iteration
    # count) on 8 Xeon nodes x 2 ranks over IB+MX with threaded PIOMan
    "stencil_mr_pioman": {"procs": 16, "nodes": 8, "iters": 120},
    # 2-rank stream of small eager messages, windowed like osu_mbw_mr
    "profile_msgrate": {"messages": 6000, "window": 32, "max_size": 2048,
                        "tags": 4},
}

WORKLOADS = tuple(PARAMS)


@dataclass
class Job:
    """One built simulation, ready to run once."""

    runtime: Any
    #: runs the simulation (and any post-processing the workload's user
    #: pays for); returns the simulated outputs as plain JSON data
    run: Callable[[], Dict[str, Any]]
    #: delivery invariants of the finished run; returns problem strings
    check: Callable[[], List[str]]
    #: TraceMetrics of a traced job (None when tracing is off)
    metrics: Any = None


def mpi_messages(runtime) -> int:
    """MPI point-to-point messages the job's ranks sent (all completed)."""
    return sum(stack.messages_sent for stack in runtime.stacks)


def leftover_problems(runtime) -> List[str]:
    """Unmatched receives or messages left in any rank's queues."""
    out = []
    for stack in runtime.stacks:
        queues = {"mpich2.posted": stack.posted,
                  "mpich2.unexpected": stack.unexpected,
                  "nmad.posted": stack.core.posted,
                  "nmad.unexpected": stack.core.unexpected}
        for name, queue in queues.items():
            if len(queue):
                out.append(f"rank {stack.rank}: {len(queue)} entries left "
                           f"in {name}")
    return out


def _finished_problems(values) -> List[str]:
    return [f"rank {r} returned {v!r}" for r, v in enumerate(values)
            if not (isinstance(v, float) and math.isfinite(v) and v > 0)]


def _new_trace(traced: bool):
    if not traced:
        return None, None
    from repro.observability import attach_metrics
    from repro.simulator import Trace

    trace = Trace()
    return trace, attach_metrics(trace)


def _jittered(node):
    from dataclasses import replace

    return replace(node, compute_jitter=JITTER)


# ---------------------------------------------------------------------------
# nas_lu_c64
# ---------------------------------------------------------------------------

def _nas_lu(seed: int, p: Dict[str, Any], traced: bool) -> Job:
    from repro import MPIRuntime, config
    from repro.workloads.nas import KERNELS, default_nas_cluster
    from repro.workloads.nas.base import KernelContext

    spec = KERNELS["lu"]
    kcls = spec.classes[p["cls"]]
    nprocs, n_sim = p["procs"], p["sim_iters"]
    spec.validate_procs(nprocs)
    compute_per_iter = spec.cpu_seconds(p["cls"]) / nprocs / kcls.iters
    cluster, rpn = default_nas_cluster(nprocs)
    cluster = config.ClusterSpec(n_nodes=cluster.n_nodes,
                                 node=_jittered(cluster.node),
                                 rails=cluster.rails)

    # the rank program of repro.workloads.nas.run_kernel
    def program(comm):
        ctx = KernelContext(kernel=spec, cls=kcls, p=nprocs,
                            compute_per_iter=compute_per_iter)
        yield from comm.barrier()
        t0 = comm.sim.now
        for i in range(n_sim):
            yield from spec.iteration(comm, ctx, i)
        yield from comm.barrier()
        return (comm.sim.now - t0) * (kcls.iters / n_sim)

    trace, metrics = _new_trace(traced)
    runtime = MPIRuntime(nprocs, config.mpich2_nmad(), cluster=cluster,
                         ranks_per_node=rpn, trace=trace, seed=seed)

    done = {}

    def run():
        done["result"] = result = runtime.run(program)
        return {"projected_s": max(result.rank_results),
                "messages": mpi_messages(runtime)}

    def check():
        return (_finished_problems(done["result"].rank_results)
                + leftover_problems(runtime))

    return Job(runtime, run, check, metrics)


# ---------------------------------------------------------------------------
# allreduce_64k_p64
# ---------------------------------------------------------------------------

def _contribution(seed: int, op: int, rank: int, elems: int) -> List[int]:
    base = (seed * 2654435761 + op * 40503 + rank * 9973) % 65521
    return [(base + j * 131) % 65521 for j in range(elems)]


def _vector_sum(a: List[int], b: List[int]) -> List[int]:
    return [x + y for x, y in zip(a, b)]


def _allreduce(seed: int, p: Dict[str, Any], traced: bool) -> Job:
    from repro import MPIRuntime, config
    from repro.mpi.collectives import barrier_dissemination

    nprocs, size, reps, warmup, elems = (p["procs"], p["size"], p["reps"],
                                         p["warmup"], p["elems"])
    ops = warmup + reps

    # collbench's rank program (warmup, sync, timed reps), with a real
    # integer vector reduced by every call so the result can be checked
    def program(comm):
        results = []
        t0 = 0.0
        for op in range(ops):
            if op == warmup:
                yield from barrier_dissemination(comm)
                t0 = comm.sim.now
            got = yield from comm.allreduce(
                size, value=_contribution(seed, op, comm.rank, elems),
                op=_vector_sum)
            results.append(got)
        return (comm.sim.now - t0) / reps, results

    trace, metrics = _new_trace(traced)
    runtime = MPIRuntime(nprocs, config.mpich2_nmad(),
                         cluster=config.ClusterSpec(n_nodes=nprocs),
                         trace=trace, seed=seed)

    done = {}

    def run():
        done["result"] = result = runtime.run(program)
        return {"per_op": max(t for t, _ in result.rank_results),
                "messages": mpi_messages(runtime)}

    def check():
        problems = leftover_problems(runtime)
        vectors = [v for _, v in done["result"].rank_results]
        for op in range(ops):
            want = [0] * elems
            for rank in range(nprocs):
                want = _vector_sum(want, _contribution(seed, op, rank, elems))
            bad = [r for r, v in enumerate(vectors) if v[op] != want]
            if bad:
                problems.append(f"allreduce #{op}: wrong sum on ranks {bad}")
        return problems

    return Job(runtime, run, check, metrics)


# ---------------------------------------------------------------------------
# stencil_mr_pioman
# ---------------------------------------------------------------------------

def _stencil(seed: int, p: Dict[str, Any], traced: bool) -> Job:
    from repro import MPIRuntime, config
    from repro.hardware import presets as hw
    from repro.workloads.stencil import StencilConfig, stencil_program

    cfg = StencilConfig(iters=p["iters"])
    cluster = config.ClusterSpec(n_nodes=p["nodes"],
                                 node=_jittered(hw.XEON_NODE),
                                 rails=(hw.IB_CONNECTX, hw.MX_MYRI10G))
    spec = config.mpich2_nmad_pioman(rails=("ib", "mx"))
    trace, metrics = _new_trace(traced)
    runtime = MPIRuntime(p["procs"], spec, cluster=cluster,
                         ranks_per_node=p["procs"] // p["nodes"],
                         trace=trace, seed=seed)
    program = stencil_program(cfg, overlap=True)

    done = {}

    def run():
        done["result"] = result = runtime.run(program)
        return {"per_iter": max(result.rank_results) / cfg.iters,
                "messages": mpi_messages(runtime)}

    def check():
        return (_finished_problems(done["result"].rank_results)
                + leftover_problems(runtime))

    return Job(runtime, run, check, metrics)


# ---------------------------------------------------------------------------
# profile_msgrate
# ---------------------------------------------------------------------------

def stream_plan(seed: int, n: int, max_size: int, ntags: int) -> List[tuple]:
    """(tag, size, payload) of each message; payload = (tag, k, token)
    where ``k`` counts earlier messages with the same tag."""
    rng = random.Random(seed)
    per_tag = [0] * ntags
    plan = []
    for _ in range(n):
        tag = rng.randrange(ntags)
        size = rng.randint(1, max_size)
        plan.append((tag, size, (tag, per_tag[tag], rng.getrandbits(32))))
        per_tag[tag] += 1
    return plan


def _msgrate(seed: int, p: Dict[str, Any], traced: bool) -> Job:
    from repro import MPIRuntime, config

    n, window = p["messages"], p["window"]
    plan = stream_plan(seed, n, p["max_size"], p["tags"])

    def program(comm):
        got = []
        for lo in range(0, n, window):
            reqs = []
            for tag, size, payload in plan[lo:lo + window]:
                if comm.rank == 0:
                    req = yield from comm.isend(1, tag=("s", tag), size=size,
                                                data=payload)
                else:
                    req = yield from comm.irecv(src=0, tag=("s", tag))
                reqs.append(req)
            msgs = yield from comm.waitall(reqs)
            if comm.rank == 1:
                got.extend((m.tag, m.size, m.data) for m in msgs)
        return got

    # the `repro profile` pipeline: full trace, live metrics, span
    # profiler, report rendered after the run (in memory, no files)
    trace, metrics = _new_trace(traced)
    prof = None
    if traced:
        from repro.observability import SpanProfiler

        prof = SpanProfiler().attach(trace)
    runtime = MPIRuntime(2, config.mpich2_nmad(), cluster=config.xeon_pair(),
                         trace=trace, seed=seed)

    done = {"report": None}

    def run():
        done["result"] = result = runtime.run(program)
        if prof is not None:
            from repro.observability import (format_engine_stats,
                                             record_engine_metrics)

            sim = runtime.sim
            prof.finalize(sim.now)
            stats = record_engine_metrics(sim, metrics.registry)
            folded = "\n".join(f"{stack} {value:.9g}" for stack, value
                               in prof.folded().items())
            done["report"] = "\n".join([
                prof.report(15), format_engine_stats(stats),
                metrics.format_summary(), folded])
        return {"elapsed": result.elapsed,
                "delivered": len(result.rank_results[1]),
                "messages": mpi_messages(runtime)}

    def check():
        problems = leftover_problems(runtime)
        received = done["result"].rank_results[1]
        if traced and not done["report"]:
            problems.append("profile report rendered empty")
        if len(received) != n:
            problems.append(f"{len(received)} of {n} messages delivered")
        for i, ((tag, size, payload), got) in enumerate(zip(plan, received)):
            if got != (("s", tag), size, payload):
                problems.append(f"message {i}: expected tag {tag} size "
                                f"{size} payload {payload}, got {got}")
                break
        return problems

    return Job(runtime, run, check, metrics)


# ---------------------------------------------------------------------------

_BUILDERS = {
    "nas_lu_c64": _nas_lu,
    "allreduce_64k_p64": _allreduce,
    "stencil_mr_pioman": _stencil,
    "profile_msgrate": _msgrate,
}

#: the workload whose timed configuration is traced (the trace is the work)
TRACED_BY_DEFAULT = frozenset({"profile_msgrate"})


def build(name: str, seed: int, params: Optional[Dict[str, Any]] = None,
          traced: Optional[bool] = None) -> Job:
    """Build workload ``name``; ``traced=None`` picks its timed config."""
    if traced is None:
        traced = name in TRACED_BY_DEFAULT
    return _BUILDERS[name](seed, params or PARAMS[name], traced)


def load_matrix(path: str = MATRIX_PATH) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def pin_problems(name: str, seed: int, outputs: Dict[str, Any],
                 pins: Dict[str, Any]) -> List[str]:
    """Compare simulated outputs with the pinned values.

    ``messages`` is pinned for every seed (the seed never changes the
    message pattern); the other outputs only for :data:`DEFAULT_SEED`,
    and exactly.
    """
    pinned = pins[name]
    keys = list(pinned) if seed == DEFAULT_SEED else ["messages"]
    return [f"{name}: {key} = {outputs.get(key)!r}, pinned {pinned[key]!r}"
            for key in keys if outputs.get(key) != pinned[key]]
