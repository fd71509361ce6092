"""One measurement in a fresh interpreter (spawned by ``run.py``).

Usage: ``python3 perfbench/rep.py '<json request>'`` from the root of
a checkout.  The request names the workload, seed, optional params and
a mode:

* ``timed`` -- build the workload in its timed configuration, run it
  once and report ``setup_s`` (``import repro`` to a built runtime),
  ``wall_s``/``cpu_s`` of the run, ``peak_rss_mib`` of this process,
  the simulated outputs and any invariant problems, plus ``probe``:
  the reference chunks :class:`hostspeed.Probe` timed during the run,
  which ``run.py`` uses to scale the times to a reference host speed;
* ``layers`` -- the per-layer pass: an untraced run, a traced run with
  ``attach_metrics``, and a run under cProfile, all with the seed.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _timed_run(job):
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    outputs = job.run()
    cpu = time.thread_time() - cpu0
    wall = time.perf_counter() - wall0
    return outputs, wall, cpu


def _provenance(runtime) -> dict:
    engines = sorted({engine.kind for engine in runtime.piomans.values()
                      if engine is not None})
    return {"scheduler": runtime.sim.perf_stats()["scheduler"],
            "progress": ",".join(engines) or "none",
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def reported_rails() -> list:
    """Rails whose ``nic.*`` counters ``BENCHMARK.json`` names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    prefix = "nic.tx_bytes."
    return [n[len(prefix):] for n in names if n.startswith(prefix)]


def timed(req: dict) -> dict:
    import hostspeed

    hostspeed.pin_to_current_cpu()
    probe = hostspeed.Probe()
    probe.start()
    try:
        t0 = time.perf_counter()
        import repro  # noqa: F401  (setup_s starts at the package import)

        import workloads
        job = workloads.build(req["workload"], req["seed"], req.get("params"))
        setup = time.perf_counter() - t0
        during_setup = probe.split()
        outputs, wall, cpu = _timed_run(job)
        during_run = probe.split()
    finally:
        probe.close()
    problems = job.check()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # wall times exclude the probe's own chunks; cpu is this thread's
    return {"outputs": outputs, "problems": problems,
            "setup_s": setup - during_setup["wall"],
            "wall_s": wall - during_run["wall"], "cpu_s": cpu,
            "peak_rss_mib": rss_mib, "probe": during_run,
            "provenance": _provenance(job.runtime)}


def layer_pass(req: dict) -> dict:
    import cProfile
    import pstats

    import layers as lay
    import workloads

    name, seed, params = req["workload"], req["seed"], req.get("params")
    timed_traced = name in workloads.TRACED_BY_DEFAULT
    problems = []
    runs = {}
    # untraced and traced variants; the one matching the timed
    # configuration also supplies the engine's perf_stats
    for traced in (False, True):
        job = workloads.build(name, seed, params, traced=traced)
        outputs, wall, _cpu = _timed_run(job)
        problems += job.check()
        runs[traced] = (job, outputs, wall)
    _, outputs, wall_off = runs[False]
    traced_job, traced_outputs, wall_on = runs[True]
    if traced_outputs != outputs:
        problems.append(f"tracing changed the outputs: {traced_outputs} "
                        f"vs {outputs}")
    msgs = outputs["messages"]
    seen = lay.traced_sends(traced_job.metrics)
    if seen != msgs:
        problems.append(f"trace saw {seen} mpich2.send records, the stacks "
                        f"counted {msgs} messages")

    perf = runs[timed_traced][0].runtime.sim.perf_stats()
    metrics = {
        "mpi.messages": msgs,
        "sim.events": perf["events_executed"],
        "sim.events_per_msg": perf["events_executed"] / msgs,
        "sim.events_per_s": perf["events_per_sec"],
        "sim.queue_peak": perf["queue_peak"],
        "sim.events_per_batch": perf["events_per_batch"],
        "trace_overhead": wall_on / wall_off,
    }
    metrics.update(lay.model_counters(traced_job.metrics, reported_rails()))

    # cProfile pass over the timed configuration
    job = workloads.build(name, seed, params)
    prof = cProfile.Profile()
    prof.enable()
    job.run()
    prof.disable()
    problems += job.check()
    stats = pstats.Stats(prof)
    layer_of = lay.repro_layer_of(SRC, [workloads.__file__])
    self_s, boundary = lay.aggregate(stats.stats, layer_of)
    if abs(sum(self_s.values()) - stats.total_tt) > 1e-6 * max(1.0, stats.total_tt):
        problems.append(f"layer self-times sum to {sum(self_s.values())}, "
                        f"profile total is {stats.total_tt}")
    metrics.update(lay.layer_metrics(self_s, boundary, stats.total_tt))
    return {"outputs": outputs, "problems": problems, "metrics": metrics,
            "attempted": 3, "provenance": _provenance(job.runtime)}


def main(argv) -> int:
    req = json.loads(argv[1])
    sys.path.insert(0, SRC)
    result = timed(req) if req["mode"] == "timed" else layer_pass(req)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
