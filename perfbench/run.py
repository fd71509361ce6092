"""Layer-resolved host benchmark of the simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nas_lu_c64 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

``--trace 0`` measures the end-to-end metrics: after one correctness
run at the pinned default seed, it starts fresh interpreters running
the workload once each (``rep.py``) until ``--seconds`` have passed,
cycling through :data:`INSTANCES` input instances derived from
``--seed``.  In each of those interpreters a background thread
(``hostspeed.Probe``) times a short chunk of a fixed reference loop
every 20 ms while the simulation runs.  The shared host this benchmark
was written on changes speed by up to 2x from one second to the next,
and the chunks, interleaved with the simulation on the same core by
the GIL, slow down with it.  So every time is reported at the
reference host speed: measured time x (:data:`REFERENCE_S` / a chunk's
typical time during the run) ** :data:`EXPONENT`, where
``REFERENCE_S`` is what a chunk takes on a quiet host.  No change to
the simulator moves the reference loop, so a slower simulator still
reads slower.  ``wall_s``, ``cpu_s``, ``setup_s`` and ``msgs_per_s``
(the message count over the scaled wall time) are medians of those
scaled values over the runs; ``peak_rss_mib`` is the median peak
memory.  ``--trace 1`` runs the per-layer pass instead (untraced,
traced and cProfile'd runs) and reports the metrics named under
``per_layer`` in ``BENCHMARK.json``.

Every run's simulated outputs are checked: delivery invariants for any
seed, and the values pinned in ``perfbench/matrix.json`` for the
default seed.  A run that raises, deadlocks or mismatches counts as a
failed operation.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark refuses to run when ``REPRO_SCHEDULER`` or
``REPRO_PROGRESS`` is set, so it always measures a commit's defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (perfbench sibling; imports no repro)

#: environment knobs that would change what a commit measures
KNOBS = ("REPRO_SCHEDULER", "REPRO_PROGRESS")
#: seconds a fresh interpreter may take before it is killed as hung:
#: one timed run, or the three runs of the per-layer pass
TIMED_TIMEOUT, LAYERS_TIMEOUT = 60.0, 120.0
#: seconds one ``hostspeed.reference_loop`` chunk takes on a quiet
#: host (2-vCPU KVM guest on a shared Intel Xeon host, Python 3.11):
#: the unit to which the end-to-end times are scaled
REFERENCE_S = 0.0007
#: how much of the probe's slowdown a simulation shares: the ~1 ms
#: chunks slow down more than a simulation does in the same host
#: state; the log-log slope of a run's CPU time on the typical chunk
#: time during it was 0.72-0.82 in four samples of 39-101 runs of
#: nas_lu_c64 and allreduce_64k_p64 on that host
EXPONENT = 0.75
#: input instances one ``--trace 0`` run cycles through: run ``i`` of
#: seed ``s`` uses instance seed ``s * INSTANCES + i % INSTANCES``.
#: The seed picks the OS-noise interleaving, which alone moves
#: nas_lu_c64's host time by up to 10% at the same message count, so
#: a run reports the median over several instances, not one.
INSTANCES = 5


class Tally:
    """Operations attempted/failed across one benchmark invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.provenance: Dict[str, Any] = {}

    def spawn(self, req: Dict[str, Any], runs: int = 1,
              pins: Optional[Dict[str, Any]] = None) -> Optional[dict]:
        """Run ``rep.py`` on ``req``; None (and ``runs`` failures) if it
        crashed, timed out, or reported a problem."""
        self.attempted += runs
        timeout = TIMED_TIMEOUT if req["mode"] == "timed" else LAYERS_TIMEOUT
        try:
            proc = subprocess.run(
                [sys.executable, REP, json.dumps(req)], cwd=ROOT,
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(runs, f"{req['workload']}: no result within "
                                    f"{timeout:.0f} s (hung run)")
        if proc.returncode != 0:
            return self._fail(runs, f"{req['workload']} seed {req['seed']} "
                                    f"raised:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = list(result["problems"])
        if pins is not None:
            problems += workloads.pin_problems(req["workload"], req["seed"],
                                               result["outputs"], pins)
        if problems:
            return self._fail(runs, "\n".join(problems))
        self.provenance = result["provenance"]
        return result

    def _fail(self, runs: int, why: str) -> None:
        self.failed += runs
        print(f"FAILED: {why}", file=sys.stderr)


def _gate(tally: Tally, name: str, params, pins) -> None:
    """The default-seed run whose outputs must equal the pinned ones
    (also warms the bytecode cache before anything is timed)."""
    tally.spawn({"mode": "timed", "workload": name, "params": params,
                 "seed": workloads.DEFAULT_SEED}, pins=pins)


def scaled(rep: dict) -> Dict[str, float]:
    """One timed run's end-to-end metrics at the reference host speed."""
    probe = rep["probe"]
    wall_speed = (REFERENCE_S / probe["chunk_wall"]) ** EXPONENT
    cpu_speed = (REFERENCE_S / probe["chunk_cpu"]) ** EXPONENT
    wall = rep["wall_s"] * wall_speed
    return {"wall_s": wall, "cpu_s": rep["cpu_s"] * cpu_speed,
            "setup_s": rep["setup_s"] * wall_speed,
            "msgs_per_s": rep["outputs"]["messages"] / wall,
            "peak_rss_mib": rep["peak_rss_mib"]}


def measure_end_to_end(name: str, seed: int, seconds: float,
                       params=None, pins=None) -> tuple:
    """End-to-end metrics: medians over fresh-interpreter runs, with
    times scaled to the reference host speed."""
    tally = Tally()
    _gate(tally, name, params, pins)
    reps: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        instance = seed * INSTANCES + tally.attempted % INSTANCES
        rep = tally.spawn({"mode": "timed", "workload": name,
                           "seed": instance, "params": params}, pins=pins)
        if rep is not None:
            reps.append(scaled(rep))
        if time.perf_counter() - start >= seconds:
            break
    metrics: Dict[str, float] = {}
    if reps:
        metrics = {key: statistics.median(r[key] for r in reps)
                   for key in reps[0]}
    return tally, metrics


def measure_layers(name: str, seed: int, params=None, pins=None) -> tuple:
    """The per-layer pass (one fresh interpreter, three runs)."""
    tally = Tally()
    _gate(tally, name, params, pins)
    result = tally.spawn({"mode": "layers", "workload": name, "seed": seed,
                          "params": params}, runs=3, pins=pins)
    return tally, (result["metrics"] if result is not None else {})


def render_table(name: str, trace: int, specs, metrics, tally) -> str:
    title = "per-layer" if trace else "end-to-end"
    lines = [f"== {name}: {title} metrics "
             f"({tally.attempted} runs attempted, {tally.failed} failed) ==",
             f"{'metric':<36} {'value':>16}  unit"]
    for spec in specs:
        value = metrics.get(spec["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"{spec['name']:<36} {shown:>16}  {spec['unit']}")
    return "\n".join(lines)


def run_one(bench, name: str, seed: int, seconds: float, trace: int,
            pins) -> Dict[str, Any]:
    if trace:
        tally, metrics = measure_layers(name, seed, pins=pins)
    else:
        tally, metrics = measure_end_to_end(name, seed, seconds, pins=pins)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    print(render_table(name, trace, specs, metrics, tally))
    print("provenance " + json.dumps(dict(tally.provenance, workload=name,
                                          seed=seed, trace=trace)))
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        tally.failed = max(tally.failed, 1)
        print(f"FAILED: {name}: no value for {', '.join(missing)}",
              file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {s["name"]: {"value": metrics[s["name"]],
                                    "unit": s["unit"]}
                        for s in specs if s["name"] in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per --trace 0 run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default with --workload all: both)")
    args = parser.parse_args(argv)

    knobs = [k for k in KNOBS if os.environ.get(k) is not None]
    if knobs:
        print(f"refusing to run with {', '.join(knobs)} set: the benchmark "
              "measures the defaults a commit ships", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator source under {os.path.join(ROOT, 'src')}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    pins = workloads.load_matrix()["pins"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    if args.workload != "all":
        trace = args.trace or 0
        result = run_one(bench, args.workload, args.seed, seconds, trace,
                         pins)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = [0, 1] if args.trace is None else [args.trace]
    for name in workloads.WORKLOADS:
        for trace in traces:
            result = run_one(bench, name, args.seed, seconds, trace, pins)
            print()
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
