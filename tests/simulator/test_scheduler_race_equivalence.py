"""Monitored-mode equivalence: ``repro race`` sees the execution that runs.

With a monitor installed the engine drops its ready lane and in-place
wake and dispatches from the one heap, so the happens-before graph the
race detector builds (contexts, sync edges, access order) must be
identical in the ``heap`` and ``lane`` modes of
:mod:`tests.simulator.conftest` — and the monitored run must dispatch in
the same order as the unmonitored kernel, or the detector would be
analysing an interleaving that production never executes.  These tests
run the real ``run_race`` harness on both stack presets and a seeded
true positive under both modes and compare every observable.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.analysis.race import RaceDetector, run_race
from repro.faults.determinism import fresh_id_space
from repro.runtime import MPIRuntime
from repro.simulator import Simulator, Trace
from repro.workloads.netpipe import pingpong
from tests.simulator.conftest import SCHEDULERS, use_scheduler

_PRESETS = {
    "mpich2_nmad": config.mpich2_nmad,
    "mpich2_nmad_reliable": config.mpich2_nmad_reliable,
}


def _report_shape(report):
    """Every comparable observable of a race report."""
    return {
        "accesses": report.accesses,
        "contexts": report.contexts,
        "syncs": report.syncs,
        "variables": report.variables,
        "dropped": report.dropped,
        "races": [(r.var,
                   r.first.ctx_name, r.first.write, r.first.tick,
                   r.second.ctx_name, r.second.write, r.second.tick)
                  for r in report.races],
    }


def _traced_pingpong(preset: str, monitored: bool) -> Trace:
    """``run_race``'s workload, traced, with or without the detector."""
    fresh_id_space()
    trace = Trace()
    runtime = MPIRuntime(2, _PRESETS[preset](), cluster=config.xeon_pair(),
                         trace=trace)
    if monitored:
        RaceDetector().install(runtime.sim)
    runtime.run(pingpong(16384, reps=2, warmup=0))
    return trace


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_preset_race_reports_identical_across_schedulers(preset) -> None:
    reports = {}
    for kind in SCHEDULERS:
        with use_scheduler(kind):
            reports[kind] = run_race(_PRESETS[preset](), size=16384, reps=2)
            bare = _traced_pingpong(preset, monitored=False)
            watched = _traced_pingpong(preset, monitored=True)
        div = bare.first_divergence(watched)
        assert div is None, (
            f"{kind}: the monitored run diverges at record {div}")
    for kind, report in reports.items():
        assert report.accesses > 50, f"{kind}: instrumentation did not fire"
        assert report.clean, f"{kind}: {report.format_text()}"
    assert _report_shape(reports["heap"]) == _report_shape(reports["lane"])


def _seeded_racy_run(kind):
    """A toy with one true race plus ordered traffic, under ``kind``."""
    with use_scheduler(kind):
        detector = RaceDetector()
        sim = Simulator()
        detector.install(sim)
        done = sim.event()

        def writer():
            yield sim.timeout(1e-6)
            sim.race_write("shared")           # racy: no edge to reader
            sim.race_write("handed-off")
            done.succeed()

        def reader():
            yield sim.timeout(2e-6)
            sim.race_read("shared")

        def follower():
            yield done                         # ordered: via the event
            sim.race_read("handed-off")

        sim.spawn(writer(), name="writer")
        sim.spawn(reader(), name="reader")
        sim.spawn(follower(), name="follower")
        sim.run()
    return detector.report()


def test_seeded_race_found_identically_across_schedulers() -> None:
    shapes = {kind: _report_shape(_seeded_racy_run(kind))
              for kind in SCHEDULERS}
    assert [r[0] for r in shapes["lane"]["races"]] == ["shared"]
    assert shapes["heap"] == shapes["lane"]
