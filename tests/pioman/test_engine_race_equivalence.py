"""Race-detector coverage across progress engines.

Every engine reshuffles *when* protocol work runs (background worker,
application thread, dedicated stealer), so each one exercises different
interleavings of the same shared state — and all of them must stay
race-free on both stack presets.  A seeded true positive routed
*through* each engine's ltask path proves the detector still sees real
races identically whichever engine carried the racy write: the engines
may not hide a race behind their own queue handling.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.analysis.race import RaceDetector, run_race
from repro.hardware.params import NodeParams
from repro.pioman import ENGINE_KINDS, make_engine
from repro.simulator import Simulator
from repro.threads import MarcelScheduler

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


@pytest.mark.parametrize("preset", sorted(_PRESETS))
@pytest.mark.parametrize("engine", sorted(ENGINE_KINDS))
def test_presets_race_free_under_every_engine(preset, engine) -> None:
    report = run_race(_PRESETS[preset](progress=engine),
                      size=16384, reps=2)
    assert report.accesses > 50, \
        f"{engine}: instrumentation did not fire"
    assert report.clean, f"{engine}: {report.format_text()}"


def _seeded_racy_run(engine_kind):
    """One true race whose racy write travels through the engine.

    The writer is an *ltask* submitted to the engine under test; the
    reader reads ``shared`` with no ordering edge to it.  A second
    variable is handed off through an event so every engine also shows
    an ordered (non-racy) pair.  For background engines the ltask runs
    on the engine's worker; for ``manual_poll`` a separate *poller*
    task drains it (a second rank inside the library) — in every case
    the racy write lands in a context distinct from the reader's.
    """
    detector = RaceDetector()
    sim = Simulator()
    detector.install(sim)
    sched = MarcelScheduler(sim, NodeParams(cores=2))
    engine = make_engine(engine_kind, sim, sched)
    done = sim.event()

    def racy_ltask():
        sim.race_write("shared")               # racy: no edge to reader
        sim.race_write("handed-off")
        done.succeed()
        yield sim.timeout(0)

    def submitter():
        yield sim.timeout(1e-6)
        engine.submit(racy_ltask, rank=0)

    def poller():
        yield sim.timeout(1.5e-6)
        yield from engine.progress()           # manual_poll drains here

    def reader():
        yield sim.timeout(2e-6)
        sim.race_read("shared")

    def follower():
        yield done                             # ordered: via the event
        sim.race_read("handed-off")

    sim.spawn(submitter(), name="submitter")
    sim.spawn(poller(), name="poller")
    sim.spawn(reader(), name="reader")
    sim.spawn(follower(), name="follower")
    sim.run()
    return detector.report()


def test_seeded_race_found_identically_under_all_engines() -> None:
    shapes = {kind: _report_shape(_seeded_racy_run(kind))
              for kind in sorted(ENGINE_KINDS)}
    for kind, shape in shapes.items():
        assert [r[0] for r in shape["races"]] == ["shared"], (
            f"{kind}: expected exactly the seeded race, got "
            f"{shape['races']}")
    # every engine reports the same racy variable set; tick/context
    # detail legitimately differs with *where* the ltask ran
    race_vars = {kind: sorted({r[0] for r in shape["races"]})
                 for kind, shape in shapes.items()}
    assert len(set(map(tuple, race_vars.values()))) == 1
