"""Differential harness: the shipped event queue must be *exactly* one heap.

The engine's ready lane and in-place wake (see
:mod:`repro.simulator.engine`) are only allowed because dispatch order
stays bit-identical to a single binary heap that queues every wake-up.
This module enforces that end to end, with the ``heap`` reference and
the shipped ``lane`` mode of :mod:`tests.simulator.conftest`, at three
zoom levels:

* every experiment module pinned by a golden (``tests/goldens/*.json``)
  produces byte-identical canonical JSON under both, run through the
  real campaign machinery with the result cache disabled (a cache hit
  would silently compare a result against itself);
* a subset of fig8's NAS points (the heaviest golden, covered in
  points mode like the golden itself) round-trips identically;
* both stack presets run a traced ping-pong to identical
  :class:`RunResult` fields *and* identical trace-record streams —
  order included, which is the sharpest observable of dispatch order.

Everything runs in fast mode and uncached; the point is equivalence,
not the pinned values (``test_goldens.py`` owns those).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro import config
from repro.campaign import canonical_json, execute_point, run_campaign
from repro.campaign.cache import _as_plain
from repro.faults.determinism import fresh_id_space
from repro.runtime import MPIRuntime
from repro.simulator import Trace
from repro.workloads.netpipe import pingpong
from tests.simulator.conftest import SCHEDULERS, use_scheduler

GOLDEN_DIR = Path(__file__).parents[1] / "goldens"

#: modules pinned by merged-mode goldens (fig8 is points-mode, below)
_MERGED_MODULES = sorted(
    golden["module"]
    for golden in (json.load(open(p)) for p in GOLDEN_DIR.glob("*.json"))
    if golden["mode"] == "merged"
)

#: two fig8 NAS points, one small and one mid-size communicator
_FIG8_POINT_KEYS = ["8/MPICH2-NMad_NO_PIOMan/cg",
                    "16/MPICH2-NMad_with_PIOMan/ft"]


def _campaign_result(module: str, kind: str) -> str:
    with use_scheduler(kind):
        fresh_id_space()     # frame/pw/rdv ids are process-global counters
        report = run_campaign(modules=[module], fast=True, cache=None)
    return canonical_json(_as_plain(report.modules[module]))


@pytest.mark.parametrize("module", _MERGED_MODULES)
def test_golden_module_bit_identical_across_schedulers(module: str) -> None:
    heap = _campaign_result(module, "heap")
    lane = _campaign_result(module, "lane")
    assert heap == lane, f"module {module} diverges between schedulers"


def _fig8_points() -> List[Any]:
    from repro.experiments import fig8_nas

    wanted = set(_FIG8_POINT_KEYS)
    points = [p for p in fig8_nas.points(fast=True) if p.key in wanted]
    assert {p.key for p in points} == wanted
    return points


def test_fig8_points_bit_identical_across_schedulers() -> None:
    results: Dict[str, Dict[str, str]] = {}
    for kind in SCHEDULERS:
        with use_scheduler(kind):
            fresh_id_space()
            results[kind] = {p.key: canonical_json(_as_plain(
                                 execute_point(p.config())))
                             for p in _fig8_points()}
    assert results["heap"] == results["lane"]


_PRESETS = {
    "mpich2_nmad": config.mpich2_nmad,
    "mpich2_nmad_reliable": config.mpich2_nmad_reliable,
}


def _traced_pingpong(preset: str, kind: str):
    with use_scheduler(kind):
        fresh_id_space()
        trace = Trace()
        runtime = MPIRuntime(2, _PRESETS[preset](),
                             cluster=config.xeon_pair(), trace=trace)
        result = runtime.run(pingpong(16384, reps=4, warmup=1))
    return result, trace, runtime.sim.events_executed


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_preset_trace_streams_identical(preset: str) -> None:
    heap_result, heap_trace, heap_events = _traced_pingpong(preset, "heap")
    lane_result, lane_trace, lane_events = _traced_pingpong(preset, "lane")

    assert heap_result.elapsed == lane_result.elapsed
    assert heap_result.sim_time == lane_result.sim_time
    assert heap_result.rank_times == lane_result.rank_times
    assert heap_result.rank_results == lane_result.rank_results
    # the lane mode really took its shortcuts: fewer queue dispatches
    assert lane_events < heap_events

    div = heap_trace.first_divergence(lane_trace)
    assert div is None, (
        f"{preset}: trace diverges at record {div}: "
        f"heap={list(heap_trace)[div:div + 1]} "
        f"lane={list(lane_trace)[div:div + 1]}")
