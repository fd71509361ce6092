"""Cross-engine differential harness for the pluggable progress layer.

The refactor of ``repro.pioman.manager`` into ``repro.pioman.engines``
is only safe because the reference engine is *provably* unchanged and
the alternatives differ only where they are documented to.  This
enforces, at three zoom levels:

* every experiment module pinned by a merged-mode golden produces
  byte-identical canonical JSON with ``REPRO_PROGRESS`` unset vs
  pinned to the reference engine, through the real campaign machinery
  with the cache disabled — together with ``test_goldens.py`` (whose
  values predate the refactor) this proves the reference engine is
  byte-identical to the pre-refactor behaviour;
* campaign results are *immune* to the env knob (executors pin the
  engine into the point config, because results are content-addressed
  by the point alone), while fig6/fig7-style points re-executed with
  an explicit per-point engine show exactly the documented deltas:
  manual_poll strictly faster on latency, strictly slower on overlap;
  dedicated_thread never slower than the reference on either axis;
* traced preset runs compare record-by-record via
  ``Trace.first_divergence``: identical for the reference engine
  however it is selected, deterministic per engine, and genuinely
  divergent across engines (the seam is live, not cosmetic).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro import config
from repro.campaign import canonical_json, execute_point, run_campaign
from repro.campaign.cache import _as_plain
from repro.campaign.points import Point, stack_ref
from repro.faults.determinism import fresh_id_space
from repro.pioman import ENGINE_KINDS, PROGRESS_ENV
from repro.runtime import run_mpi
from repro.simulator import Trace
from repro.workloads.netpipe import pingpong

GOLDEN_DIR = Path(__file__).parents[1] / "goldens"

_MERGED_MODULES = sorted(
    golden["module"]
    for golden in (json.load(open(p)) for p in GOLDEN_DIR.glob("*.json"))
    if golden["mode"] == "merged"
)

ALTERNATIVES = ("manual_poll", "dedicated_thread")

assert set(ENGINE_KINDS) == {"pioman", "manual_poll", "dedicated_thread"}, \
    "new engine kinds must be added to this differential harness"


def _campaign_result(module: str, env: str, monkeypatch) -> str:
    if env:
        monkeypatch.setenv(PROGRESS_ENV, env)
    else:
        monkeypatch.delenv(PROGRESS_ENV, raising=False)
    fresh_id_space()     # frame/pw/rdv ids are process-global counters
    report = run_campaign(modules=[module], fast=True, cache=None)
    return canonical_json(_as_plain(report.modules[module]))


@pytest.mark.parametrize("module", _MERGED_MODULES)
def test_golden_module_bit_identical_under_reference_engine(
        module: str, monkeypatch) -> None:
    default = _campaign_result(module, "", monkeypatch)
    pinned = _campaign_result(module, "pioman", monkeypatch)
    assert default == pinned, (
        f"module {module} diverges between the default and the "
        f"explicitly selected reference engine")


def test_campaigns_are_immune_to_the_env_knob(monkeypatch) -> None:
    """The executor pins the engine: an ambient REPRO_PROGRESS must not
    change campaign results (they are content-addressed by the point
    config alone — an env-sensitive result would poison the cache)."""
    default = _campaign_result("fig6_pioman_overhead", "", monkeypatch)
    manual = _campaign_result("fig6_pioman_overhead", "manual_poll",
                              monkeypatch)
    assert default == manual


# ---------------------------------------------------------------------------
# fig6/fig7-style points re-executed per engine: the documented deltas
# ---------------------------------------------------------------------------

def _lat_point(engine: str) -> Point:
    return Point("ext_progress", f"lat/{engine}/16384", "netpipe",
                 {"stack": stack_ref("mpich2_nmad_pioman", rails=["mx"],
                                     progress=engine),
                  "size": 16384, "reps": 3})


def _overlap_point(engine: str) -> Point:
    return Point("ext_progress", f"overlap/{engine}/262144", "overlap",
                 {"stack": stack_ref("mpich2_nmad_pioman", progress=engine),
                  "size": 262144, "compute": 400e-6, "reps": 2})


def _per_engine(make_point) -> Dict[str, dict]:
    out = {}
    for engine in sorted(ENGINE_KINDS):
        fresh_id_space()
        out[engine] = execute_point(make_point(engine).config())
    return out


def test_latency_deltas_across_engines() -> None:
    lat = {e: r["latency"] for e, r in _per_engine(_lat_point).items()}
    # documented crossover: no sync overhead -> manual_poll wins latency
    assert lat["manual_poll"] < lat["pioman"]
    # no poll_period detection delay -> dedicated also beats the reference
    assert lat["dedicated_thread"] < lat["pioman"]
    assert lat["manual_poll"] < lat["dedicated_thread"]


def test_overlap_deltas_across_engines() -> None:
    snd = {e: r["sending_time"]
           for e, r in _per_engine(_overlap_point).items()}
    # documented crossover: no background progress -> manual_poll loses
    # the overlap the threaded design was built for
    assert snd["manual_poll"] > snd["pioman"]
    # a dedicated progress thread overlaps at least as well
    assert snd["dedicated_thread"] <= snd["pioman"]


def test_explicit_reference_point_matches_default() -> None:
    fresh_id_space()
    explicit = canonical_json(_as_plain(
        execute_point(_lat_point("pioman").config())))
    point = Point("ext_progress", "lat/default/16384", "netpipe",
                  {"stack": stack_ref("mpich2_nmad_pioman", rails=["mx"]),
                   "size": 16384, "reps": 3})
    fresh_id_space()
    default = canonical_json(_as_plain(execute_point(point.config())))
    assert explicit == default


# ---------------------------------------------------------------------------
# record-by-record traced preset comparison
# ---------------------------------------------------------------------------

_PRESETS = {
    "mpich2_nmad_pioman": config.mpich2_nmad_pioman,
    "mpich2_nmad_reliable": config.mpich2_nmad_reliable,
}


def _traced_pingpong(preset: str, engine) -> Tuple[object, Trace]:
    fresh_id_space()
    trace = Trace()
    result = run_mpi(pingpong(16384, reps=4, warmup=1), 2,
                     _PRESETS[preset](progress=engine),
                     cluster=config.xeon_pair(), trace=trace)
    return result, trace


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_reference_trace_identical_to_default(
        preset: str, monkeypatch) -> None:
    monkeypatch.delenv(PROGRESS_ENV, raising=False)
    dflt_result, dflt_trace = _traced_pingpong(preset, None)
    ref_result, ref_trace = _traced_pingpong(preset, "pioman")

    assert dflt_result.elapsed == ref_result.elapsed
    assert dflt_result.sim_time == ref_result.sim_time
    assert dflt_result.rank_times == ref_result.rank_times
    assert dflt_result.rank_results == ref_result.rank_results

    div = dflt_trace.first_divergence(ref_trace)
    assert div is None, (
        f"{preset}: default vs reference engine diverges at record {div}")


@pytest.mark.parametrize("preset", sorted(_PRESETS))
@pytest.mark.parametrize("engine", sorted(ENGINE_KINDS))
def test_each_engine_is_deterministic(preset: str, engine: str) -> None:
    first_result, first_trace = _traced_pingpong(preset, engine)
    again_result, again_trace = _traced_pingpong(preset, engine)
    assert first_result.elapsed == again_result.elapsed
    assert first_result.rank_results == again_result.rank_results
    div = first_trace.first_divergence(again_trace)
    assert div is None, f"{preset}/{engine}: nondeterministic at {div}"


@pytest.mark.parametrize("preset", sorted(_PRESETS))
@pytest.mark.parametrize("engine", sorted(ALTERNATIVES))
def test_alternative_engines_genuinely_diverge(
        preset: str, engine: str) -> None:
    """The seam is live: alternatives change the record stream."""
    _, ref_trace = _traced_pingpong(preset, "pioman")
    alt_result, alt_trace = _traced_pingpong(preset, engine)
    assert alt_result.elapsed > 0
    assert ref_trace.first_divergence(alt_trace) is not None
