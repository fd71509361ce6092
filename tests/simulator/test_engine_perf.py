"""Engine run-loop perf telemetry: events, queue peak, wall time."""

from repro.observability import (format_engine_stats, peak_rss_kib,
                                 record_engine_metrics)
from repro.simulator import Simulator


def _burst(sim, n):
    hit = [0]
    for i in range(n):
        sim.schedule(i * 1e-9, lambda: hit.__setitem__(0, hit[0] + 1))
    return hit


def test_perf_stats_count_events_and_queue_peak():
    sim = Simulator()
    _burst(sim, 50)
    sim.run()
    stats = sim.perf_stats()
    assert stats["events_executed"] == 50
    assert stats["queue_peak"] == 50      # all scheduled before running
    assert stats["wall_seconds"] >= 0.0
    assert stats["events_per_sec"] >= 0.0


def test_perf_stats_name_the_scheduler():
    sim = Simulator()
    _burst(sim, 10)
    sim.run()
    stats = sim.perf_stats()
    assert stats["scheduler"] == "heap"
    assert stats["batches_executed"] == 10      # one per distinct instant
    assert stats["events_per_batch"] == 1.0


def test_same_time_flood_is_one_batch():
    sim = Simulator()
    hit = [0]
    for _ in range(100):                  # one timestamp, one batch
        sim.schedule(1e-6, lambda: hit.__setitem__(0, hit[0] + 1))
    sim.run()
    stats = sim.perf_stats()
    assert hit[0] == 100
    assert stats["batches_executed"] == 1
    assert stats["events_per_batch"] == 100.0


def test_in_place_wakes_are_not_events():
    sim = Simulator()
    woken = []
    sim.timeout(1.0).add_done_callback(lambda evt: woken.append(sim.now))
    sim.run()
    assert woken == [1.0]
    # the timeout fire is the only queue dispatch
    assert sim.perf_stats()["events_executed"] == 1


def test_perf_stats_accumulate_across_runs():
    sim = Simulator()
    _burst(sim, 10)
    sim.run()
    _burst(sim, 10)
    sim.run()
    assert sim.perf_stats()["events_executed"] == 20


def test_perf_stats_on_bounded_run():
    sim = Simulator()
    _burst(sim, 10)
    sim.run(until=4.5e-9)                 # until-path, not the hot loop
    stats = sim.perf_stats()
    assert stats["events_executed"] == 5
    assert stats["wall_seconds"] >= 0.0


def test_process_telemetry_counts_generator_turns():
    sim = Simulator()

    def proc():
        for _ in range(8):
            yield sim.timeout(1e-9)

    sim.spawn(proc())
    sim.run()
    assert sim.perf_stats()["events_executed"] >= 8


def test_record_engine_metrics_feeds_registry():
    sim = Simulator()
    _burst(sim, 5)
    sim.run()
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    stats = record_engine_metrics(sim, registry)
    snap = registry.snapshot()
    assert snap["engine.events"]["value"] == 5
    assert snap["engine.queue_peak"]["value"] == 5
    assert "engine.heap_peak" not in snap
    assert snap["process.peak_rss_kib"]["value"] == stats["peak_rss_kib"]
    assert stats["peak_rss_kib"] > 0
    text = format_engine_stats(stats)
    assert "5 events" in text
    assert "queue peak 5" in text
    assert f"scheduler {stats['scheduler']}" in text


def test_peak_rss_positive():
    assert peak_rss_kib() > 0
