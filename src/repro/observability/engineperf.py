"""Engine and process performance telemetry -> metrics registry.

The simulator accumulates host-side run-loop counters (events
dispatched, high-water queue length, wall seconds — see
:meth:`repro.simulator.engine.Simulator.perf_stats`); this module
lands them in a :class:`~repro.observability.metrics.MetricsRegistry`
under the ``engine.*`` / ``process.*`` names, next to the simulated
stack metrics, so one snapshot carries both "what the simulation did"
and "what it cost to simulate".

Metrics fed:

* ``engine.events`` — queue dispatches (counter)
* ``engine.events_per_sec`` — dispatch throughput (gauge)
* ``engine.queue_peak`` — high-water event-queue length (gauge)
* ``engine.wall_seconds`` — host seconds inside ``run`` (counter)
* ``process.peak_rss_kib`` — process high-water resident set (gauge)
"""

from __future__ import annotations

import resource
import sys
from typing import Any, Dict, Optional

from repro.observability.metrics import MetricsRegistry
from repro.simulator.engine import Simulator


def peak_rss_kib() -> float:
    """The process's high-water resident set size, in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here.
    """
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        peak /= 1024.0
    return peak


def record_engine_metrics(sim: Simulator,
                          registry: Optional[MetricsRegistry] = None,
                          ) -> Dict[str, Any]:
    """Land ``sim``'s run-loop telemetry in ``registry``; returns it.

    Call after the run completes.  The returned dict is
    ``sim.perf_stats()`` plus ``peak_rss_kib``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    stats = dict(sim.perf_stats())
    stats["peak_rss_kib"] = peak_rss_kib()
    registry.counter("engine.events").inc(stats["events_executed"])
    registry.gauge("engine.events_per_sec").set(stats["events_per_sec"])
    registry.gauge("engine.queue_peak").set(stats["queue_peak"])
    registry.counter("engine.wall_seconds").inc(stats["wall_seconds"])
    registry.gauge("process.peak_rss_kib").set(stats["peak_rss_kib"])
    return stats


def format_engine_stats(stats: Dict[str, Any]) -> str:
    """One-paragraph rendering of :func:`record_engine_metrics` output."""
    scheduler = stats.get("scheduler", "heap")
    return (
        f"engine: {int(stats['events_executed'])} events in "
        f"{stats['wall_seconds']:.3f}s wall "
        f"({stats['events_per_sec']:,.0f} events/s), "
        f"scheduler {scheduler}, "
        f"queue peak {int(stats['queue_peak'])}, "
        f"process peak RSS {stats['peak_rss_kib'] / 1024:.1f} MiB")
