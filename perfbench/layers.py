"""Per-layer attribution: host self-time and layer crossings by package,
plus the simulated model counters of a traced run.

A *layer* is a package of :mod:`repro` (``nmad.strategies`` and
``nmad.drivers`` split from ``nmad``, ``mpich2.nemesis`` from
``mpich2``).  The benchmark's own rank programs count as
``workloads`` -- they are the application.  Everything else (stdlib,
builtins, repro modules outside the listed packages, the harness)
is ``other``, so the layer self-times sum to the profiled total.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Tuple

LAYERS = ("simulator", "mpi", "coll", "mpich2", "mpich2.nemesis", "nmad",
          "nmad.strategies", "nmad.drivers", "pioman", "threads",
          "hardware", "runtime", "observability", "workloads", "other")

_PACKAGES = frozenset({"simulator", "mpi", "coll", "pioman", "threads",
                       "hardware", "runtime", "observability", "workloads"})
_SUBPACKAGES = {"mpich2": ("nemesis",), "nmad": ("strategies", "drivers")}


def repro_layer_of(src_root: str, app_files: Iterable[str] = ()
                   ) -> Callable[[str], str]:
    """Map a code object's filename to its layer.

    ``src_root`` is the directory holding the ``repro`` package;
    ``app_files`` are extra files attributed to ``workloads``.
    """
    prefix = os.path.join(os.path.abspath(src_root), "repro") + os.sep
    apps = {os.path.abspath(f) for f in app_files}
    cache: Dict[str, str] = {}

    def layer_of(filename: str) -> str:
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = _classify(filename, prefix, apps)
        return layer

    return layer_of


def _classify(filename: str, prefix: str, apps) -> str:
    path = os.path.abspath(filename)
    if path in apps:
        return "workloads"
    if not path.startswith(prefix):
        return "other"
    parts = path[len(prefix):].split(os.sep)
    pkg = parts[0]
    if pkg in _PACKAGES:
        return pkg
    if pkg in _SUBPACKAGES:
        if len(parts) > 2 and parts[1] in _SUBPACKAGES[pkg]:
            return f"{pkg}.{parts[1]}"
        return pkg
    return "other"


def aggregate(stats: Dict[Tuple, Tuple], layer_of: Callable[[str], str],
              layers: Iterable[str] = LAYERS
              ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer totals.

    Returns ``(self_seconds, boundary_calls)``: the summed self time of
    every function in a layer, and the number of calls into the layer's
    functions made from a function of another layer (caller data).
    """
    self_s: Dict[str, float] = defaultdict(float)
    boundary: Dict[str, int] = defaultdict(int)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        self_s[layer] += tt
        for caller, caller_stats in callers.items():
            if layer_of(caller[0]) != layer:
                boundary[layer] += caller_stats[0]   # calls from that caller
    return ({name: self_s.get(name, 0.0) for name in layers},
            {name: boundary.get(name, 0) for name in layers})


def layer_metrics(self_s: Dict[str, float], boundary: Dict[str, int],
                  total: float) -> Dict[str, float]:
    """``host_self_s.*`` / ``host_share.*`` / ``boundary_calls.*``."""
    out: Dict[str, float] = {"host_profiled_s": total}
    for name in self_s:
        out[f"host_self_s.{name}"] = self_s[name]
        out[f"host_share.{name}"] = self_s[name] / total if total else 0.0
        out[f"boundary_calls.{name}"] = boundary[name]
    return out


def model_counters(metrics: Any, rails: Iterable[str] = ()
                   ) -> Dict[str, float]:
    """Simulated counters of a traced run, bracket labels as dots.

    The ``nic.*`` counters cover every rail the run transmitted on plus
    ``rails``, the ones the report names (zero when the run's cluster
    lacks them).
    """
    reg = metrics.registry

    def counter(name: str, label: Any = None) -> float:
        return reg.counter(name, label).value

    polls, ltasks = counter("pioman.polls"), counter("pioman.ltasks")
    out = {
        "mpich2.sends.direct": counter("mpich2.sends", "direct"),
        "mpich2.sends.shm": counter("mpich2.sends", "shm"),
        "mpich2.cell_copy_bytes": counter("mpich2.cell_copy_bytes"),
        "nmad.messages_sent": counter("nmad.messages_sent"),
        "nmad.unexpected": counter("nmad.unexpected"),
        "nmad.unexpected_residency.mean":
            reg.histogram("nmad.unexpected_residency").mean,
        "strategy.pw_entries.mean": reg.histogram("strategy.pw_entries").mean,
        "pioman.polls": polls,
        "pioman.ltasks": ltasks,
        "pioman.ltasks_per_poll": ltasks / polls if polls else 0.0,
        "pioman.sem_wait_time.total":
            reg.histogram("pioman.sem_wait_time").total,
        "coll.calls": sum(counter("coll.calls", label)
                          for label in reg.labels_of("coll.calls")),
    }
    busy = metrics.nic_busy_fraction()
    for rail in sorted(set(reg.labels_of("nic.tx_bytes")) | set(rails)):
        out[f"nic.tx_frames.{rail}"] = counter("nic.tx_frames", rail)
        out[f"nic.tx_bytes.{rail}"] = counter("nic.tx_bytes", rail)
        out[f"nic.busy_frac.{rail}"] = busy.get(rail, 0.0)
    return out


def traced_sends(metrics: Any) -> float:
    """``mpich2.send`` records seen by the metrics feed (all paths)."""
    reg = metrics.registry
    return sum(reg.counter("mpich2.sends", label).value
               for label in reg.labels_of("mpich2.sends"))
