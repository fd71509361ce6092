"""Structured trace recording for simulations.

Tracing is opt-in: construct a :class:`Trace` and pass it to the
:class:`~repro.simulator.engine.Simulator`.  Subsystems then emit
records through ``sim.record(category, **data)``.  Records are cheap
named tuples; filtering helpers make assertions in tests readable.

Hot call sites guard on the simulator's truthy ``sim.tracing`` flag so
that a disabled trace costs exactly one attribute check (no kwargs
dict is built).

Category names follow the ``<layer>.<event>`` taxonomy documented in
:mod:`repro.observability.taxonomy` (and ``docs/OBSERVABILITY.md``):
the prefix before the first dot names the emitting layer (``nic``,
``nmad``, ``strategy``, ``pioman``, ``mpich2``).

Live consumers (e.g. the metrics registry of
:mod:`repro.observability.metrics` and the span profiler of
:mod:`repro.observability.profile`) attach through
:meth:`Trace.subscribe` and see every admitted record as it is
appended.  A subscriber that raises is detached (and the error kept in
:attr:`Trace.subscriber_errors`) instead of poisoning every subsequent
record.

Memory-bounded sinks for large runs (the ``p >= 64`` sweeps):

* :class:`RingTrace` — keeps only the last ``capacity`` records in a
  ring buffer; subscribers still stream over everything admitted, so
  live consumers lose nothing;
* :class:`JsonlTrace` — spills every record to disk as one JSON line
  (reload with :func:`load_trace_jsonl`), retaining nothing in memory;
* :class:`TraceSampler` — deterministic per-category stride and
  per-entity (rank/node) filtering, attachable to any sink.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

__all__ = ["TraceRecord", "TraceSampler", "Trace", "RingTrace", "JsonlTrace",
           "load_trace_jsonl"]


class TraceRecord(NamedTuple):
    time: float
    category: str
    data: Dict[str, Any]


#: data keys that identify the emitting entity, in lookup order
#: (rank-scoped records first, node-scoped ones as fallback)
_ENTITY_KEYS = ("rank", "dst", "src", "node")


class TraceSampler:
    """Deterministic record sampling for a :class:`Trace` sink.

    ``strides`` maps a category (``"pioman.poll"``) or a whole layer
    (``"pioman"``) to an admit-every-Nth stride; the per-key counters
    make the decision a pure function of the record sequence, never of
    host state (no RNG — the determinism lint would flag it anyway).
    ``entities`` restricts recording to the given rank/node ids (the
    first of ``rank``/``dst``/``src``/``node`` present in the record's
    data); records naming no entity are always admitted.

    Begin/end span categories (``*.begin``/``*.end``) are never
    stride-sampled — dropping half of a begin/end stream would leave
    the profiler with unmatched pairs — but the entity filter applies.
    """

    def __init__(self, strides: Optional[Dict[str, int]] = None,
                 entities: Optional[Sequence[int]] = None):
        for key, stride in (strides or {}).items():
            if stride < 1:
                raise ValueError(f"stride for {key!r} must be >= 1, "
                                 f"got {stride}")
        self.strides: Dict[str, int] = dict(strides or {})
        self.entities = frozenset(entities) if entities is not None else None
        self._counts: Dict[str, int] = {}

    def admit(self, category: str, data: Dict[str, Any]) -> bool:
        if self.entities is not None:
            for key in _ENTITY_KEYS:
                entity = data.get(key)
                if entity is not None:
                    if entity not in self.entities:
                        return False
                    break
        if not self.strides:
            return True
        stride = self.strides.get(category)
        if stride is None:
            stride = self.strides.get(category.split(".", 1)[0], 1)
        if stride == 1:
            return True
        if category.endswith(".begin") or category.endswith(".end"):
            return True
        count = self._counts.get(category, 0)
        self._counts[category] = count + 1
        return count % stride == 0


class Trace:
    """An append-only log of :class:`TraceRecord`.

    A per-category index is maintained on append, so
    :meth:`filter`/:meth:`count` cost O(matches) instead of scanning
    the whole record list.
    """

    def __init__(self, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        self._init_common(categories, sampler)
        self.records: List[TraceRecord] = []
        self._by_category: Dict[str, List[TraceRecord]] = {}

    def _init_common(self, categories: Optional[set],
                     sampler: Optional[TraceSampler]) -> None:
        #: restrict recording to these categories (None = record all)
        self.categories = categories
        self.sampler = sampler
        #: records admitted past the category filter and sampler — for
        #: bounded sinks this keeps counting after eviction/spill
        self.seen = 0
        #: records rejected by the sampler (category-filtered ones are
        #: not counted: they were never meant for this trace)
        self.sampled_out = 0
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        #: (subscriber, exception) pairs for callbacks that raised and
        #: were detached; inspect in tests / after a run
        self.subscriber_errors: List[
            Tuple[Callable[[TraceRecord], None], BaseException]] = []

    def append(self, time: float, category: str, data: Dict[str, Any]) -> None:
        if self.categories is not None and category not in self.categories:
            return
        if self.sampler is not None and not self.sampler.admit(category, data):
            self.sampled_out += 1
            return
        rec = TraceRecord(time, category, data)
        self.records.append(rec)
        self.seen += 1
        bucket = self._by_category.get(category)
        if bucket is None:
            bucket = self._by_category[category] = []
        bucket.append(rec)
        if self._subscribers:
            self._dispatch(rec)

    def _dispatch(self, rec: TraceRecord) -> None:
        """Feed ``rec`` to every subscriber; detach any that raises."""
        dead: Optional[List[Callable[[TraceRecord], None]]] = None
        for fn in self._subscribers:
            try:
                fn(rec)
            except Exception as exc:
                self.subscriber_errors.append((fn, exc))
                if dead is None:
                    dead = []
                dead.append(fn)
        if dead is not None:
            for fn in dead:
                self.unsubscribe(fn)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Call ``fn(record)`` for every record appended from now on."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Stop delivering records to ``fn``.  Idempotent."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def categories_seen(self) -> List[str]:
        """Every category with at least one record, in first-seen order."""
        return list(self._by_category)

    def first_divergence(self, other: "Trace") -> Optional[int]:
        """Index of the first record where this trace differs from
        ``other``, or None when both streams are identical.

        The differential harnesses use this to report *where*
        two runs diverged instead of dumping two full record lists.
        Length differences diverge at the shorter trace's end.
        """
        mine = list(self)
        theirs = list(other)
        for i, (a, b) in enumerate(zip(mine, theirs)):
            if a != b:
                return i
        if len(mine) != len(theirs):
            return min(len(mine), len(theirs))
        return None

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        """Records of ``category`` whose data contains all of ``match``."""
        recs = self._by_category.get(category, [])
        if not match:
            return list(recs)
        return [rec for rec in recs
                if all(rec.data.get(k) == v for k, v in match.items())]

    def count(self, category: str, **match: Any) -> int:
        if not match:
            return len(self._by_category.get(category, ()))
        return len(self.filter(category, **match))


class RingTrace(Trace):
    """A :class:`Trace` retaining only the last ``capacity`` records.

    Memory is bounded by ``capacity`` regardless of run length; the
    lifetime tallies (:attr:`seen`, :attr:`evicted`, per-category
    counts via :meth:`lifetime_count`) keep counting past eviction, and
    subscribers stream over every admitted record, so live consumers
    (metrics, the span profiler) observe the full run.  ``filter`` /
    ``count`` / iteration see the retained window only.
    """

    def __init__(self, capacity: int, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self._init_common(categories, sampler)
        self.capacity = capacity
        self.evicted = 0
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        self._lifetime_counts: Dict[str, int] = {}

    @property
    def records(self) -> List[TraceRecord]:  # type: ignore[override]
        """The retained window, oldest first."""
        return list(self._ring)

    def append(self, time: float, category: str, data: Dict[str, Any]) -> None:
        if self.categories is not None and category not in self.categories:
            return
        if self.sampler is not None and not self.sampler.admit(category, data):
            self.sampled_out += 1
            return
        rec = TraceRecord(time, category, data)
        ring = self._ring
        if len(ring) == self.capacity:
            self.evicted += 1
        ring.append(rec)
        self.seen += 1
        self._lifetime_counts[category] = \
            self._lifetime_counts.get(category, 0) + 1
        if self._subscribers:
            self._dispatch(rec)

    def lifetime_count(self, category: str) -> int:
        """Admitted records of ``category`` ever, evicted ones included."""
        return self._lifetime_counts.get(category, 0)

    def categories_seen(self) -> List[str]:
        """Every category ever admitted, in first-seen order."""
        return list(self._lifetime_counts)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        """Matching records still in the retained window."""
        return [rec for rec in self._ring
                if rec.category == category
                and all(rec.data.get(k) == v for k, v in match.items())]

    def count(self, category: str, **match: Any) -> int:
        return len(self.filter(category, **match))


class JsonlTrace(Trace):
    """A :class:`Trace` spilling every record to disk as JSON lines.

    Nothing is retained in memory: each admitted record becomes one
    ``{"time": ..., "category": ..., "data": {...}}`` line on ``path``
    (values JSON-sanitized the way the Perfetto exporter does — tuples
    become lists, exotic objects their ``repr``).  Reload the full
    trace with :func:`load_trace_jsonl`.  Use as a context manager, or
    call :meth:`close` when the run is over.
    """

    def __init__(self, path: str, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        self._init_common(categories, sampler)
        self.path = path
        self._fh = open(path, "w")

    @property
    def records(self) -> List[TraceRecord]:  # type: ignore[override]
        return []

    def append(self, time: float, category: str, data: Dict[str, Any]) -> None:
        if self.categories is not None and category not in self.categories:
            return
        if self.sampler is not None and not self.sampler.admit(category, data):
            self.sampled_out += 1
            return
        self._fh.write(json.dumps(
            {"time": time, "category": category,
             "data": {str(k): _jsonable(v) for k, v in data.items()}}))
        self._fh.write("\n")
        self.seen += 1
        if self._subscribers:
            self._dispatch(TraceRecord(time, category, data))

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlTrace":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())

    def categories_seen(self) -> List[str]:
        return []

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        return []

    def count(self, category: str, **match: Any) -> int:
        return 0


def _jsonable(value: Any) -> Any:
    """Make a record data value JSON-serializable (lossy for objects)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def load_trace_jsonl(path: str) -> Trace:
    """Rebuild an in-memory :class:`Trace` from a :class:`JsonlTrace` file.

    Data values round-trip through JSON: tuples come back as lists and
    non-JSON objects as their ``repr`` strings, which is faithful
    enough for breakdowns, metrics and Perfetto export.
    """
    trace = Trace()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            trace.append(obj["time"], obj["category"], obj["data"])
    return trace
