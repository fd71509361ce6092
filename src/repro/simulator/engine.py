"""The simulation event loop.

Time is a ``float`` in **seconds**.  Pending work is dispatched in
``(time, seq)`` order; ``seq`` is a global monotonically increasing
counter, so callbacks scheduled for the same instant run in FIFO order,
which makes every simulation fully deterministic.

The queue is two structures merged by that key:

* a binary heap (``heapq``) of every cancellable handle and every
  entry posted with a non-zero delay or an absolute time;
* the *ready lane*, a FIFO of the zero-delay :meth:`Simulator._post`
  entries (event wake-ups, task starts).  They all carry the current
  time and increasing seqs, so appending keeps the lane sorted and a
  post costs no heap sift.

The run loop takes the lane head unless the heap top sorts before it
(an entry at the same instant with a smaller seq), so the dispatch
order is exactly the order one heap holding every entry would give.

Entries come in two shapes:

* ``(time, seq, handle)`` — cancellable, created by :meth:`Simulator.at`
  / :meth:`Simulator.schedule`, which return the
  :class:`ScheduledCallback` handle;
* ``(time, seq, fn, args)`` — slim non-cancellable entries created by
  the internal :meth:`Simulator._post` / :meth:`Simulator._post_at`
  fast paths (event dispatch, task start, timeouts, NIC completions).
  They carry no handle object, which keeps the hottest scheduling
  operations allocation-light.

``seq`` is unique, so entry comparisons never reach the third element of
either tuple shape.

In-place wake: an event triggered as the *last action* of a dispatched
entry (see :meth:`repro.simulator.events.Event._succeed_last`) calls its
sole waiter directly when no monitor is installed and nothing else is
pending at the current instant.  Queued, that waiter would have been the
very next entry dispatched, so the order is unchanged; only the queue
trip is saved.  :attr:`Simulator.events_executed` counts queue
dispatches and so excludes these wakes.

Cancellation is O(1) lazy deletion: the handle is flagged and skipped
when dispatched.  Long-lived simulations that cancel many far-future
timers (e.g. per-frame retransmission timeouts) would otherwise
accumulate dead entries, so the engine compacts the heap in one
batched pass when cancelled entries outnumber live ones.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.simulator.errors import DeadlockError, SimulationError
from repro.simulator.events import Event
from repro.simulator.hostclock import host_clock
from repro.simulator.tracing import Trace

__all__ = ["ScheduledCallback", "Simulator"]

#: queue entries are (time, seq, handle) or (time, seq, fn, args)
_Entry = Tuple[Any, ...]

#: start compacting only past this many cancelled entries (tiny queues
#: are cheaper to drain lazily than to rebuild)
_COMPACT_MIN_CANCELLED = 64


class ScheduledCallback:
    """Handle for a callback sitting in the event queue.

    Supports :meth:`cancel`, which is O(1): the entry is flagged and the
    event loop skips it when dispatched (lazy deletion).  The owning
    simulator batches a compaction pass when flagged entries pile up.
    Dispatch marks the handle spent (``sim`` becomes None), so cancelling
    a callback that already ran is a no-op.
    """

    __slots__ = ("sim", "time", "fn", "args", "cancelled", "origin")

    def __init__(self, sim: "Simulator", time: float, fn: Callable, args: tuple):
        self.sim: Optional["Simulator"] = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # ``origin`` (scheduler's vector-clock snapshot) is attached by an
        # installed monitor; absent in normal runs to keep handles small.

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        sim = self.sim
        if self.cancelled or sim is None:
            return
        self.cancelled = True
        sim._cancelled += 1
        if (sim._cancelled >= _COMPACT_MIN_CANCELLED
                and sim._cancelled * 2 >= len(sim._heap)):
            sim._compact()


class _NullRegion:
    """No-op stand-in for :meth:`Simulator.sync_region` without a monitor."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_REGION = _NullRegion()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.simulator.tracing.Trace` recorder.  When
        provided, subsystems emit structured trace records through
        :meth:`record`.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(1.5)
    ...     return "done"
    >>> task = sim.spawn(hello())
    >>> sim.run()
    1.5
    >>> task.value
    'done'
    """

    def __init__(self, trace: Optional[Trace] = None):
        self._heap: List[_Entry] = []
        #: zero-delay slim entries, all at ``_now``, in seq order
        self._ready: Deque[_Entry] = deque()
        self._seq = 0
        self._now = 0.0
        self._cancelled = 0          # cancelled handles still queued
        self._running_tasks = 0
        self._failed_tasks: list = []
        self._trace: Optional[Trace] = None
        self._trace_append: Optional[Callable[..., None]] = None
        #: truthy fast-path flag: hot call sites check this before even
        #: building the kwargs dict for :meth:`record`
        self.tracing = False
        self.trace = trace
        #: perf telemetry (host-side, never fed back into simulation):
        #: queue dispatches, high-water queue length, dispatched
        #: instants, wall seconds inside :meth:`run` — see :meth:`perf_stats`
        self.events_executed = 0
        self.queue_peak = 0
        self.batches_executed = 0
        self.run_wall_seconds = 0.0
        #: optional execution monitor (duck-typed; see
        #: ``repro.analysis.race.RaceDetector``).  When set, the engine
        #: reports every schedule and callback slice to it.
        self.monitor: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCallback:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._push_handle(self._now + delay, fn, args)

    def at(self, time: float, fn: Callable, *args: Any) -> ScheduledCallback:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (now={self._now!r}, time={time!r})"
            )
        return self._push_handle(time, fn, args)

    def _push_handle(self, time: float, fn: Callable,
                     args: tuple) -> ScheduledCallback:
        handle = ScheduledCallback(self, time, fn, args)
        if self.monitor is not None:
            self.monitor.on_schedule(handle)
        self._seq += 1
        heappush(self._heap, (time, self._seq, handle))
        return handle

    def _post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Internal non-cancellable scheduling fast path.

        Queues a slim ``(time, seq, fn, args)`` entry — no handle
        object — on the ready lane when ``delay`` is zero, on the heap
        otherwise.  Used by the hottest call sites (event dispatch, task
        start, timeouts), which never cancel.  With a monitor installed
        it falls back to :meth:`at` so happens-before edges are kept.
        """
        if self.monitor is not None:
            self.at(self._now + delay, fn, *args)
            return
        self._seq += 1
        if delay:
            heappush(self._heap, (self._now + delay, self._seq, fn, args))
        else:
            self._ready.append((self._now, self._seq, fn, args))

    def _post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """:meth:`_post` at an absolute ``time`` (``time >= now``)."""
        if self.monitor is not None:
            self.at(time, fn, *args)
            return
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, args))

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in one batched pass.

        In place: a running dispatch loop holds a reference to the list.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if type(entry[2]) is not ScheduledCallback
                   or not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Events & tasks (factories live here so user code needs only `sim`)
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        evt = Event(self)
        # the trigger is the whole dispatched entry: its sole waiter may
        # be woken in place
        self._post(delay, evt._succeed_last, value)
        return evt

    def all_of(self, events: Iterable["Event"]) -> "Event":
        from repro.simulator.events import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable["Event"]) -> "Event":
        from repro.simulator.events import AnyOf

        return AnyOf(self, list(events))

    def spawn(self, generator, name: str = "") -> "Task":
        """Start driving ``generator`` as a concurrent task."""
        from repro.simulator.process import Task

        return Task(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop(self) -> _Entry:
        """Remove and return the next entry in ``(time, seq)`` order.

        The queue must be non-empty.
        """
        ready, heap = self._ready, self._heap
        if ready and not (heap and heap[0] < ready[0]):
            return ready.popleft()
        return heappop(heap)

    def _dispatch(self, entry: _Entry) -> bool:
        """Run one popped entry; False if it was a cancelled handle."""
        item = entry[2]
        if type(item) is ScheduledCallback:
            if item.cancelled:
                self._cancelled -= 1
                return False
            item.sim = None                      # spent: cancel() no-ops
            self._now = entry[0]
            self.events_executed += 1
            monitor = self.monitor
            if monitor is None:
                item.fn(*item.args)
            else:
                monitor.before_step(item)
                try:
                    item.fn(*item.args)
                finally:
                    monitor.after_step(item)
            return True
        self._now = entry[0]
        self.events_executed += 1
        item(*entry[3])
        return True

    def step(self) -> bool:
        """Execute the next pending callback.  Returns False when empty."""
        while self._ready or self._heap:
            if self._dispatch(self._pop()):
                return True
        return False

    def run(self, until: Optional[float] = None,
            detect_deadlock: bool = False) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the final simulation time.  With ``detect_deadlock=True``
        a :class:`DeadlockError` is raised if live tasks remain when the
        queue drains (tasks blocked on events nobody will trigger).
        """
        wall_start = host_clock()
        if until is None and self.monitor is None:
            try:
                self._drain()
            finally:
                self.run_wall_seconds += host_clock() - wall_start
        else:
            if until is not None and until < self._now:
                raise SimulationError(
                    f"cannot run backwards (now={self._now!r}, until={until!r})")
            try:
                while True:
                    if self._ready:
                        time = self._now
                    elif self._heap:
                        time = self._heap[0][0]
                    else:
                        break
                    if until is not None and time > until:
                        self._now = until
                        self._raise_unobserved_failures()
                        return self._now
                    # one entry per check: a skipped cancelled entry must
                    # not let the next one past ``until``
                    self._dispatch(self._pop())
            finally:
                self.run_wall_seconds += host_clock() - wall_start
        self._raise_unobserved_failures()
        if detect_deadlock and self._running_tasks > 0:
            raise DeadlockError(
                f"{self._running_tasks} task(s) blocked with no pending events "
                f"at t={self._now}"
            )
        return self._now

    def _drain(self) -> None:
        """The unmonitored run-to-completion loop (the hot path).

        One outer lap per simulated instant: the clock write and the
        queue-peak sample are paid once per instant, not per entry, and
        telemetry stays in locals until exit.  The inner loop merges the
        ready lane with the heap top by ``(time, seq)``.
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        executed = 0
        batches = 0
        peak = self.queue_peak
        try:
            while True:
                if ready:
                    now = self._now
                elif heap:
                    now = self._now = heap[0][0]
                else:
                    break
                batches += 1
                pending = len(heap) + len(ready)
                if pending > peak:
                    peak = pending
                while True:
                    if ready:
                        if not (heap and heap[0] < ready[0]):
                            entry = popleft()
                            executed += 1
                            entry[2](*entry[3])
                            continue
                        entry = heappop(heap)
                    elif heap and heap[0][0] <= now:
                        entry = heappop(heap)
                    else:
                        break
                    item = entry[2]
                    if type(item) is ScheduledCallback:
                        if item.cancelled:
                            self._cancelled -= 1
                            continue
                        item.sim = None          # spent: cancel() no-ops
                        executed += 1
                        item.fn(*item.args)
                    else:
                        executed += 1
                        item(*entry[3])
        finally:
            self.events_executed += executed
            self.batches_executed += batches
            self.queue_peak = peak

    def _raise_unobserved_failures(self) -> None:
        """Re-raise the first task failure that nobody joined on.

        Without this, an exception inside a spawned task would vanish
        silently — the classic swallowed-failure bug of callback systems.
        """
        for task in self._failed_tasks:
            if not task._observed:
                raise task.value

    # ------------------------------------------------------------------
    # Perf telemetry
    # ------------------------------------------------------------------
    def perf_stats(self) -> dict:
        """Host-side run-loop telemetry, accumulated across ``run`` calls.

        ``events_executed`` counts queue dispatches (cancelled entries
        skipped at dispatch are not events, and neither are in-place
        wakes, which never enter the queue), ``queue_peak`` is the
        high-water pending-entry count (heap plus ready lane, sampled
        once per simulated instant on the run-to-completion loop),
        ``batches_executed`` the number of distinct simulated instants
        that loop dispatched, ``wall_seconds`` the host time spent
        inside :meth:`run`, and ``events_per_sec`` their ratio.
        ``scheduler`` names the event-queue structure (always
        ``"heap"``).  Wall time is the one host-dependent quantity in
        the engine; it feeds telemetry only, never simulation.
        """
        wall = self.run_wall_seconds
        executed = self.events_executed
        batches = self.batches_executed
        return {
            "events_executed": float(executed),
            "queue_peak": float(self.queue_peak),
            "batches_executed": float(batches),
            "events_per_batch": (executed / batches if batches else 0.0),
            "wall_seconds": wall,
            "events_per_sec": (executed / wall if wall > 0 else 0.0),
            "scheduler": "heap",
        }

    # ------------------------------------------------------------------
    # Concurrency-analysis hooks (no-ops unless a monitor is installed)
    # ------------------------------------------------------------------
    def sync_region(self, key: Any, label: Optional[str] = None):
        """A virtual lock region for the installed monitor.

        Models the locks the real stack takes around progress-engine
        state (e.g. PIOMan's per-node progression lock).  Regions with
        equal ``key`` are treated as one lock: the monitor serializes
        them with release->acquire happens-before edges.  Without a
        monitor this returns a shared no-op context manager.
        """
        monitor = self.monitor
        if monitor is None:
            return _NULL_REGION
        return monitor.region(key, label)

    def race_read(self, name: str, detail: Optional[str] = None) -> None:
        """Record a read of the named shared variable (monitor only)."""
        monitor = self.monitor
        if monitor is not None:
            monitor.on_access(name, False, detail)

    def race_write(self, name: str, detail: Optional[str] = None) -> None:
        """Record a write of the named shared variable (monitor only)."""
        monitor = self.monitor
        if monitor is not None:
            monitor.on_access(name, True, detail)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Optional[Trace]:
        """The attached :class:`Trace` recorder (None = tracing off)."""
        return self._trace

    @trace.setter
    def trace(self, trace: Optional[Trace]) -> None:
        self._trace = trace
        self.tracing = trace is not None
        #: bound append, so the no-trace path in :meth:`record` is a
        #: single attribute test and the traced path skips a lookup
        self._trace_append = trace.append if trace is not None else None

    def record(self, category: str, **data: Any) -> None:
        """Emit a trace record if tracing is enabled (cheap no-op otherwise)."""
        append = self._trace_append
        if append is not None:
            append(self._now, category, data)
