"""Property tests: the engine's queue is extensionally one binary heap.

Hypothesis drives randomized operation sequences through the public
:class:`Simulator` scheduling API (and the internal ``_post`` /
``_post_at`` fast paths) in both dispatch modes of
:mod:`tests.simulator.conftest`, against a plain ``heapq`` mirror kept
in the test.  Any observable divergence — dispatch order, clock, the
number of queued entries, the cancelled-entry counter — is a bug in the
ready lane, the in-place wake, lazy deletion or compaction.

The last property goes through callbacks that post, cancel and repost
from inside the running loop, and requires the ``heap`` and ``lane``
modes to dispatch identically.
"""

from __future__ import annotations

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Simulator
from repro.simulator.engine import _COMPACT_MIN_CANCELLED, ScheduledCallback
from tests.simulator.conftest import SCHEDULERS, use_scheduler

#: delays that tie exactly, underflow once now >= 1 (now + 1e-17 == now),
#: and span many magnitudes
_DELAYS = st.sampled_from(
    [0.0, 0.0, 1e-17, 1e-9, 2e-9, 1e-7, 1e-6, 2.5e-4, 1.0])

#: an operation program over the queue, weighted toward pushes
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("post"), _DELAYS),
        st.tuples(st.just("post_at"), _DELAYS),
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("at_now"), st.none()),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("until"), _DELAYS),
    ),
    min_size=1, max_size=200)


class _Mirror:
    """The reference: one heap of ``[time, seq, label, cancelled]``."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.log = []

    def push(self, time, label):
        self.seq += 1
        entry = [time, self.seq, label, False]
        heappush(self.heap, entry)
        return entry

    def _pop_live(self, until=None):
        """Dispatch one live entry; None once the heap is empty."""
        while self.heap:
            if until is not None and self.heap[0][0] > until:
                return False
            time, _, label, cancelled = heappop(self.heap)
            if cancelled:
                continue
            self.now = time
            self.log.append((label, time))
            return True
        return None

    def step(self):
        self._pop_live()

    def run(self, until=None):
        while True:
            dispatched = self._pop_live(until)
            if dispatched is None:       # drained: the clock stays put
                return
            if not dispatched:           # next entry is past ``until``
                self.now = until
                return

    def live(self):
        return sum(1 for entry in self.heap if not entry[3])


def _cancelled_queued(sim):
    return sum(1 for entry in sim._heap
               if type(entry[2]) is ScheduledCallback and entry[2].cancelled)


def _apply(sim, mirror, ops, log):
    """Run ``ops`` on the engine and the mirror side by side."""
    handles = []
    for label, (op, arg) in enumerate(ops):
        fire = (lambda label: lambda: log.append((label, sim.now)))(label)
        if op == "post":
            sim._post(arg, fire)
            mirror.push(mirror.now + arg, label)
        elif op == "post_at":
            sim._post_at(sim.now + arg, fire)
            mirror.push(mirror.now + arg, label)
        elif op == "schedule":
            handles.append((sim.schedule(arg, fire),
                            mirror.push(mirror.now + arg, label)))
        elif op == "at_now":
            handles.append((sim.at(sim.now, fire),
                            mirror.push(mirror.now, label)))
        elif op == "cancel":
            if handles:
                handle, entry = handles[arg % len(handles)]
                if handle.sim is not None:           # not yet run
                    entry[3] = True
                handle.cancel()
        elif op == "step":
            sim.step()
            mirror.step()
        else:
            sim.run(until=sim.now + arg)
            mirror.run(until=mirror.now + arg)
        assert sim.now == mirror.now
        assert log == mirror.log
        live = (len(sim._heap) + len(sim._ready)) - _cancelled_queued(sim)
        assert live == mirror.live()
        assert sim._cancelled == _cancelled_queued(sim)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_op_sequences_match_the_heap(ops) -> None:
    for kind in SCHEDULERS:
        with use_scheduler(kind):
            sim, mirror, log = Simulator(), _Mirror(), []
            _apply(sim, mirror, ops, log)
            sim.run()
            mirror.run()
        assert log == mirror.log, kind
        assert not sim._heap and not sim._ready
        assert sim._cancelled == 0


def _compaction_run(ops, keep_mod, bulk):
    """Bulk-cancel far handles between two halves of ``ops``."""
    sim, mirror, log = Simulator(), _Mirror(), []
    far = []
    for i in range(bulk):
        fire = (lambda i: lambda: log.append((("far", i), sim.now)))(i)
        far.append((sim.schedule(10.0, fire), mirror.push(10.0, ("far", i))))
    half = len(ops) // 2
    _apply(sim, mirror, ops[:half], log)
    before = len(sim._heap)
    dropped = 0
    for i, (handle, entry) in enumerate(far):
        if i % keep_mod and handle.sim is not None:      # still queued
            entry[3] = True
            handle.cancel()
            dropped += 1
    # once dead entries dominate, the batched pass must have run
    if dropped >= _COMPACT_MIN_CANCELLED and 2 * dropped >= before:
        assert len(sim._heap) < before
    assert (sim._cancelled < _COMPACT_MIN_CANCELLED
            or 2 * sim._cancelled < len(sim._heap))
    assert sim._cancelled == _cancelled_queued(sim)
    _apply(sim, mirror, ops[half:], log)
    sim.run()
    mirror.run()
    return sim, log, mirror.log


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, keep_mod=st.integers(min_value=2, max_value=5),
       bulk=st.integers(min_value=130, max_value=300))
def test_lazy_deletion_survives_resizes(ops, keep_mod, bulk) -> None:
    """Compaction (the heap rebuilt smaller, in place) loses no survivor.

    ``bulk`` far-future handles are queued first and all but every
    ``keep_mod``-th of them are cancelled mid-sequence; the random program
    then keeps pushing, cancelling and dispatching around the rebuilt heap.
    """
    for kind in SCHEDULERS:
        with use_scheduler(kind):
            sim, log, expected = _compaction_run(ops, keep_mod, bulk)
        assert log == expected, kind
        assert sim._cancelled == 0


class _Crash(Exception):
    pass


#: per-entry (delay, follow-up delays, crashes?) programs
_CRASH_PROGRAMS = st.lists(
    st.tuples(_DELAYS, st.lists(_DELAYS, max_size=3), st.booleans()),
    min_size=1, max_size=40)


@settings(max_examples=40, deadline=None)
@given(program=_CRASH_PROGRAMS)
def test_partial_end_batch_requeues_identically(program) -> None:
    """A callback raising mid-instant leaves the rest of the queue intact.

    Each entry logs itself, posts its follow-ups (zero-delay ones take the
    ready lane) and then maybe raises.  Re-entering ``run`` after every
    crash must dispatch exactly what an uncrashed heap would have, in the
    same order.
    """
    def drive(sim, raising):
        log = []

        def fire(label, follow, crash):
            log.append((label, sim.now))
            for j, delay in enumerate(follow):
                sim._post(delay, log.append, (f"{label}.{j}", "follow"))
            if crash and raising:
                raise _Crash(label)

        for i, (delay, follow, crash) in enumerate(program):
            sim._post(delay, fire, i, follow, crash)
        crashes = 0
        while True:
            try:
                sim.run()
                break
            except _Crash:
                crashes += 1
        assert not sim._heap and not sim._ready
        return log, crashes

    expected, _ = drive(Simulator(), raising=False)
    for kind in SCHEDULERS:
        with use_scheduler(kind):
            log, crashes = drive(Simulator(), raising=True)
        assert log == expected, kind
        assert crashes == sum(1 for *_, crash in program if crash)


#: per-callback actions for the engine-level property
_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["spawn", "cancelchild", "repost", "post", "wait"]),
        st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 2.5e-4]),  # delays (>= 0)
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=40)


def _drive(kind, actions):
    """One deterministic run: callbacks post/cancel/repost/wait on more work."""
    with use_scheduler(kind):
        sim = Simulator()
        order = []
        handles = []

        def fire(tag, depth, todo):
            order.append((sim.now, tag))
            if depth >= 2:
                return
            for i, (what, delay, arg) in enumerate(todo):
                child = f"{tag}.{i}"
                if what == "spawn":
                    handles.append(sim.schedule(
                        delay, fire, child, depth + 1, todo[arg:]))
                elif what == "cancelchild":
                    if handles:
                        handles[arg % len(handles)].cancel()
                elif what == "repost":               # same instant, handle
                    sim.schedule(0.0, order.append, (sim.now, child))
                elif what == "post":                 # slim entry
                    sim._post(delay, fire, child, depth + 1, todo[arg:])
                else:                                # a task on a timeout
                    sim.spawn(waiter(child, delay, arg))

        def waiter(tag, delay, arg):
            if arg % 2:
                yield sim.any_of([sim.timeout(delay), sim.timeout(2 * delay)])
            else:
                yield sim.all_of([sim.timeout(delay), sim.timeout(0.0)])
            order.append((sim.now, tag))

        for i, (_, delay, _) in enumerate(actions):
            sim.schedule(delay, fire, f"root{i}", 0, actions)
        sim.run()
    return order


@settings(max_examples=25, deadline=None)
@given(actions=_ACTIONS)
def test_engine_dispatch_order_is_scheduler_invariant(actions) -> None:
    assert _drive("lane", actions) == _drive("heap", actions)
