"""The engine's dispatch order is exactly that of one ``(time, seq)`` heap.

The engine splits its queue into a heap and a zero-delay ready lane and
wakes sole waiters in place; both are optimizations that must never
show.  The oracle here is a deliberately naive reference engine built
in this module: one binary heap holding every entry, where triggering
an event posts each waiter at the current instant.  Hypothesis draws
random programs — zero, positive and underflowing (``now + d == now``)
delays, ``schedule``/``at(now)`` with cancellation (including handles
that already ran), timeout waits, ``AnyOf``/``AllOf``, tasks, and
stepped ``run(until=...)`` — and runs each on both engines (the real
one bare and under a monitor).  The three dispatch logs must be equal.

The targeted tests below pin when an in-place wake happens: inline when
nothing else is pending at the instant, queued when a same-instant
entry exists, and never under a monitor.
"""

from __future__ import annotations

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Simulator

# ----------------------------------------------------------------------
# The reference: every entry in one heap, every wake-up queued
# ----------------------------------------------------------------------


class _RefEvent:
    def __init__(self, eng):
        self.eng = eng
        self.done = False
        self.value = None
        self.waiters = []

    def trigger(self, value=None):
        self.done = True
        self.value = value
        for fn in self.waiters:
            self.eng.post(0.0, fn, self)
        self.waiters = None

    def wait(self, fn):
        if self.done:
            self.eng.post(0.0, fn, self)
        else:
            self.waiters.append(fn)


class _RefEngine:
    """One heap of ``[time, seq, fn, args, cancelled]`` entries."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0.0

    def post(self, delay, fn, *args):
        self.seq += 1
        entry = [self.now + delay, self.seq, fn, args, False]
        heappush(self.heap, entry)
        return entry

    # -- the adapter surface the programs drive ------------------------
    def schedule(self, delay, fn):
        return self.post(delay, fn)

    def at_now(self, fn):
        return self.post(0.0, fn)

    @staticmethod
    def cancel(entry):
        entry[4] = True

    def timeout(self, delay):
        evt = _RefEvent(self)
        self.post(delay, evt.trigger)
        return evt

    def any_of(self, events):
        out = _RefEvent(self)

        def on_child(index, evt):
            if not out.done:
                out.trigger((index, evt.value))

        for i, evt in enumerate(events):
            evt.wait(lambda e, i=i: on_child(i, e))
        return out

    def all_of(self, events):
        out = _RefEvent(self)
        remaining = [len(events)]

        def on_child(evt):
            remaining[0] -= 1
            if remaining[0] == 0:
                out.trigger([e.value for e in events])

        for evt in events:
            evt.wait(on_child)
        return out

    @staticmethod
    def on_done(evt, fn):
        evt.wait(lambda e: fn())

    def spawn(self, gen):
        def resume(value):
            try:
                target = gen.send(value)
            except StopIteration:
                return
            target.wait(lambda e: resume(e.value))

        self.post(0.0, resume, None)

    def run(self, until=None):
        heap = self.heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            time, _, fn, args, cancelled = heappop(heap)
            if cancelled:
                continue
            self.now = time
            fn(*args)


class _SimAdapter:
    """The same surface over the real engine."""

    def __init__(self, sim):
        self.sim = sim

    @property
    def now(self):
        return self.sim.now

    def post(self, delay, fn):
        self.sim._post(delay, fn)

    def schedule(self, delay, fn):
        return self.sim.schedule(delay, fn)

    def at_now(self, fn):
        return self.sim.at(self.sim.now, fn)

    @staticmethod
    def cancel(handle):
        handle.cancel()

    def timeout(self, delay):
        return self.sim.timeout(delay)

    def any_of(self, events):
        return self.sim.any_of(events)

    def all_of(self, events):
        return self.sim.all_of(events)

    @staticmethod
    def on_done(evt, fn):
        evt.add_done_callback(lambda e: fn())

    def spawn(self, gen):
        self.sim.spawn(gen)

    def run(self, until=None):
        self.sim.run(until=until)


class _NullMonitor:
    """Accepts every engine hook and records nothing."""

    def on_schedule(self, handle):
        pass

    def before_step(self, handle):
        pass

    def after_step(self, handle):
        pass


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------

#: zero (ready lane), underflowing once now >= ~1e-1, and positive delays
_DELAYS = st.sampled_from([0.0, 0.0, 1e-17, 1e-9, 0.5, 1.0, 2.0])


def _actions(body):
    return st.one_of(
        st.tuples(st.just("post"), _DELAYS, body),
        st.tuples(st.just("schedule"), _DELAYS, body),
        st.tuples(st.just("at_now"), body),
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("wait"), st.sampled_from(["timeout", "any", "all"]),
                  st.lists(_DELAYS, min_size=1, max_size=3), body),
        st.tuples(st.just("task"), st.lists(_DELAYS, max_size=3), body),
    )


_BODY = st.recursive(st.just([]),
                     lambda inner: st.lists(_actions(inner), max_size=3),
                     max_leaves=24)

#: top-level phases: a body run outside the loop, then run(until=now+step)
_PHASES = st.lists(st.tuples(_BODY, st.sampled_from([0.0, 0.5, 1.0, 3.0])),
                   min_size=1, max_size=4)


def _execute(eng, phases):
    """Run ``phases`` on ``eng``; return the (label, time) dispatch log."""
    log = []
    handles = []
    labels = iter(range(10 ** 9))

    def callback(body):
        label = next(labels)

        def fire():
            log.append((label, eng.now))
            run_body(body)
        return fire

    def task(delays, body):
        label = next(labels)
        for step, delay in enumerate(delays):
            yield eng.timeout(delay)
            log.append((label, step, eng.now))
        run_body(body)

    def run_body(body):
        for action in body:
            kind = action[0]
            if kind == "post":
                eng.post(action[1], callback(action[2]))
            elif kind == "schedule":
                handles.append(eng.schedule(action[1], callback(action[2])))
            elif kind == "at_now":
                handles.append(eng.at_now(callback(action[1])))
            elif kind == "cancel":
                if handles:
                    eng.cancel(handles[action[1] % len(handles)])
            elif kind == "wait":
                events = [eng.timeout(d) for d in action[2]]
                if action[1] == "any":
                    events = [eng.any_of(events)]
                elif action[1] == "all":
                    events = [eng.all_of(events)]
                eng.on_done(events[0], callback(action[3]))
            else:
                eng.spawn(task(action[1], action[2]))

    for body, step in phases:
        run_body(body)
        eng.run(until=eng.now + step)
    eng.run()
    return log


@settings(max_examples=200, deadline=None)
@given(phases=_PHASES)
def test_dispatch_order_matches_the_reference_heap(phases) -> None:
    expected = _execute(_RefEngine(), phases)
    bare = Simulator()
    assert _execute(_SimAdapter(bare), phases) == expected
    assert not bare._heap and not bare._ready
    assert bare._cancelled == 0          # no counter drift
    monitored = Simulator()
    monitored.monitor = _NullMonitor()
    assert _execute(_SimAdapter(monitored), phases) == expected


# ----------------------------------------------------------------------
# When the in-place wake happens
# ----------------------------------------------------------------------


def test_sole_waiter_is_woken_in_place_when_nothing_else_is_pending() -> None:
    sim = Simulator()
    seen = []

    def waiter(evt):
        # inline: the trigger's own dispatch is still on the stack and
        # nothing was queued for the wake-up
        seen.append((sim.now, sim.events_executed, len(sim._ready)))

    sim.timeout(1.0).add_done_callback(waiter)
    sim.timeout(2.0)                      # later entries do not block it
    sim.step()
    assert seen == [(1.0, 1, 0)]


def test_wake_is_queued_behind_a_same_instant_entry() -> None:
    sim = Simulator()
    seen = []
    sim.timeout(1.0).add_done_callback(lambda evt: seen.append("waiter"))
    sim.schedule(1.0, seen.append, "same-instant")
    sim.run()
    # queued at trigger time, the wake-up sorts after the older entry
    assert seen == ["same-instant", "waiter"]
    assert sim.events_executed == 3


def test_wake_is_queued_behind_a_pending_ready_entry() -> None:
    sim = Simulator()
    seen = []
    first, second = sim.timeout(1.0), sim.timeout(1.0)
    first.add_done_callback(lambda evt: seen.append("w1"))
    second.add_done_callback(lambda evt: seen.append("w2"))
    sim.run()
    # w1 waits in the ready lane while the second timeout fires, so w2
    # cannot jump ahead of it
    assert seen == ["w1", "w2"]
    assert sim.events_executed == 4


def test_several_waiters_are_all_queued() -> None:
    sim = Simulator()
    seen = []
    evt = sim.timeout(1.0)
    evt.add_done_callback(lambda e: seen.append("a"))
    evt.add_done_callback(lambda e: seen.append("b"))
    sim.run()
    assert seen == ["a", "b"]
    assert sim.events_executed == 3


def test_any_of_completion_wakes_its_task_in_place() -> None:
    sim = Simulator()

    def prog():
        index, value = yield sim.any_of([sim.timeout(1.0, "fast"),
                                         sim.timeout(2.0, "slow")])
        return (sim.now, index, value)

    task = sim.spawn(prog())
    sim.run()
    assert task.value == (1.0, 0, "fast")
    # task start + two timeout fires; the child callback and the task
    # resume both ran in place
    assert sim.events_executed == 3


def test_no_in_place_wake_under_a_monitor() -> None:
    sim = Simulator()
    sim.monitor = _NullMonitor()
    seen = []
    sim.timeout(1.0).add_done_callback(lambda evt: seen.append(sim.now))
    sim.run()
    assert seen == [1.0]
    assert sim.events_executed == 2


def test_monitored_and_bare_runs_dispatch_identically() -> None:
    def drive(sim):
        seen = []

        def prog(tag, delays):
            for delay in delays:
                yield sim.any_of([sim.timeout(delay), sim.timeout(2 * delay)])
                seen.append((tag, sim.now))
            yield sim.all_of([sim.timeout(0.0), sim.timeout(delays[0])])
            seen.append((tag, "all", sim.now))

        for i, delays in enumerate([[0.3, 0.0], [0.1, 0.1], [0.2], [0.0]]):
            sim.spawn(prog(f"t{i}", delays))
        sim.run()
        return seen

    bare = Simulator()
    monitored = Simulator()
    monitored.monitor = _NullMonitor()
    assert drive(bare) == drive(monitored)
    assert bare.events_executed < monitored.events_executed
