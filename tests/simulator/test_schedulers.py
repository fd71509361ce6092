"""Unit tests for the engine's event queue, in both dispatch modes.

The contract under test (see :mod:`repro.simulator.engine`): whatever
route an entry takes — a cancellable handle, a slim ``_post`` entry on
the heap or on the zero-delay ready lane, a wake-up run in place — the
engine dispatches in exactly the ``(time, seq)`` total order one binary
heap would, one simulated instant at a time.  Every test runs under the
``heap`` reference and the shipped ``lane`` mode (the ``scheduler``
fixture of :mod:`tests.simulator.conftest`).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest

from repro.simulator import Simulator
from repro.simulator.engine import _COMPACT_MIN_CANCELLED


class _Boom(Exception):
    pass


def _push(sim, route, time, fn, *args):
    """Queue ``fn(*args)`` at absolute ``time`` through ``route``."""
    if route == "at":
        return sim.at(time, fn, *args)
    if route == "schedule":
        return sim.schedule(time - sim.now, fn, *args)
    if route == "post":
        sim._post(time - sim.now, fn, *args)
    else:
        sim._post_at(time, fn, *args)
    return None


_ROUTES = ("at", "schedule", "post", "post_at")


def test_pop_yields_sorted_order(scheduler) -> None:
    rng = random.Random(7)
    sim = Simulator()
    seen = []
    times = [rng.choice([0.0, 1e-9, 2e-9, 1e-6, 1e-6, 0.5, 1.0])
             for _ in range(300)]
    for i, time in enumerate(times):
        _push(sim, rng.choice(_ROUTES), time,
              lambda i=i: seen.append((sim.now, i)))
    sim.run()
    # (time, insertion order): seq breaks every tie FIFO
    assert seen == sorted((t, i) for i, t in enumerate(times))


def test_pop_batch_is_maximal_equal_time_runs(scheduler) -> None:
    sim = Simulator()
    seen = []
    times = [3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0]

    def fire(i):
        seen.append(sim.now)
        sim._post(0.0, seen.append, sim.now)    # joins the open instant
    for i, time in enumerate(times):
        sim.schedule(time, fire, i)
    sim.run()
    # each instant is dispatched as one contiguous run, follow-ups included
    assert seen == sorted(seen)
    stats = sim.perf_stats()
    assert stats["batches_executed"] == len(set(times))
    assert stats["events_executed"] == 2 * len(times)
    assert stats["events_per_batch"] == 2 * len(times) / len(set(times))


def test_random_interleaving_matches_heap(scheduler) -> None:
    """Callbacks push, cancel and repost from inside the running loop."""
    rng = random.Random(11)
    delays = [0.0, 0.0, 1e-9, 1e-6, 0.25]
    script = [(rng.choice(_ROUTES), rng.choice(delays), rng.randrange(4),
               rng.random() < 0.2) for _ in range(400)]

    # the reference: a plain heap of [time, seq, index, cancelled]
    ref_heap, ref_seen, ref_handles = [], [], []
    state = {"seq": 0, "now": 0.0, "next": 0}

    def ref_push(time, index):
        state["seq"] += 1
        entry = [time, state["seq"], index, False]
        heappush(ref_heap, entry)
        return entry

    def ref_fire(index):
        ref_seen.append((state["now"], index))
        for _ in range(script[index][2]):
            if state["next"] >= len(script):
                return
            child = state["next"]
            state["next"] += 1
            route, delay, _, cancel = script[child]
            entry = ref_push(state["now"] + delay, child)
            if route in ("at", "schedule"):
                ref_handles.append(entry)
            if cancel and ref_handles:
                ref_handles[child % len(ref_handles)][3] = True

    # the engine under test
    sim = Simulator()
    seen, handles = [], []
    nxt = {"next": 0}

    def fire(index):
        seen.append((sim.now, index))
        for _ in range(script[index][2]):
            if nxt["next"] >= len(script):
                return
            child = nxt["next"]
            nxt["next"] += 1
            route, delay, _, cancel = script[child]
            handle = _push(sim, route, sim.now + delay, fire, child)
            if handle is not None:
                handles.append(handle)
            if cancel and handles:
                handles[child % len(handles)].cancel()

    roots = 8
    state["next"] = nxt["next"] = roots
    for i in range(roots):
        ref_push(script[i][1], i)
        sim._post(script[i][1], fire, i)
    while ref_heap:
        time, _, index, cancelled = heappop(ref_heap)
        if not cancelled:
            state["now"] = time
            ref_fire(index)
    sim.run()
    assert len(seen) > roots
    assert seen == ref_seen


def test_remove_if_drops_matches_everywhere(scheduler) -> None:
    """Cancelled handles vanish at the open instant and in the future."""
    sim = Simulator()
    fired = []
    future = [sim.schedule(5.0 + (i % 3), fired.append, ("f", i))
              for i in range(3 * _COMPACT_MIN_CANCELLED)]
    now_handles = []

    def opener():
        # queued at the open instant, then most of everything is dropped
        for i in range(_COMPACT_MIN_CANCELLED):
            now_handles.append(sim.at(sim.now, fired.append, ("n", i)))
        for i, handle in enumerate(future + now_handles):
            if i % 4:
                handle.cancel()
        assert sim._cancelled < _COMPACT_MIN_CANCELLED   # compacted
    sim.schedule(1.0, opener)
    sim.run()
    everything = future + now_handles
    kept = [h for i, h in enumerate(everything) if i % 4 == 0]
    assert len(fired) == len(kept)
    assert not any(h.cancelled for h in kept)
    assert [tag for tag in fired if tag[0] == "n"] == \
        [("n", i) for i in range(_COMPACT_MIN_CANCELLED)
         if (len(future) + i) % 4 == 0]
    assert sim._cancelled == 0 and not sim._heap and not sim._ready


def test_end_batch_requeues_undispatched_tail(scheduler) -> None:
    sim = Simulator()
    seen = []

    def boom():
        seen.append("boom")
        sim._post(0.0, seen.append, "posted-by-boom")
        raise _Boom()

    sim.schedule(1.0, seen.append, "a")
    sim._post(1.0, boom)
    sim.schedule(1.0, seen.append, "c")
    sim._post(1.0, seen.append, "d")
    sim.schedule(2.0, seen.append, "later")
    with pytest.raises(_Boom):
        sim.run()
    assert seen == ["a", "boom"] and sim.now == 1.0
    sim.run()
    assert seen == ["a", "boom", "c", "d", "posted-by-boom", "later"]
    assert sim.events_executed == 6


def test_peek_then_push_below_head_spills(scheduler) -> None:
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "head")
    assert sim.run(until=2.0) == 2.0            # peeked 5.0, stopped short
    sim.at(3.0, seen.append, "below-head")
    sim._post(0.5, seen.append, "slim-below")
    sim._post(0.0, seen.append, "now")
    sim.run()
    assert seen == ["now", "slim-below", "below-head", "head"]
    assert sim.now == 5.0


def test_push_at_open_batch_time_dispatches_before_later_times(
        scheduler) -> None:
    sim = Simulator()
    seen = []

    def opener():
        seen.append("opener")
        sim._post(0.0, seen.append, "post-0")
        sim.at(sim.now, seen.append, "at-now")
        sim.schedule(0.0, seen.append, "schedule-0")
        sim._post(1e-17, seen.append, "underflow")   # 1.0 + 1e-17 == 1.0
        sim._post_at(sim.now, seen.append, "post-at-now")

    sim.schedule(1.0, opener)
    sim.schedule(1.0, seen.append, "queued-before")
    sim.schedule(1.0 + 1e-9, seen.append, "later")
    sim.run()
    assert seen == ["opener", "queued-before", "post-0", "at-now",
                    "schedule-0", "underflow", "post-at-now", "later"]


def test_push_at_other_time_during_open_batch(scheduler) -> None:
    sim = Simulator()
    seen = []

    def opener():
        seen.append(("opener", sim.now))
        sim.at(1.5, lambda: seen.append(("between", sim.now)))
        sim._post(2.0, lambda: seen.append(("after", sim.now)))

    sim.schedule(1.0, opener)
    sim.schedule(1.0, lambda: seen.append(("same", sim.now)))
    sim.schedule(2.0, lambda: seen.append(("queued", sim.now)))
    sim.run()
    assert seen == [("opener", 1.0), ("same", 1.0), ("between", 1.5),
                    ("queued", 2.0), ("after", 3.0)]


def test_mixed_pop_and_pop_batch(scheduler) -> None:
    """Single steps, bounded runs and full runs interleave to one order."""
    def build():
        sim = Simulator()
        seen = []

        def prog(tag, delays):
            for delay in delays:
                yield sim.timeout(delay)
                seen.append((tag, sim.now))
                sim._post(0.0, seen.append, (tag, "lane", sim.now))

        for i, delays in enumerate([[1.0, 0.0, 1.0], [0.5, 0.5, 0.0],
                                    [1.0, 1.0], [0.0, 2.0]]):
            sim.spawn(prog(f"t{i}", delays))
        return sim, seen

    sim, expected = build()
    sim.run()

    sim, seen = build()
    for _ in range(3):
        assert sim.step()
    sim.run(until=1.0)
    assert sim.step()
    sim.run(until=sim.now + 0.5)
    sim.run()
    assert not sim.step()
    assert seen == expected
