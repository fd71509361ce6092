"""The engine's two dispatch modes, for tests that must hold under both.

``"lane"`` is the engine as shipped: zero-delay :meth:`Simulator._post`
entries take the ready lane and a sole waiter triggered at the end of
its entry is woken in place.  ``"heap"`` is the reference it must be
indistinguishable from: every entry goes through the one binary heap
and every wake-up is queued — the engine with both optimizations
patched out for the duration of a :func:`use_scheduler` block.  With a
monitor installed the shipped engine already runs in this mode.

Tests parametrized by the ``scheduler`` fixture run once per mode (ids
``[heap]`` and ``[lane]``); the differential suites run a workload in
each mode and require bit-identical observables.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappush
from typing import Any, Callable, Iterator

import pytest

from repro.simulator import Event, Simulator

#: the reference first: a failing comparison then reads "heap vs lane"
SCHEDULERS = ("heap", "lane")


def _heap_post(self: Simulator, delay: float, fn: Callable,
               *args: Any) -> None:
    """:meth:`Simulator._post` without the ready lane."""
    if self.monitor is not None:
        self.at(self._now + delay, fn, *args)
        return
    self._seq += 1
    heappush(self._heap, (self._now + delay, self._seq, fn, args))


@contextmanager
def use_scheduler(kind: str) -> Iterator[str]:
    """Run the enclosed block in dispatch mode ``kind``."""
    if kind not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {kind!r}")
    if kind == "lane":
        yield kind
        return
    saved_post, saved_wake = Simulator._post, Event._succeed_last
    Simulator._post = _heap_post
    Event._succeed_last = Event.succeed
    try:
        yield kind
    finally:
        Simulator._post = saved_post
        Event._succeed_last = saved_wake


@pytest.fixture(params=SCHEDULERS)
def scheduler(request) -> Iterator[str]:
    with use_scheduler(request.param) as kind:
        yield kind
