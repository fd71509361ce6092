"""Host-speed probe: a fixed reference loop sampled alongside a run.

The shared hosts this benchmark runs on change speed by up to 2x from
one second to the next (other tenants' load on the same cores and
caches), which moves a 2-second simulation's time by as much as any
change to the simulator would.  :class:`Probe` measures the host's
speed over exactly the interval a run takes: a background thread
wakes every :data:`PERIOD` seconds and times one chunk of
:func:`reference_loop`.  Because of the GIL the chunks interleave with
the simulation on the same core, so they see the same host states it
does; :func:`pin_to_current_cpu` keeps both threads on one vCPU, as
otherwise the probe would sample a different core than the one the
simulation runs on.  ``run.py`` scales a run's times by the reference
time of a chunk over its typical time during the run.

The reference loop is the benchmark's own code, so no change to the
simulator moves it: a slower simulator still reads slower.
"""

from __future__ import annotations

import heapq
import os
import threading
import time

#: events one chunk of the reference loop executes (about 1 ms)
CHUNK_EVENTS = 400
#: seconds between chunks (the probe costs about 5% of a run)
PERIOD = 0.02


def reference_loop(events: int = CHUNK_EVENTS) -> int:
    """Fixed pure-Python work shaped like the simulator's hot path: a
    heap of small event objects, a callback per event, a dict update
    and an LCG."""

    class Event:
        __slots__ = ("time", "handler", "arg")

        def __init__(self, time, handler, arg):
            self.time, self.handler, self.arg = time, handler, arg

        def __lt__(self, other):
            return self.time < other.time

    counts = {}

    def handler(arg):
        key = arg % 97
        counts[key] = counts.get(key, 0) + 1
        return key

    queue = [Event(i * 0.5, handler, i) for i in range(200)]
    heapq.heapify(queue)
    x = 12345
    for _ in range(events):
        event = heapq.heappop(queue)
        event.handler(event.arg)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, Event(event.time + (x % 1000) / 100.0,
                                    handler, x))
    return sum(counts.values())


def pin_to_current_cpu() -> None:
    """Restrict this thread, and threads it starts later, to the CPU
    it is running on now (a no-op where affinity is not supported)."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with open("/proc/self/stat") as fh:
        # field 39 of stat(5); the command name before it may hold spaces
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def _timed_chunk() -> tuple:
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    reference_loop()
    return time.perf_counter() - wall0, time.thread_time() - cpu0


def _typical(times: list) -> float:
    """Mean of the fastest three quarters: a chunk that an interrupt
    or a page fault hit is slow for reasons the simulation around it
    barely shares, and such outliers only ever go one way."""
    kept = sorted(times)[:max(1, len(times) - len(times) // 4)]
    return sum(kept) / len(kept)


class Probe(threading.Thread):
    """Times a reference chunk every :data:`PERIOD` seconds until
    :meth:`close`; :meth:`split` summarises the chunks timed since the
    previous split."""

    def __init__(self) -> None:
        super().__init__(name="hostspeed-probe", daemon=True)
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._chunks: list = []

    def run(self) -> None:
        while not self._halt.wait(PERIOD):
            chunk = _timed_chunk()
            with self._lock:
                self._chunks.append(chunk)

    def split(self) -> dict:
        """``chunks`` timed since the last split, their total ``wall``
        seconds, and the typical ``chunk_wall`` and ``chunk_cpu`` time
        of one chunk.  A split that saw no chunk (an interval shorter
        than :data:`PERIOD`) times one now, after the interval."""
        with self._lock:
            chunks, self._chunks = self._chunks, []
        wall = sum(w for w, _ in chunks)
        typical = chunks or [_timed_chunk()]
        return {"chunks": len(chunks), "wall": wall,
                "chunk_wall": _typical([w for w, _ in typical]),
                "chunk_cpu": _typical([c for _, c in typical])}

    def close(self) -> None:
        self._halt.set()
        self.join()
