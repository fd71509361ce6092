"""Deterministic discrete-event simulation engine.

This package is the substrate for the whole reproduction: every other
subsystem (NIC models, thread schedulers, the MPI stacks) is expressed as
tasks running inside a :class:`~repro.simulator.engine.Simulator`.

The design follows the classic coroutine DES shape (SimPy-like, but
self-contained and deterministic):

* :class:`~repro.simulator.engine.Simulator` owns the event queue (a
  heap plus a zero-delay ready lane) and the clock.
* :class:`~repro.simulator.events.Event` is the one-shot synchronization
  primitive; tasks yield events to wait for them.
* :class:`~repro.simulator.process.Task` drives a generator coroutine; a
  task is itself an event that triggers when the generator returns.
* :mod:`~repro.simulator.resources` provides semaphores, mutexes and
  channels built on events.

Determinism: ties in time are broken by a monotonically increasing
sequence number, so two runs with the same inputs produce identical
schedules.  All randomness must come from :mod:`repro.simulator.rng`
streams seeded explicitly.
"""

from repro.simulator.engine import Simulator, ScheduledCallback
from repro.simulator.events import Event, AllOf, AnyOf
from repro.simulator.process import Task
from repro.simulator.resources import Semaphore, Mutex, Channel
from repro.simulator.errors import SimulationError, Interrupt
from repro.simulator.hostclock import host_clock
from repro.simulator.tracing import (Trace, TraceRecord, TraceSampler,
                                     RingTrace, JsonlTrace, load_trace_jsonl)
from repro.simulator.rng import rng_stream

__all__ = [
    "Simulator",
    "ScheduledCallback",
    "Event",
    "AllOf",
    "AnyOf",
    "Task",
    "Semaphore",
    "Mutex",
    "Channel",
    "SimulationError",
    "Interrupt",
    "Trace",
    "TraceRecord",
    "TraceSampler",
    "RingTrace",
    "JsonlTrace",
    "load_trace_jsonl",
    "host_clock",
    "rng_stream",
]
