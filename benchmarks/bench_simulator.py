"""Simulator-core throughput: events/second of the engine itself.

Not a paper figure — engineering telemetry for the reproduction: the
cost of events, task switches, and channel operations bounds how large
a NAS configuration the harness can simulate per wall-second.

The two-sided regression guard ratchets every benchmark here against
``BENCH_simulator.json``.  ``min_rounds=30`` keeps each bench's
per-round minimum — the statistic the guard ratchets on — well sampled
under ambient load.
"""

import pytest

from repro.simulator import Channel, Semaphore, Simulator

N = 20_000


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_event_heap_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]
        for i in range(N):
            sim.schedule(i * 1e-9, lambda: count.__setitem__(0, count[0] + 1))
        sim.run()
        return count[0]

    assert benchmark(run) == N


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_task_switch_throughput(benchmark):
    def run():
        sim = Simulator()

        def proc():
            for _ in range(N // 10):
                yield sim.timeout(1e-9)

        for _ in range(10):
            sim.spawn(proc())
        sim.run()
        return sim.now

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_same_time_flood_throughput(benchmark):
    """Dense ties: N pre-scheduled events over N/200 timestamps
    (collective fan-out shape)."""
    def run():
        sim = Simulator()
        count = [0]
        bump = lambda: count.__setitem__(0, count[0] + 1)  # noqa: E731
        for i in range(N):
            sim.schedule((i // 200) * 1e-6, bump)
        sim.run()
        return count[0]

    assert benchmark(run) == N


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_channel_pingpong_throughput(benchmark):
    def run():
        sim = Simulator()
        a, b = Channel(sim), Channel(sim)

        def left():
            for i in range(N // 10):
                a.put(i)
                yield b.get()

        def right():
            for _ in range(N // 10):
                item = yield a.get()
                b.put(item)

        sim.spawn(left())
        sim.spawn(right())
        sim.run()

    benchmark(run)


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_semaphore_contention_throughput(benchmark):
    def run():
        sim = Simulator()
        sem = Semaphore(sim, value=2)

        def worker():
            for _ in range(N // 40):
                yield sem.acquire()
                yield sim.timeout(1e-9)
                sem.release()

        for _ in range(8):
            sim.spawn(worker())
        sim.run()

    benchmark(run)


N_MSG = 300


def _message_rate_program(comm):
    """The shared 300-message workload of the full-stack benchmarks."""
    if comm.rank == 0:
        for i in range(N_MSG):
            yield from comm.send(1, tag=i % 4, size=256, data=i)
    else:
        out = 0
        for i in range(N_MSG):
            yield from comm.recv(src=0, tag=i % 4)
            out += 1
        return out


def _message_rate(trace=None):
    from repro import config
    from repro.runtime import run_mpi

    return run_mpi(_message_rate_program, 2, config.mpich2_nmad(),
                   cluster=config.xeon_pair(), trace=trace).result(1)


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_full_stack_message_rate(benchmark):
    """End-to-end: messages/second through the complete nmad stack."""
    assert benchmark(_message_rate) == N_MSG


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_full_stack_message_rate_traced(benchmark):
    """Same workload under a full in-memory Trace: tracing overhead."""
    from repro.simulator import Trace

    assert benchmark(lambda: _message_rate(Trace())) == N_MSG


@pytest.mark.benchmark(group="simulator", min_rounds=30)
def test_full_stack_message_rate_ring(benchmark):
    """Same workload under a bounded RingTrace(1024) streaming sink."""
    from repro.simulator import RingTrace

    assert benchmark(lambda: _message_rate(RingTrace(1024))) == N_MSG
