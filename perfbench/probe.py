"""Host-speed probe: fixed interpreter work timed beside every timed call.

The benchmark shares its host, whose speed drifts by up to a quarter on a
scale of minutes.  Wall and CPU time swing alike, so the drift is in how
fast the CPU runs, not in scheduling, and a median over one run cannot
remove it.  The probe is a fixed piece of pure-Python work -- an event
heap, dict counting, generator resumes, attribute access and float
arithmetic, the mix the simulator's hot paths are made of -- whose time
is the host's speed at that moment.

Scaling a repetition's wall by ``REFERENCE_S / probe`` gives the wall it
would have had on a host that runs the probe in ``REFERENCE_S``: the
drift common to both cancels.  The probe is the benchmark's code, so no
change to the program moves it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe seconds on the reference host, a shared 2-vCPU x86-64 VM
#: running CPython 3.11.  Throughput is work units per reference second.
REFERENCE_S = 0.05

#: Loop rounds of one probe (about REFERENCE_S on the reference host).
ROUNDS = 34000

_JOBS = 16


class _Job:
    __slots__ = ("name", "remaining")

    def __init__(self, name: str, remaining: float):
        self.name = name
        self.remaining = remaining


def _ticker(job: _Job, step: float):
    while job.remaining > 0:
        job.remaining -= step
        yield job.remaining


def work(rounds: int = ROUNDS) -> float:
    """The fixed work; returns a checksum so none of it is skipped."""
    jobs = [_Job(f"job{i}", 40.0 + i) for i in range(_JOBS)]
    tickers = [_ticker(job, 1.5) for job in jobs]
    heap: list = []
    counts: dict = {}
    total = 0.0
    for i in range(rounds):
        index = i % _JOBS
        heapq.heappush(heap, ((i * 7919) % 1013 * 1e-3, index))
        if len(heap) > 32:
            when, index = heapq.heappop(heap)
        else:
            when = 0.0
        job = jobs[index]
        counts[job.name] = counts.get(job.name, 0) + 1
        try:
            total += next(tickers[index]) * when
        except StopIteration:
            job.remaining = 40.0 + index
            tickers[index] = _ticker(job, 1.5)
    return total + len(counts)


def measure() -> float:
    """Host seconds one probe takes now.

    The collector is held off meanwhile, so the size of the program's
    heap, which a change to the program may move, stays out of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
