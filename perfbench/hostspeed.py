"""Host-speed reference: a fixed piece of Python run beside the program.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts by tens of percent within seconds.  Raw pass times
then measure the neighbours as much as the program.  While a scenario
runs, :meth:`HostMeter.sampling` interrupts it every
``SAMPLE_INTERVAL_S`` with a timer signal and runs one chunk of this
reference in the handler; :meth:`HostMeter.sample` runs a few more right
before and after it.  ``run.py`` divides the scenario's times by the
reference's slowdown over that interval, so a figure reads as seconds
on a host where one reference chunk takes ``NOMINAL_CHUNK_S``.  Time
spent in the reference is left out of every program time: read program
times from :meth:`HostMeter.clock`.

The reference never touches ``src/``: a change to the program moves the
scaled times, a change to the host mostly does not.  It is a small
discrete-event packet simulation written to hit the interpreter paths
the program spends its time in (a heap of timed callbacks, small slotted
objects, dict lookups, deques and short hashes), so that contention
slows it about as much as it slows the program.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import signal
from collections import deque
from time import perf_counter
from typing import Iterator, Tuple

#: Seconds one chunk takes on the reference host (a 2-core x86-64 VM,
#: Python 3.11): the in-run median was 2.8 ms to 4.1 ms, by workload.
#: Changing it rescales every scaled time, so it is fixed with the
#: benchmark.
NOMINAL_CHUNK_S = 0.0032

#: Packets one chunk pushes through its ring of routers.
CHUNK_PACKETS = 250

#: Timer period of the in-scenario samples: about a tenth of the time
#: goes to the reference.
SAMPLE_INTERVAL_S = 0.05

_RING = 8

#: Packets in flight at once; a delivery injects the next one, so the
#: chunk's live objects stay few and never move the program's peak RSS.
_IN_FLIGHT = 16


class _Packet:
    __slots__ = ("flow", "seq", "dst", "hops")

    def __init__(self, flow: int, seq: int, dst: int) -> None:
        self.flow = flow
        self.seq = seq
        self.dst = dst
        self.hops = 0


class _Node:
    __slots__ = ("name", "queue", "routes", "flows", "sim")

    def __init__(self, name: int, sim: "_Sim") -> None:
        self.name = name
        self.queue: deque = deque()
        self.routes = {dst: (name + 1) % _RING for dst in range(_RING)}
        self.flows: dict = {}
        self.sim = sim

    def receive(self, packet: _Packet) -> None:
        packet.hops += 1
        self.flows[packet.flow] = self.flows.get(packet.flow, 0) + 1
        if packet.hops % 4 == 0:
            hashlib.blake2b(b"%d:%d:%d" % (self.name, packet.flow,
                                           packet.seq),
                            digest_size=8).digest()
        if packet.dst == self.name:
            self.sim.delivered += 1
            self.sim.schedule(0.0005, self.sim.inject)
            return
        self.queue.append(packet)
        self.sim.schedule(0.001, self.transmit)

    def transmit(self) -> None:
        packet = self.queue.popleft()
        self.sim.schedule(0.002, self.sim.nodes[self.routes[packet.dst]]
                          .receive, packet)


class _Sim:
    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.counter = 0
        self.injected = 0
        self.delivered = 0
        self.nodes = [_Node(i, self) for i in range(_RING)]

    def schedule(self, delay: float, fn, *args) -> None:
        self.counter += 1
        heapq.heappush(self.heap, (self.now + delay, self.counter, fn, args))

    def inject(self) -> None:
        seq = self.injected
        if seq == CHUNK_PACKETS:
            return
        self.injected += 1
        src = seq % _RING
        dst = (src + 1 + seq % (_RING - 1)) % _RING
        self.nodes[src].receive(_Packet(seq % 13, seq, dst))

    def run(self) -> int:
        heap = self.heap
        while heap:
            self.now, _, fn, args = heapq.heappop(heap)
            fn(*args)
        # Break the sim <-> node cycle so reference counting frees it all.
        self.nodes = []
        return self.delivered


def chunk() -> int:
    """One fixed unit of reference work; returns the packets delivered."""
    sim = _Sim()
    for _ in range(_IN_FLIGHT):
        sim.schedule(0.0, sim.inject)
    return sim.run()


class HostMeter:
    """The reference samples of one run, and a clock that leaves them out.

    Read every program time from :meth:`clock`; differences of
    :meth:`counters` over an interval give the mean chunk time in it.
    """

    def __init__(self) -> None:
        self.reference_s = 0.0
        self.chunks = 0

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the reference."""
        return perf_counter() - self.reference_s

    def counters(self) -> Tuple[float, int]:
        """Reference seconds and chunks so far."""
        return self.reference_s, self.chunks

    def _timed_chunk(self) -> None:
        # With the collector on, a chunk's allocations could start a
        # collection of the program's heap and charge it to the host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            if chunk() != CHUNK_PACKETS:
                raise AssertionError("host-speed reference lost packets")
            self.reference_s += perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.chunks += 1

    def sample(self, min_seconds: float) -> None:
        """Run whole chunks for ``min_seconds`` or more (at least one)."""
        end = perf_counter() + min_seconds
        self._timed_chunk()
        while perf_counter() < end:
            self._timed_chunk()

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Run one chunk every ``SAMPLE_INTERVAL_S`` while the block runs.

        The chunks run in a ``SIGALRM`` handler, between two bytecodes of
        the program, and touch none of its objects.
        """
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self._timed_chunk())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
