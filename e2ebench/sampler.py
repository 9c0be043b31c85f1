"""Host-speed and memory sampling around a timed region.

On a shared 2-vCPU host the same code runs up to 1.6 times slower in
some periods than in others, in phases of seconds to minutes, with no
steal time or load showing in the guest.  Wall time alone then measures
the host as much as the program.  So a timed region also samples the
speed of the CPU it runs on: a ``SIGALRM`` interval timer interrupts the
main thread every :data:`TICK_S` seconds, and the handler times a fixed
pure-Python chunk of :data:`CHUNK` loop steps.  The handler runs between
bytecodes of the main thread, on the main thread's CPU, at the moment
the region is running there.

:meth:`Sampler.scaled_seconds` turns the region's wall time, less the
handler's own time, into seconds at the reference speed
(:data:`REFERENCE_CHUNK_S` per chunk): wall time times the mean of
``REFERENCE_CHUNK_S / chunk`` over the samples.  The mean of the speed
weighs every sample by the wall time it stands for, so a region that
ran half in a fast phase and half in a slow one is scaled by the
average of the two.  A program change moves the scaled time as it
moves the wall time; the chunk does not depend on the program.

Every :data:`MEMORY_EVERY` ticks the handler also reads the process
tree's resident memory: this process's RSS plus the unique set size
(private pages) of each live child, so pages pool workers share with
their parent through ``fork`` count once.
"""

from __future__ import annotations

import glob
import signal
import time

TICK_S = 0.02
CHUNK = 5000
#: Chunk time on the host in its fast phases (Xeon, 2 vCPUs), so a
#: scaled second there is close to a wall second.
REFERENCE_CHUNK_S = 0.000225
MEMORY_EVERY = 5


def _chunk_seconds():
    started = time.perf_counter()
    total = 0
    for value in range(CHUNK):
        total += value % 7
    return time.perf_counter() - started


def _kib(path, keys):
    """Sum of the ``kB`` fields named *keys* in a /proc file (0 when the
    process is gone)."""
    total = 0
    try:
        with open(path) as handle:
            for line in handle:
                key, __, rest = line.partition(":")
                if key in keys:
                    total += int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        return 0
    return total


def tree_kib():
    """This process's RSS plus each live child's unique set size, KiB."""
    total = _kib("/proc/self/status", ("VmRSS",))
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                children = handle.read().split()
        except OSError:
            continue
        for pid in children:
            total += _kib("/proc/{}/smaps_rollup".format(pid),
                          ("Private_Clean", "Private_Dirty"))
    return total


class Sampler:
    """Samples CPU speed and process-tree memory while started.

    One sampler may be started and stopped many times; :attr:`peak_kib`
    keeps the largest process-tree memory seen over all of them.
    """

    def __init__(self):
        self.peak_kib = 0
        self._speeds = []
        self._spent = 0.0
        self._ticks = 0
        self._started = None
        self.wall = 0.0
        self._previous = None

    def _sample(self, *__):
        started = time.perf_counter()
        self._speeds.append(REFERENCE_CHUNK_S / _chunk_seconds())
        self._ticks += 1
        if self._ticks % MEMORY_EVERY == 0:
            self.peak_kib = max(self.peak_kib, tree_kib())
        self._spent += time.perf_counter() - started

    def start(self):
        """Begin a region: sample now, then every :data:`TICK_S`."""
        self._speeds, self._spent, self._ticks = [], 0.0, 0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """End the region (one last sample); returns its wall seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        self.wall = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.peak_kib = max(self.peak_kib, tree_kib())
        return self.wall

    def scaled_seconds(self):
        """The last region's time at the reference speed."""
        return (self.wall - self._spent) * self.speed()

    def speed(self):
        """The last region's mean speed against the reference."""
        return sum(self._speeds) / len(self._speeds)
