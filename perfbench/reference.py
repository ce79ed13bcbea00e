"""A fixed reference computation that gauges the machine's speed.

The benchmark runs on shared virtual machines whose vCPUs each switch,
every few seconds, between a fast state and one about 1.6 times slower,
independently of one another.  A host-time metric taken as it is then
measures the neighbours more than the program.

``Probe`` times a short piece of this computation every ``INTERVAL_S``
seconds of process CPU time, from a ``SIGPROF`` handler, on the same
vCPU and at the same moment as the program.  ``scaled`` turns the CPU
time of a window into the time it would have taken at the nominal
speed, where one piece takes ``NOMINAL_S``: the window's CPU time less
the probe's own, times the mean of ``NOMINAL_S / piece`` over the
window's samples.  A slow state stretches the program and the pieces
alike and cancels out; a faster program still gives a proportionally
smaller scaled time.  Pieces and windows are timed in process CPU time,
so time the process spends runnable but off its vCPU (another process,
or the host running another machine) is not counted either; the
workloads run serially in one thread, so on an otherwise idle machine
their CPU time is their wall time.

The computation is the benchmark's own and imports nothing from the
program, so a change under ``src/`` cannot change it.  It is
interpreter-bound work of the program's kind: a set-associative LRU
cache, one dict per set, on a pseudo-random address stream.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Accesses per piece; one piece takes about 1 ms on a 2.1 GHz Xeon in
#: its fast state.
ACCESSES = 2_000

#: Process CPU seconds between two pieces.
INTERVAL_S = 0.025

#: The piece time of the nominal speed that scaled times are given at.
NOMINAL_S = 0.001


def piece(accesses: int = ACCESSES) -> int:
    """One reference piece; returns its hit count."""
    sets = [{} for _ in range(64)]
    state = 12_345
    hits = 0
    for now in range(accesses):
        state = (state * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        line = (state >> 9) & 0xFFF
        frames = sets[line & 63]
        if line in frames:
            del frames[line]
            hits += 1
        elif len(frames) >= 16:
            del frames[next(iter(frames))]
        frames[line] = now
    return hits


#: One sample: the ``time.monotonic()`` reading when the piece started
#: and the piece's duration in CPU seconds.
Sample = Tuple[float, float]


class Probe:
    """Samples the machine's speed while the process runs.

    Use as a context manager; ``samples`` holds one ``Sample`` per
    piece.  The previous ``SIGPROF`` handler and timer are restored on
    exit.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        # Thread CPU time: while ITIMER_PROF is armed, the kernel's
        # process CPU clock only advances at scheduler ticks.
        start = time.thread_time()
        piece()
        self.samples.append((started, time.thread_time() - start))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def scaled(cpu_seconds: float, samples: List[Sample], begin: float, end: float) -> float:
    """``cpu_seconds`` of process CPU time spent in the monotonic window
    ``[begin, end)``, scaled to the nominal speed by the samples taken
    in that window."""
    inside = [duration for started, duration in samples if begin <= started < end]
    if not inside:
        raise ValueError(f"no speed sample in a window of {end - begin:.3f}s")
    speed = sum(NOMINAL_S / duration for duration in inside) / len(inside)
    return (cpu_seconds - sum(inside)) * speed
