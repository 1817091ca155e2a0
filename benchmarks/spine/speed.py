"""Taking the machine's own speed out of a timing.

The sandbox this benchmark was built on (two virtual cores on a shared
host) does not run at one speed.  Forty identical queries, timed every
fifth of a second for a quarter of an hour, took between 35 and 69 ms as
the host's load came and went — for seconds to minutes at a time — and
ten-second totals of them spread (first to third quartile) by 25 % of
their median.  No bound a regression check could use survives that.

So a :class:`SpeedMonitor` thread times a short fixed interpreter loop
every few tens of milliseconds for the whole run, and for every timed
stretch — a pass, a block, a set-up — the share of it the processes spent
*computing* is scaled to a nominal machine speed; the share spent
*waiting* (kernel timers, fsync, the other side of a socket) is left
alone::

    at nominal speed = wall * (1 - busy * (1 - NOMINAL / probe))

``probe`` is the median duration of the loop while the stretch ran and
``busy`` is process CPU time over wall time (capped at 1), so an
in-process pass is corrected almost fully and a request that sits out a
40 ms delayed ACK almost not at all.  On a machine running at the nominal
speed the correction is the identity.  What is reported is thus "seconds
on a machine that runs the loop in ``NOMINAL_PROBE_SECONDS``": a faster
host shows up in the probe, not in the metrics, and the metrics compare
the program with itself.

The loop is a pointer chase through a small table, because that is what
tracked the program best: over four such logs the logarithm of the query
time (and of a mutation verb's, and of a hybrid query's) rose 0.9 to 1.5
times as fast as the logarithm of this loop's time, against 1.5 to 2.0
for a loop of integer arithmetic and 1.2 to 1.7 for a breadth-first
search over a dict of lists — both feel the host's load less than the
program does.  Scaled per one-second stretch and then taken as a median
over ten of them, the spread of the ten-second totals fell from 25 % to
6 %.  Where the program slows 1.5 times as fast as the loop the scaling
falls short: a run made while passes took 1.6 times their quiet-state
time read 20 % worse than one made on a quiet host.
"""

from __future__ import annotations

import random
import statistics
import threading
from time import perf_counter
from typing import List, Tuple

#: the probe loop: ``PROBE_STEPS`` dependent loads through one cycle over
#: ``len(_TABLE)`` slots.  So few that the table never leaves the
#: processor's cache: with 4,096 slots a fifth of a probe went into
#: refilling whatever the program had evicted since the last one, and
#: probes followed the program's memory traffic, not the machine
PROBE_STEPS = 16384
_ORDER = list(range(256))
random.Random(0).shuffle(_ORDER)
_TABLE = [0] * len(_ORDER)
for _position, _slot in enumerate(_ORDER):
    _TABLE[_slot] = _ORDER[(_position + 1) % len(_ORDER)]

#: the probe loop's duration while the sandbox's host was quiet
NOMINAL_PROBE_SECONDS = 0.00029

#: pause between two probe loops; the loop itself takes a third of a
#: millisecond, so the monitor costs the measured process under one percent
PROBE_INTERVAL_SECONDS = 0.04


def machine_probe() -> float:
    """Seconds a fixed interpreter loop takes right now — how fast the
    machine is, independent of the program under test."""
    table = _TABLE
    slot = 0
    begin = perf_counter()
    for _ in range(PROBE_STEPS):
        slot = table[slot]
    return perf_counter() - begin


class SpeedMonitor:
    """Samples :func:`machine_probe` on a background thread between
    ``__enter__`` and ``__exit__``.  A probe is shorter than the
    interpreter's thread switch interval, so it runs undivided once the
    thread holds the interpreter lock; the wait for the lock is not in it.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="spine-speed-monitor", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_SECONDS):
            self.samples.append((perf_counter(), machine_probe()))

    def __enter__(self) -> "SpeedMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def probe(self, start: float, end: float) -> float:
        """Median probe duration between two ``perf_counter`` readings
        (the nominal one when the stretch was too short to hold a probe).
        The median, because a probe the scheduler cut in two says nothing
        about the machine's speed, and a mean that a few of those inflate
        would scale an undisturbed stretch down."""
        inside = [seconds for when, seconds in self.samples if start <= when <= end]
        return statistics.median(inside) if inside else NOMINAL_PROBE_SECONDS


def nominal_factor(wall: float, cpu: float, probe: float) -> float:
    """What to multiply a stretch of ``wall`` seconds by, given the
    ``cpu`` seconds the processes computed during it and the median
    ``probe`` seconds measured while it ran."""
    if wall <= 0 or probe <= 0:
        return 1.0
    busy = min(1.0, cpu / wall)
    return 1.0 - busy * (1.0 - NOMINAL_PROBE_SECONDS / probe)
