"""The normalized host clock.

Host speed on a shared machine drifts by up to 1.8x within seconds, so
raw wall time per commit is not comparable from run to run. Every timed
slice of work is therefore bracketed by reference readings and rescaled
to a host whose reading is ``REFERENCE_S``:

    normalized = wall * (REFERENCE_S / mean(before, after)) ** SENSITIVITY

The reference pass uses the standard library only and never calls the
program under test, so no change to the program can move it. It has two
halves:

* random-order lookups in a dict far larger than the CPU caches, which
  stall on memory like the simulation's object graph does;
* a miniature discrete-event loop: a heapq of generator processes that
  build small dicts and slotted objects and json-encode and sha256 a
  third of them, the interpreter-bound mix of the program's hot path.

On a 0.3 s endorse-heavy slice a cache-resident json/sha256 loop alone
tracked host speed worse than a memory-bound lookup loop (normalized
coefficient of variation 12% against 8%).

The simulation slows down less than the reference does when the host
does: regressing the log of a slice's wall time on the log of its
reading, slice by slice across repeats of the same window, gives a slope
of 0.74 on bidl-baseline (22 repeats) and 0.75 on endorse-heavy (7
repeats). Hence the exponent ``SENSITIVITY`` = 0.8, which cut the
coefficient of variation of repeated windows from 4.5% (exponent 1) to
3.2% on bidl-baseline and from 5.6% to 3.0% on endorse-heavy, against
12% and 18% raw.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import time

# The constant a reading is scaled to: the median reading on the 2-core
# calibration host (an "Intel Xeon Processor" VM), so that one normalized
# second ("ref-s") is about one second there.
REFERENCE_S = 0.010
# How strongly the simulation's speed follows the reading (see above).
SENSITIVITY = 0.8
# One reading is the median of this many back-to-back passes, so a single
# preemption does not skew the scale of the slices on either side.
PASSES_PER_READING = 3

_TABLE_SIZE = 200_000
_LOOKUPS = 8_000
_PROCESSES = 100


class _Item:
    __slots__ = ("index", "step", "body")

    def __init__(self, index: int, step: int, body: dict) -> None:
        self.index = index
        self.step = step
        self.body = body


def _mini_simulation() -> int:
    heap = []
    state = {}
    digest = hashlib.sha256()
    sequence = 0
    finished = 0

    def process(index):
        for step in range(6):
            item = _Item(index, step, {"key": f"o{index % 97}", "step": step})
            state[(index * 7 + step) % 4093] = item
            if step % 3 == 0:
                digest.update(
                    json.dumps(item.body, sort_keys=True, separators=(",", ":")).encode()
                )
            yield (index * 13 + step * 7) % 5 * 0.001 + 0.001

    for index in range(_PROCESSES):
        heapq.heappush(heap, (index * 0.0005, sequence, process(index)))
        sequence += 1
    while heap:
        now, _, generator = heapq.heappop(heap)
        try:
            delay = next(generator)
        except StopIteration:
            finished += 1
            continue
        heapq.heappush(heap, (now + delay, sequence, generator))
        sequence += 1
    return finished + len(state) + digest.digest()[0]


class ReferenceLoop:
    """The fixed stdlib-only reference work and its lookup table."""

    def __init__(self) -> None:
        self._table = {f"key{index}": index for index in range(_TABLE_SIZE)}
        keys = list(self._table)
        random.Random(20231127).shuffle(keys)
        # A tuple of untracked strings is itself untracked by the cycle
        # collector after one collection, so the table adds no work to
        # the program's garbage collections.
        self._keys = tuple(keys)
        self._offset = 0

    def _lookups(self) -> int:
        # Each pass probes the next stretch of a random permutation, so
        # back-to-back passes do not find their keys already in cache.
        start = self._offset
        self._offset = (start + _LOOKUPS) % (_TABLE_SIZE - _LOOKUPS)
        table = self._table
        total = 0
        for key in self._keys[start:start + _LOOKUPS]:
            total += table[key]
        return total

    def run(self) -> int:
        """One fixed unit of work; returns a checksum."""
        return self._lookups() + _mini_simulation()

    def reading(self) -> float:
        """Seconds one pass takes right now (median of a few)."""
        timings = []
        for _ in range(PASSES_PER_READING):
            start = time.perf_counter()
            self.run()
            timings.append(time.perf_counter() - start)
        timings.sort()
        return timings[len(timings) // 2]


class NormClock:
    """Times work between reference readings on the normalized clock.

    Each :meth:`measure` call runs the work, takes a fresh reference
    reading, and scales the work's wall time by the mean of the reading
    before it (the previous call's, or the initial one) and the reading
    after it. Consecutive slices therefore share one reading, and only
    the reference loop runs between a slice and the readings that scale
    it.
    """

    def __init__(self) -> None:
        self._loop = ReferenceLoop()
        self._last = self._loop.reading()

    def measure(self, work) -> tuple:
        """Run ``work()``; return ``(result, wall_s, normalized_s)``."""
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        after = self._loop.reading()
        scale = (REFERENCE_S / ((self._last + after) / 2.0)) ** SENSITIVITY
        self._last = after
        return result, wall, wall * scale
