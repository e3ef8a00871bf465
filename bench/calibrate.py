"""Host-speed calibration: times in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same deterministic study round took 15 s at one time and 30 s at another,
with CPU time following wall time, and within a run the speed swings by
about 30% over a few seconds. No program change moves times that much, so raw
seconds would hide every regression inside the host's drift.

A ``Pacer`` therefore interleaves a fixed calibration slice with the timed
work: whenever ``PERIOD_S`` has passed since the last slice, the next
``tick`` runs one. Slices are spread evenly in time, so their mean time
over an interval is the host's mean speed over it. A time measured over that
interval, minus the slices' own time, is scaled by ``SLICE_REF_S / mean
slice time``: it is the time the same work takes on a host where one slice
takes ``SLICE_REF_S``, a reference speed that is fixed and chosen once. The
slice is benchmark code and never calls the package, so a change to the
package moves the scaled times and leaves the slices alone.

The slice does what the package's walk search does (a depth-first search
over a small walk with a dict of edge uses, slotted objects and tuple keys)
plus lookups at scattered keys in a table of some megabytes, as the memo and
cache lookups do, so host slowdowns that hit the interpreter or the memory
hit it in about the same measure.
"""

from __future__ import annotations

import statistics
import time

# the wall time of one slice at the reference speed; about what it took on
# the 2-core VM that the reference figures in README.md come from
SLICE_REF_S = 0.003
PERIOD_S = 0.05
# a single call is scaled by the slices within this many of the call, about
# half a second either side
LOCAL_SLICES = 8

_TABLE_SIZE = 20011
_TABLE = {(i, i * 7 % 13, i % 5): i for i in range(_TABLE_SIZE)}
_KEYS = [(j, j * 7 % 13, j % 5) for j in ((i * 7919) % _TABLE_SIZE for i in range(2000))]


class _Walk:
    __slots__ = ("seq", "use", "leaves")

    def __init__(self):
        self.seq = [0]
        self.use: dict[tuple[int, int, int], int] = {}
        self.leaves = 0

    def push(self, nxt: int, label: int) -> bool:
        edge = (self.seq[-1], label, nxt)
        use = self.use.get(edge, 0)
        if use >= 2:
            return False
        self.use[edge] = use + 1
        self.seq.append(nxt)
        return True

    def pop(self, label: int) -> None:
        nxt = self.seq.pop()
        edge = (self.seq[-1], label, nxt)
        use = self.use[edge] - 1
        if use:
            self.use[edge] = use
        else:
            del self.use[edge]


def _search(walk: _Walk, depth: int, states: int) -> None:
    if depth == 0:
        walk.leaves += 1
        return
    for nxt in range(states):
        label = (len(walk.seq) + nxt) & 1
        if walk.push(nxt, label):
            _search(walk, depth - 1, states)
            walk.pop(label)


def calibration_slice() -> int:
    walk = _Walk()
    _search(walk, 6, 3)
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    return walk.leaves + total


class Pacer:
    """Runs a calibration slice every ``period`` seconds of ticks and keeps
    the slices' times and the wall and CPU time they took."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.slices: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._next = time.perf_counter()

    def run_slice(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        calibration_slice()
        wall = time.perf_counter()
        self.slices.append(wall - wall0)
        self.spent_wall += wall - wall0
        self.spent_cpu += time.process_time() - cpu0
        self._next = wall + self.period

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.run_slice()

    def mark(self) -> tuple[int, float, float]:
        return len(self.slices), self.spent_wall, self.spent_cpu

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float, float]:
        """(scale factor, slice wall time, slice CPU time) since ``mark``."""
        count, wall, cpu = mark
        spent = (self.spent_wall - wall, self.spent_cpu - cpu)
        if count == len(self.slices):
            self.run_slice()  # an interval shorter than the period
        return SLICE_REF_S / statistics.fmean(self.slices[count:]), *spent

    def scale_calls(self, times, slices_before) -> list[float]:
        """Scale the time of each call by the slices around it, given the
        number of slices run before it: single calls are short enough to feel
        the swings that a whole round averages out."""
        prefix = [0.0]
        for t in self.slices:
            prefix.append(prefix[-1] + t)
        last = len(self.slices)
        scaled = []
        for seconds, k in zip(times, slices_before):
            lo, hi = max(0, k - LOCAL_SLICES), min(last, k + LOCAL_SLICES)
            scaled.append(seconds * SLICE_REF_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return scaled
