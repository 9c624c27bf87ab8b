"""Machine-speed calibration for the end-to-end timings.

On a shared VM the speed of the CPU moves by up to 1.8x over seconds to
minutes, with the load of other tenants.  The timed loop therefore
measures the machine's speed between ops, at least every ``EVERY_NS``
of op time, by timing a fixed calibration block, and reports every time
in *reference* units: wall time scaled by ``REFERENCE_NS`` over the
block's time measured around it.  One reference millisecond is the time
the machine takes for ``1e6 / REFERENCE_NS`` calibration blocks.

The block does the kind of work the package does, in plain Python and
without importing it: small graphs of slotted vertex objects with
dict-of-set adjacency, built arc by arc, a recursive simple-path walk
and a label-propagation closure.  So a change to the package cannot
move it, and the tenants' load slows it as it slows the package.  The
cyclic garbage collector is off while it runs, so its time does not
depend on the size of the heap the workload keeps.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from array import array

# Calibration-block time that defines the unit: about the block's median
# time on the 2-core VM the benchmark was written on.
REFERENCE_NS = 2_000_000
# Calibration runs once at least this much op time has passed, and takes
# about SHARE of the op time it calibrates: one block or the median of
# several.
EVERY_NS = 25_000_000
SHARE = 0.08
MAX_BLOCKS = 15


def _corpus() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(1)
    graphs = []
    for k in range(60):
        n = 8 + k % 5
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 1.6 / n]
        graphs.append((n, arcs))
    return graphs


_GRAPHS = _corpus()


class _Vertex:
    __slots__ = ("id", "out")

    def __init__(self, vid: int) -> None:
        self.id = vid
        self.out: dict[int, set[str]] = {}


def _work() -> int:
    walked = 0
    for n, arcs in _GRAPHS:
        vertices = [_Vertex(v) for v in range(n)]
        for a, b in arcs:
            vertices[a].out.setdefault(b, set()).add("t")

        def extend(v: int, on_path: set[int]) -> None:
            nonlocal walked
            walked += 1
            for w in vertices[v].out:
                if w not in on_path:
                    on_path.add(w)
                    extend(w, on_path)
                    on_path.discard(w)

        extend(0, {0})
        label = list(range(n))
        changed = True
        while changed:
            changed = False
            for a, b in arcs:
                low = min(label[a], label[b])
                if label[a] != low or label[b] != low:
                    label[a] = label[b] = low
                    changed = True
    return walked


def block() -> int:
    """Run the calibration block once; return its wall time in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def speed(blocks: int = 3) -> float:
    """Median time of a few blocks, in ns: the machine's current speed."""
    return statistics.median(block() for _ in range(blocks))


class Calibrated:
    """Op latencies of a timed loop, scaled to reference time.

    ``op_done`` takes each op's latency and its wall time including the
    loop's own bookkeeping; once ``EVERY_NS`` of wall time has gathered,
    the machine's speed is measured and the ops since the last
    measurement are scaled by ``REFERENCE_NS`` over the mean of the two
    measurements around them.  Calibration time itself is never counted
    as op time.
    """

    def __init__(self) -> None:
        for _ in range(3):  # warm the block's code and allocator state
            block()
        self.last = speed()
        self.blocks = [self.last]
        self.pending: list[int] = []
        self.pending_wall = 0
        # Flat arrays, not lists of number objects: the loop's own memory
        # must not grow peak RSS with the sample count.
        self.latencies = array("d")
        self.raw = array("q")
        self.wall = 0.0
        self.raw_wall = 0

    def op_done(self, latency_ns: int, wall_ns: int) -> None:
        self.pending.append(latency_ns)
        self.pending_wall += wall_ns
        if self.pending_wall >= EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        blocks = min(MAX_BLOCKS, max(1, round(self.pending_wall * SHARE / REFERENCE_NS)))
        now = speed(blocks)
        scale = REFERENCE_NS / ((self.last + now) / 2)
        self.latencies.extend(latency * scale for latency in self.pending)
        self.raw.extend(self.pending)
        self.wall += self.pending_wall * scale
        self.raw_wall += self.pending_wall
        self.blocks.append(now)
        self.last = now
        self.pending, self.pending_wall = [], 0
