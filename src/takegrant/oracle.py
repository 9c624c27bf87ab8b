"""Ground truth and corpus generation for exercising the search engines.

The two reference engines the frontier engine is checked against live
here, beside the generators, so a query never compiles them: the package
loads this module only for the tests and the ``check`` and ``gen``
commands.  ``bridge_exists_faithful`` re-runs the frontier engine's pass
structure literally, re-scanning every arc out of the whole reached set
on every pass.  It reads only the graph's rights masks, and for ``t<-*``
a flipped copy of its take arcs built from them, never the t-lists the
frontier engine walks, so a drift between the two stores shows up as a
disagreement.

``brute_force_bridge`` answers bridge queries by iterative deepening
over simple paths, shortest first -- a deliberately different strategy
from the worklist engines, so a bug in one is unlikely to hide in the
other.  A flood fill settles existence first, so only a hit is ever
enumerated, and a miss costs one pass over what the start reaches.  It
walks an explicit stack, not Python's call stack, so it needs O(depth)
memory and has no recursion limit.

``enumerate_t_arc_graphs`` walks every t-arc pattern over a small fixed
vertex set, and ``random_graph`` draws reproducible graphs from a
seeded SplitMix64 stream.
Both generators hand their arcs to the graph as rights masks, one source's row
per call, skipping ``add_edge``'s checks on ids and rights they made
themselves.
``random_graph`` runs SplitMix64 on up to 1,024 draws at once, one per
128-bit lane of a Python int, and reads each draw's decision, exactly
the one ``next_unit() < p`` would make, from one bit of its lane.  It
decodes those decisions one source vertex's row at a time, with bytes
and ``itertools`` operations, so Python steps once per row, and per
arc only inside the graph's row writer, never per draw.
"""

from __future__ import annotations

import functools
import math
from itertools import compress, count
from typing import Iterator, Sequence

from ._value import Value
from .bridges import BridgePath, Direction, SearchReport, _path, check_query
from .errors import EmptySpecError, InvalidRightError, TooLargeError
from .graph import _BIT, _T, RIGHT_ORDER, ProtectionGraph, Right, VertexId, VertexKind

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# random_graph draws this many candidates per pass of _mix.
_BLOCK = 1024

# Past this many vertices the t-arc family (2 ** (n * (n - 1)) graphs)
# stops being enumerable in reasonable time.
_ENUMERATION_CAP = 5


class RandomGraphSpec(Value):
    """Parameters that fully determine one generated graph.

    Every (ordered pair, right) candidate is included independently
    with ``arc_probability``; same spec, same graph, bit for bit.
    """

    __slots__ = ("n_subjects", "n_objects", "arc_probability", "rights_pool", "seed")
    n_subjects: int
    n_objects: int
    arc_probability: float
    rights_pool: frozenset[Right]
    seed: int

    def __init__(
        self,
        n_subjects: int,
        n_objects: int,
        arc_probability: float,
        rights_pool: frozenset[Right] = frozenset({Right.T}),
        seed: int = 0,
    ) -> None:
        set_n_subjects, set_n_objects, set_probability, set_pool, set_seed = self._setters
        set_n_subjects(self, n_subjects)
        set_n_objects(self, n_objects)
        set_probability(self, arc_probability)
        set_pool(self, rights_pool)
        set_seed(self, seed)


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    The 64-bit mixer from Steele, Lea and Flood's splittable PRNG (the
    stream ``java.util.SplittableRandom`` produces).  Chosen because the
    whole generator is a dozen portable lines, so a corpus is pinned by
    its seed alone no matter who regenerates it.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state, _MASK64)

    def next_unit(self) -> float:
        """Uniform float in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def _mix(z: int, m: int) -> int:
    """SplitMix64's output function, on every 128-bit lane of *z* at once.

    Each lane holds one 64-bit state in its low half and *m* is 2**64 - 1
    in every lane, so one lane is plain SplitMix64.  Masking after each
    shift-xor drops the bits the shift pulled in from the next lane, and
    a 64x64-bit product fits its 128-bit lane, so no lane leaks into
    another (Lamport's SWAR, CACM 18(8), 1975, on a Python int).
    """
    z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
    z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
    return (z ^ (z >> 31)) & m


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """1, 2**64 - 1 and (i+1)*gamma mod 2**64 in lane i, over ``_BLOCK`` lanes."""
    steps = b"".join(((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(_BLOCK))
    return (
        int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little"),
        int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little"),
        int.from_bytes(steps, "little"),
    )


def random_graph(spec: RandomGraphSpec) -> ProtectionGraph:
    """Draw the graph *spec* determines.

    Vertices are subjects ``s0..`` then objects ``o0..``.  One SplitMix64
    stream seeded with ``spec.seed`` is consumed in a fixed order: for
    every ordered pair (src, dst), src != dst, both ascending, and for
    every pooled right in t, g, r, w order, a single draw decides
    whether that arc carries that right (``next_unit() < arc_probability``).

    That holds exactly when ``next_u64() < ceil(p * 2**53) << 11``
    (``p * 2**53`` is exact).  Draws are made ``_BLOCK`` at a time, one
    per 128-bit lane of a Python int, by ``_mix``; a lane holding
    ``2**64 + limit - 1`` minus the draw keeps bit 64 set exactly when
    the draw is below ``limit``, so byte 8 of each lane is the decision.
    Decisions queue in a buffer until they fill a source's whole row of
    ``(total - 1) * width`` draws, so it never holds more than one row
    plus one block.  A row folds into one rights-mask byte per pair;
    ``compress`` picks the pairs whose mask is not zero, and the row
    goes in as one ``_insert_row`` call, in draw order.
    A pool item that is not a ``Right`` raises ``InvalidRightError``; an
    empty pool gives no arcs.
    """
    if spec.n_subjects < 0 or spec.n_objects < 0:
        raise ValueError("vertex counts must be non-negative")
    if not 0.0 <= spec.arc_probability <= 1.0:
        raise ValueError(f"arc_probability must be in [0, 1], got {spec.arc_probability}")
    for right in spec.rights_pool:
        if right.__class__ is not Right:
            raise InvalidRightError(f"rights pool item {right!r} is not a Right")
    total = spec.n_subjects + spec.n_objects
    if total == 0:
        raise EmptySpecError("graph spec declares zero vertices")
    g = ProtectionGraph()
    for i in range(spec.n_subjects):
        g.add_vertex(f"s{i}", VertexKind.SUBJECT)
    for i in range(spec.n_objects):
        g.add_vertex(f"o{i}", VertexKind.OBJECT)
    bits = [_BIT[r] for r in RIGHT_ORDER if r in spec.rights_pool]
    width = len(bits)
    draws = total * (total - 1) * width
    if not draws:
        return g
    limit = math.ceil(spec.arc_probability * 2.0**53) << 11
    # One int object per vertex id, shared by every arc that names it.
    ids = list(range(total))
    write = g._insert_row
    row = (total - 1) * width
    # Decisions drawn but not yet decoded: less than one row, plus a block.
    pending = bytearray()
    src = 0
    lanes = 0
    state = spec.seed & _MASK64
    for start in range(0, draws, _BLOCK):
        k = min(_BLOCK, draws - start)
        if k != lanes:
            # The first block, and a short last one: cut the lanes first,
            # so a small graph never pays for 1,024 of them.
            lanes = k
            cut = (1 << 128 * k) - 1
            one, low, steps = (x & cut for x in _lanes())
            bound = (_MASK64 + limit) * one
        z = _mix((state * one + steps) & low, low)
        state = (state + _BLOCK * _GAMMA) & _MASK64
        pending += (bound - z).to_bytes(16 * k, "little")[8::16]
        whole = len(pending) // row * row
        if not whole:
            continue
        folded = 0
        for r, bit in enumerate(bits):
            folded |= int.from_bytes(pending[r:whole:width], "little") * bit
        del pending[:whole]
        # Byte i is the rights mask drawn for pair i of these rows.
        masks = folded.to_bytes(whole // width, "little")
        for at in range(0, len(masks), total - 1):
            drawn = masks[at : at + total - 1]
            hits = drawn.translate(None, b"\0")
            if hits:
                # No draw is made for src -> src: a zero there lines drawn up with ids.
                write(ids[src], compress(ids, drawn[:src] + b"\0" + drawn[src:]), hits)
            src += 1
    return g


def enumerate_t_arc_graphs(vertices: Sequence[tuple[str, VertexKind]]) -> Iterator[ProtectionGraph]:
    """Yield every graph over *vertices* whose arcs all carry exactly {t}.

    Each of the n*(n-1) ordered pairs independently has or lacks an arc;
    graphs come out in binary-counter order over the ascending pair
    list, so graph number k has an arc on pair j exactly when bit j of k
    is set.  The vertices are declared once, on the first ``next()``
    (so a bad name raises there), into a template each graph copies.
    """
    if len(vertices) > _ENUMERATION_CAP:
        raise TooLargeError(f"{len(vertices)} vertices exceed the {_ENUMERATION_CAP}-vertex cap")
    n = len(vertices)
    return _t_arc_graphs(list(vertices), 0, 1 << n * (n - 1))


def _t_arc_graphs(
    vertices: list[tuple[str, VertexKind]], start: int, stop: int
) -> Iterator[ProtectionGraph]:
    """Graphs number *start* to *stop* - 1 of ``enumerate_t_arc_graphs``,
    so a sweep can be split without building the graphs it skips."""
    n = len(vertices)
    template = ProtectionGraph()
    for name, kind in vertices:
        template.add_vertex(name, kind)
    # Pair bits come source by source, so source a's row is the n - 1
    # bits from a * (n - 1) on.  rows[a] holds a, that shift, and the
    # row's targets and masks for each value r its bits can read.  With
    # no vertices there are no rows, and the width must not go negative.
    width = max(n - 1, 0)
    full = (1 << width) - 1
    rows = []
    for a in range(n):
        others = [b for b in range(n) if b != a]
        rows.append((a, a * width, [
            ([b for j, b in enumerate(others) if r >> j & 1], bytes([_T]) * r.bit_count())
            for r in range(full + 1)
        ]))
    for code in range(start, stop):
        g = template._without_arcs()
        write = g._insert_row
        for a, shift, row in rows:
            dsts, masks = row[code >> shift & full]
            if dsts:
                write(a, dsts, masks)
        yield g


def _traversal_set(g: ProtectionGraph, s: VertexId, f: VertexId) -> set[VertexId]:
    """Vertices a bridge may touch: both endpoints plus every object."""
    return {v for v, sid in enumerate(g._subject_id) if sid is None or v == s or v == f}


def _reversed_out(g: ProtectionGraph) -> list[dict[VertexId, int]]:
    """A new arc store holding every take arc of *g* flipped, as ``_T``.

    Rights other than t are dropped, and so is an arc without t: a
    backward walk follows take arcs alone.  It reads only ``g._out``,
    never the t-lists.
    """
    out: list[dict[VertexId, int]] = [{} for _ in g._out]
    for src, adj in enumerate(g._out):
        for dst, mask in adj.items():
            if mask & _T:
                out[dst][src] = _T
    return out


def bridge_exists_faithful(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> SearchReport:
    """Same contract as ``bridge_exists``; literal re-scanning engine.

    Every pass walks every arc leaving every vertex reached at pass
    start and picks out the t-labelled ones whose far endpoint is still
    unreached.  It reads only the graph's rights masks, never the
    t-lists: a ``t<-*`` walk on *g* is a ``t->*`` walk on a store of its
    take arcs, each flipped and carrying ``t`` alone, built from the
    masks, so one loop serves both directions.  Vertices are scanned in
    ascending id order; one vertex's arcs are scanned in store order,
    since each of them claims through that vertex.  Worst case: vertex-count passes, each
    reviewing every arc of an almost fully reached graph.
    """
    check_query(g, s, f, direction)
    arcs = g._out if direction is Direction.FORWARD else _reversed_out(g)
    reached = {s}
    unreached = _traversal_set(g, s, f) - reached
    predecessor: dict[VertexId, VertexId] = {}
    trace: list[tuple[int, tuple[VertexId, ...]]] = []
    while True:
        added: list[VertexId] = []
        for v in sorted(reached):  # snapshot before the pass grows it
            for w, mask in arcs[v].items():
                if mask & _T and w in unreached:
                    unreached.discard(w)
                    reached.add(w)
                    predecessor[w] = v
                    added.append(w)
        added.sort()
        trace.append((len(trace) + 1, tuple(added)))
        if f in reached or not added:
            path = _path(predecessor, s, f, direction) if f in predecessor else None
            return SearchReport(path is not None, direction, path, len(trace), tuple(trace))


# perfbench's traced runs name each span by its function's module, and
# its fixed metric names file this engine under the bridges layer.  The
# cost: pickle cannot find the engine by name.
bridge_exists_faithful.__module__ = "takegrant.bridges"


def brute_force_bridge(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> BridgePath | None:
    """Exhaustive simple-path witness search over the traversal set.

    Depth-first iterative deepening (Korf, AI 27(1), 1985): shortest
    lengths first and ascending vertex ids within a length, so the
    returned witness is the shortest one and, among shortest, the
    smallest id sequence.  Each length walks one explicit stack of
    successor iterators, ``stack[i]`` walking those of ``path[i]``, so
    memory is O(path length) on the heap and no chain is too deep.

    Length 1 is one membership test.  Past it, one flood fill from *s*
    decides existence first: every walk to f contains a simple path to
    f, so if the fill never meets f there is no bridge, and a miss costs
    O(arcs) instead of every simple path from *s*.  Deepening runs only
    when a witness exists, and then ends at the first length that holds
    one, at most ``len(traversal) - 1``.  The walk never meets f short
    of the length it tries: a shorter simple path to f would have ended
    the search at its own length.

    A vertex's successors are looked up on its first visit and kept for
    the rest of the query, so the graph is asked at most once per
    traversal-set vertex; the fill and the walk share them.  The memo
    fills lazily: a hit at length 1 asks only about *s*.
    """
    check_query(g, s, f, direction)
    traversal = _traversal_set(g, s, f)
    neighbors = g.t_successors if direction is Direction.FORWARD else g.t_predecessors
    memo: dict[VertexId, list[VertexId]] = {}

    def successors(v: VertexId) -> list[VertexId]:
        ws = memo.get(v)
        if ws is None:
            ws = memo[v] = [w for w in neighbors(v) if w in traversal]
        return ws

    if f in successors(s):
        return BridgePath((s, f), direction)
    seen = {s}
    todo = [s]
    while f not in seen:
        if not todo:
            return None
        for w in successors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    for length in count(2):
        path = [s]
        on_path = {s}
        stack = [iter(successors(s))]
        while stack:
            for w in stack[-1]:
                if w in on_path:
                    continue
                if len(path) == length:
                    if w == f:
                        return BridgePath((*path, w), direction)
                else:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(successors(w)))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
