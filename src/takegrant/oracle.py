"""Ground truth and corpus generation for exercising the search engines.

``brute_force_bridge`` answers bridge queries by recursive enumeration
of simple paths, shortest first, stopping at the first length that no
simple path reaches -- a deliberately different strategy from the
worklist engines, so a bug in one is unlikely to hide in the other.
``enumerate_t_arc_graphs`` walks every t-arc pattern over a small fixed
vertex set, and ``random_graph`` draws reproducible graphs from a
seeded SplitMix64 stream.

Both hand their arcs to the graph as rights masks, skipping
``add_edge``'s checks on ids and rights they made themselves.
``random_graph`` runs SplitMix64 on up to 1,024 draws at once, one per
128-bit lane of a Python int, and reads each draw's decision, exactly
the one ``next_unit() < p`` would make, from one bit of its lane.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

from ._value import Value, set_slot
from .bridges import BridgePath, Direction, check_query, traversal_set
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
        set_slot(self, "n_subjects", n_subjects)
        set_slot(self, "n_objects", n_objects)
        set_slot(self, "arc_probability", arc_probability)
        set_slot(self, "rights_pool", rights_pool)
        set_slot(self, "seed", seed)


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
    Only the hits are visited, and a pair's rights go in as one mask.
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
    one, low, steps = _lanes()
    # One int object per vertex id, shared by every arc that names it.
    ids = list(range(total))
    insert = g._insert
    bound = (_MASK64 + limit) * one
    state = spec.seed & _MASK64
    pair = -1
    mask = 0
    for start in range(0, draws, _BLOCK):
        k = min(_BLOCK, draws - start)
        if k < _BLOCK:
            cut = (1 << 128 * k) - 1
            one, low, steps, bound = one & cut, low & cut, steps & cut, bound & cut
        z = _mix((state * one + steps) & low, low)
        state = (state + _BLOCK * _GAMMA) & _MASK64
        hits = (bound - z).to_bytes(16 * k, "little")[8::16]
        j = hits.find(1)
        while j >= 0:
            at, r = divmod(start + j, width)
            if at != pair:
                if mask:
                    src, d = divmod(pair, total - 1)
                    insert(ids[src], ids[d + (d >= src)], mask)
                pair = at
                mask = 0
            mask |= bits[r]
            j = hits.find(1, j + 1)
    if mask:
        src, d = divmod(pair, total - 1)
        insert(ids[src], ids[d + (d >= src)], mask)
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
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    template = ProtectionGraph()
    for name, kind in vertices:
        template.add_vertex(name, kind)
    for code in range(start, stop):
        g = template._without_arcs()
        for bit, (a, b) in enumerate(pairs):
            if code >> bit & 1:
                g._insert(a, b, _T)
        yield g


def brute_force_bridge(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> BridgePath | None:
    """Exhaustive simple-path witness search over the traversal set.

    Recursive depth-first enumeration, shortest lengths first and
    ascending vertex ids within a length, so the returned witness is the
    shortest one and, among shortest, the smallest id sequence.  Returns
    None once a length L finds no witness and no simple path from *s*
    reaches L arcs at all: a witness of L+1 arcs would need one, its
    first L arcs.  Past ``len(traversal) - 1`` arcs nothing is simple.

    A vertex's successors are looked up on its first visit and kept for
    the rest of the query, so the graph is asked at most once per
    traversal-set vertex.  The memo fills lazily: most queries visit
    only part of the traversal set.
    """
    check_query(g, s, f, direction)
    traversal = traversal_set(g, s, f)
    neighbors = (
        g.out_neighbors_with_right
        if direction is Direction.FORWARD
        else g.in_neighbors_with_right
    )
    memo: dict[VertexId, list[VertexId]] = {}
    # Whether the current length's enumeration reached its full depth.
    deep = False

    def successors(v: VertexId) -> list[VertexId]:
        ws = memo.get(v)
        if ws is None:
            ws = memo[v] = [w for w in neighbors(v, Right.T) if w in traversal]
        return ws

    def extend(path: list[VertexId], on_path: set[VertexId], remaining: int) -> list[VertexId] | None:
        nonlocal deep
        v = path[-1]
        if remaining == 0:
            deep = True
            return list(path) if v == f else None
        if v == f:  # f can only be the final vertex of a simple witness
            return None
        for w in successors(v):
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            hit = extend(path, on_path, remaining - 1)
            if hit is not None:
                return hit
            path.pop()
            on_path.discard(w)
        return None

    for length in range(1, len(traversal)):
        deep = False
        hit = extend([s], {s}, length)
        if hit is not None:
            return BridgePath(tuple(hit), direction)
        if not deep:
            return None
    return None
