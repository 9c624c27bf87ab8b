"""Ground truth and corpus generation for exercising the search engines.

``brute_force_bridge`` answers bridge queries by recursive enumeration
of simple paths -- a deliberately different strategy from the worklist
engines, so a bug in one is unlikely to hide in the other.
``enumerate_t_arc_graphs`` walks every t-arc pattern over a small fixed
vertex set, and ``random_graph`` draws reproducible graphs from a
seeded SplitMix64 stream.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._value import Value, set_slot
from .bridges import BridgePath, Direction, check_query, traversal_set
from .errors import EmptySpecError, TooLargeError
from .graph import RIGHT_ORDER, ProtectionGraph, Right, VertexId, VertexKind

_MASK64 = (1 << 64) - 1

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
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform float in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def random_graph(spec: RandomGraphSpec) -> ProtectionGraph:
    """Draw the graph *spec* determines.

    Vertices are subjects ``s0..`` then objects ``o0..``.  One SplitMix64
    stream seeded with ``spec.seed`` is consumed in a fixed order: for
    every ordered pair (src, dst), src != dst, both ascending, and for
    every pooled right in t, g, r, w order, a single draw decides
    whether that arc carries that right (``draw < arc_probability``).
    """
    if spec.n_subjects < 0 or spec.n_objects < 0:
        raise ValueError("vertex counts must be non-negative")
    if not 0.0 <= spec.arc_probability <= 1.0:
        raise ValueError(f"arc_probability must be in [0, 1], got {spec.arc_probability}")
    total = spec.n_subjects + spec.n_objects
    if total == 0:
        raise EmptySpecError("graph spec declares zero vertices")
    g = ProtectionGraph()
    for i in range(spec.n_subjects):
        g.add_vertex(f"s{i}", VertexKind.SUBJECT)
    for i in range(spec.n_objects):
        g.add_vertex(f"o{i}", VertexKind.OBJECT)
    pool = [r for r in RIGHT_ORDER if r in spec.rights_pool]
    rng = SplitMix64(spec.seed)
    p = spec.arc_probability
    for src in range(total):
        for dst in range(total):
            if src == dst:
                continue
            rights = [r for r in pool if rng.next_unit() < p]
            if rights:
                g.add_edge(src, dst, rights)
    return g


def enumerate_t_arc_graphs(
    vertices: Sequence[tuple[str, VertexKind]],
    max_vertices: int = _ENUMERATION_CAP,
) -> Iterator[ProtectionGraph]:
    """Yield every graph over *vertices* whose arcs all carry exactly {t}.

    Each of the n*(n-1) ordered pairs independently has or lacks an arc;
    graphs come out in binary-counter order over the ascending pair
    list, so graph number k has an arc on pair j exactly when bit j of k
    is set.
    """
    if max_vertices > _ENUMERATION_CAP:
        raise TooLargeError(
            f"enumeration is capped at {_ENUMERATION_CAP} vertices, asked for {max_vertices}"
        )
    if len(vertices) > max_vertices:
        raise TooLargeError(
            f"{len(vertices)} vertices exceed the {max_vertices}-vertex cap"
        )
    fixed = list(vertices)
    n = len(fixed)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]

    def generate() -> Iterator[ProtectionGraph]:
        for code in range(1 << len(pairs)):
            g = ProtectionGraph()
            for name, kind in fixed:
                g.add_vertex(name, kind)
            for bit, (a, b) in enumerate(pairs):
                if code >> bit & 1:
                    g.add_edge(a, b, {Right.T})
            yield g

    return generate()


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
    None only after every simple path length has been exhausted.
    """
    check_query(g, s, f)
    traversal = traversal_set(g, s, f)
    neighbors = (
        g.out_neighbors_with_right
        if direction is Direction.FORWARD
        else g.in_neighbors_with_right
    )

    def successors(v: VertexId) -> list[VertexId]:
        return [w for w in neighbors(v, Right.T) if w in traversal]

    def extend(path: list[VertexId], on_path: set[VertexId], remaining: int) -> list[VertexId] | None:
        v = path[-1]
        if remaining == 0:
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
        hit = extend([s], {s}, length)
        if hit is not None:
            return BridgePath(tuple(hit), direction)
    return None
