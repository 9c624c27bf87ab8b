"""Shared test utilities: compact graph builders, the independent
island oracle, the scalar SplitMix64 generator, and hypothesis
strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from takegrant import Direction, ProtectionGraph, Right, SearchReport, VertexId, VertexKind
from takegrant.bridges import _path, _search

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator, one draw per call.

    The 64-bit mixer from Steele, Lea and Flood's splittable PRNG (the
    stream ``java.util.SplittableRandom`` produces).  ``random_graph``
    runs the same stream 1,024 lanes at a time inside one Python int;
    this scalar form, written apart from that code, is what the tests
    hold its lanes to.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform float in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


# The canonical length-2 bridge: two one-subject islands joined through
# one object, used all over the suite.
LENGTH2_BRIDGE_TGG = (
    "tgg 1\n"
    "subject s\n"
    "object x\n"
    "subject f\n"
    "edge s x t\n"
    "edge x f t\n"
)


def make_graph(vertices, edges=()):
    """Build a graph from ("name", "s"|"o") pairs and (src, dst, "tg") triples."""
    g = ProtectionGraph()
    for name, kind in vertices:
        g.add_vertex(name, VertexKind.SUBJECT if kind == "s" else VertexKind.OBJECT)
    for src, dst, letters in edges:
        g.add_edge(g.vertex_id(src), g.vertex_id(dst), {Right(ch) for ch in letters})
    return g


def chain_graph(length: int):
    """The canonical chain bridge of *length* arcs: s, length-1 objects, f.

    Returns (graph, s, f, arcs) where arcs lists the (src, dst) id pairs
    in chain order so tests can knock single arcs out.
    """
    g = ProtectionGraph()
    s = g.add_vertex("s", VertexKind.SUBJECT)
    interior = [g.add_vertex(f"x{i}", VertexKind.OBJECT) for i in range(1, length)]
    f = g.add_vertex("f", VertexKind.SUBJECT)
    order = [s, *interior, f]
    arcs = list(zip(order, order[1:]))
    for src, dst in arcs:
        g.add_edge(src, dst, {Right.T})
    return g, s, f, arcs


def list_loop_report(g: ProtectionGraph, s: VertexId, f: VertexId, direction: Direction) -> SearchReport:
    """The report ``bridge_exists`` gives when it runs the list loop,
    whatever pass kind it would pick for *g*."""
    pred, trace = _search(g, s, (f,), direction, None)
    path = _path(pred, s, f, direction) if pred is not None and pred[f] is not None else None
    return SearchReport(path is not None, direction, path, len(trace), tuple(trace))


def _traversal_set(g: ProtectionGraph, s: VertexId, f: VertexId) -> set[VertexId]:
    """The traversal set ``{s, f} | objects``: the vertices a bridge from
    *s* to *f* may touch.  Neither reference engine builds it; the tests
    state it here, to bound pass counts and the oracle's lookups."""
    return {s, f, *g.objects()}


def _vertices_of(g: ProtectionGraph) -> ProtectionGraph:
    """A new graph declaring *g*'s vertices, in id order, with no arcs."""
    clone = ProtectionGraph()
    for v in range(g.vertex_count):
        clone.add_vertex(g.vertex_name(v), g.vertex_kind(v))
    return clone


def copy_without_arc(g: ProtectionGraph, skip: tuple[VertexId, VertexId]) -> ProtectionGraph:
    """Clone *g* minus the one arc (src, dst) named by *skip*."""
    clone = _vertices_of(g)
    for edge in g.edges():
        if (edge.src, edge.dst) != skip:
            clone.add_edge(edge.src, edge.dst, edge.rights)
    return clone


def flipped(g: ProtectionGraph) -> ProtectionGraph:
    """The same vertices as *g*, with every arc reversed through ``add_edge``."""
    rev = _vertices_of(g)
    for edge in g.edges():
        rev.add_edge(edge.dst, edge.src, edge.rights)
    return rev


def t_only_projection(g: ProtectionGraph) -> ProtectionGraph:
    """Clone of *g* keeping only the t component of every arc."""
    clone = _vertices_of(g)
    for edge in g.edges():
        if Right.T in edge.rights:
            clone.add_edge(edge.src, edge.dst, {Right.T})
    return clone


def smallest_shortest_witnesses(
    g: ProtectionGraph, s: VertexId, f: VertexId
) -> dict[Direction, tuple[VertexId, ...] | None]:
    """The witnesses ``brute_force_bridge`` must return, found another way.

    For each direction: breadth-first distances to *f* over the
    traversal set (both endpoints and every object), read off
    ``edges()``, then a greedy walk from *s* that always steps to the
    smallest successor one step nearer *f*.  That is the smallest id
    sequence among the shortest take paths; None when there is none.
    """
    allowed = set(g.objects()) | {s, f}
    succ: dict[VertexId, list[VertexId]] = {v: [] for v in allowed}
    pred: dict[VertexId, list[VertexId]] = {v: [] for v in allowed}
    for edge in g.edges():
        if edge.src in allowed and edge.dst in allowed and Right.T in edge.rights:
            succ[edge.src].append(edge.dst)
            pred[edge.dst].append(edge.src)
    # A backward walk steps along the predecessors.
    return {
        Direction.FORWARD: _greedy_shortest(succ, pred, s, f),
        Direction.BACKWARD: _greedy_shortest(pred, succ, s, f),
    }


def _greedy_shortest(succ, pred, s, f):
    """The smallest shortest s ~> f path over *succ*, or None; *pred* is
    *succ* with every arc reversed."""
    dist = {f: 0}
    layer = [f]
    while layer:
        nearer = layer
        layer = []
        for v in nearer:
            for u in pred[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    layer.append(u)
    if s not in dist:
        return None
    path = [s]
    while path[-1] != f:
        v = path[-1]
        path.append(min(w for w in succ[v] if dist.get(w) == dist[v] - 1))
    return tuple(path)


def naive_island_partition(g: ProtectionGraph) -> list[tuple[VertexId, ...]]:
    """Island oracle: matrix closure of the symmetric tg relation.

    Builds the reflexive-symmetric relation "subjects joined by an arc
    carrying t or g" and closes it transitively the O(n^3) way, then
    reads the equivalence classes off the closed matrix.  Deliberately
    not union-find.
    """
    subjects = g.subjects()
    pos = {v: i for i, v in enumerate(subjects)}
    n = len(subjects)
    conn = [[i == j for j in range(n)] for i in range(n)]
    for edge in g.edges():
        if (
            edge.src in pos
            and edge.dst in pos
            and (Right.T in edge.rights or Right.G in edge.rights)
        ):
            conn[pos[edge.src]][pos[edge.dst]] = True
            conn[pos[edge.dst]][pos[edge.src]] = True
    for k in range(n):
        for i in range(n):
            if conn[i][k]:
                row_k = conn[k]
                row_i = conn[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    classes = {
        tuple(subjects[j] for j in range(n) if conn[i][j]) for i in range(n)
    }
    return sorted(classes)


@st.composite
def graphs(draw, max_subjects=3, max_objects=4, rights=tuple(Right), max_edges=18):
    """Random small protection graphs with mixed rights."""
    n_subjects = draw(st.integers(0, max_subjects))
    n_objects = draw(st.integers(0, max_objects))
    g = ProtectionGraph()
    for i in range(n_subjects):
        g.add_vertex(f"s{i}", VertexKind.SUBJECT)
    for i in range(n_objects):
        g.add_vertex(f"o{i}", VertexKind.OBJECT)
    n = n_subjects + n_objects
    if n:
        ids = st.integers(0, n - 1)
        rights_sets = st.frozensets(st.sampled_from(rights), min_size=1, max_size=len(rights))
        for src, dst, rs in draw(st.lists(st.tuples(ids, ids, rights_sets), max_size=max_edges)):
            g.add_edge(src, dst, rs)
    return g


@st.composite
def graphs_with_endpoints(draw, max_objects=5, rights=(Right.T,), max_edges=20):
    """A graph plus a distinct (s, f) pair; both endpoints are subjects."""
    n_objects = draw(st.integers(0, max_objects))
    g = ProtectionGraph()
    s = g.add_vertex("s", VertexKind.SUBJECT)
    f = g.add_vertex("f", VertexKind.SUBJECT)
    for i in range(n_objects):
        g.add_vertex(f"o{i}", VertexKind.OBJECT)
    ids = st.integers(0, g.vertex_count - 1)
    rights_sets = st.frozensets(st.sampled_from(rights), min_size=1, max_size=len(rights))
    for src, dst, rs in draw(st.lists(st.tuples(ids, ids, rights_sets), max_size=max_edges)):
        g.add_edge(src, dst, rs)
    return g, s, f


@st.composite
def graphs_with_any_endpoints(draw):
    """A t-only graph plus a distinct (s, f) pair of any kinds."""
    g = draw(graphs(rights=(Right.T,)).filter(lambda g: g.vertex_count >= 2))
    s = draw(st.integers(0, g.vertex_count - 1))
    f = draw(st.integers(0, g.vertex_count - 1).filter(lambda v: v != s))
    return g, s, f


NAMES = st.from_regex(r"[A-Za-z0-9_.-]{1,4}", fullmatch=True)


@st.composite
def tgg_documents(draw, names=NAMES, max_vertices=6, max_edges=14):
    """Valid TGG text plus the statements it declares.

    Returns ``(text, vertices, edges)``: *vertices* lists ``(name, kind)``
    in declaration order and *edges* ``(src, dst, rights_word)`` in
    statement order.  Rights words may repeat letters.  Blank and comment
    lines are mixed in, tokens are separated by runs of spaces or tabs,
    and the line ending is LF or CRLF throughout.
    """
    declared = draw(st.lists(names, unique=True, max_size=max_vertices))
    vertices = [(name, draw(st.sampled_from(VertexKind))) for name in declared]
    edges = []
    if declared:
        ends = st.sampled_from(declared)
        words = st.text("tgrw", min_size=1, max_size=5)
        edges = draw(st.lists(st.tuples(ends, ends, words), max_size=max_edges))
    statements = [f"{kind.value} {name}" for name, kind in vertices]
    statements += [f"edge {src} {dst} {word}" for src, dst, word in edges]
    filler = st.sampled_from(["", "#", "# note", "#edge a b t", "  # indented", " \t "])
    blank = st.sampled_from([" ", "  ", "\t", " \t"])
    lines = ["tgg 1"]
    for statement in statements:
        lines += draw(st.lists(filler, max_size=2))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + statement.replace(" ", draw(blank)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text, vertices, edges
