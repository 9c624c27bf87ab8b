"""Shared test utilities: compact graph builders, the independent
island oracle, and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from takegrant import ProtectionGraph, Right, VertexId, VertexKind

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


def copy_without_arc(g: ProtectionGraph, skip: tuple[VertexId, VertexId]) -> ProtectionGraph:
    """Clone *g* minus the one arc (src, dst) named by *skip*."""
    clone = ProtectionGraph()
    for v in range(g.vertex_count):
        clone.add_vertex(g.vertex_name(v), g.vertex_kind(v))
    for edge in g.edges():
        if (edge.src, edge.dst) != skip:
            clone.add_edge(edge.src, edge.dst, edge.rights)
    return clone


def t_only_projection(g: ProtectionGraph) -> ProtectionGraph:
    """Clone of *g* keeping only the t component of every arc."""
    clone = ProtectionGraph()
    for v in range(g.vertex_count):
        clone.add_vertex(g.vertex_name(v), g.vertex_kind(v))
    for edge in g.edges():
        if Right.T in edge.rights:
            clone.add_edge(edge.src, edge.dst, {Right.T})
    return clone


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
