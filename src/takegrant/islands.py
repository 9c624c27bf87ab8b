"""Islands: maximal tg-connected groups of subject vertices.

Two subjects sit in the same island when a chain of subject-to-subject
arcs carrying take or grant links them; arc direction is irrelevant for
membership.  Objects never join islands -- paths through objects are the
business of bridge search, not of island membership.

The partition is computed once per graph state: the first islands query
after a write builds a union-find forest over every vertex and subject
arc, O(V + E), and keeps it on the graph until the next write drops it.
Every later ``same_island`` is two root walks on that forest.
"""

from __future__ import annotations

from ._value import Value
from .errors import NotASubjectError
from .graph import _SUBJECT, _TG, ProtectionGraph, VertexId


class Island(Value):
    """One partition class; members are ascending subject ids."""

    __slots__ = ("index", "members")
    index: int
    members: tuple[VertexId, ...]


def _root(parent: list[VertexId], v: VertexId) -> VertexId:
    """The root of v's tree in *parent*, halving the path on the way."""
    while parent[v] != v:
        # Path halving (Tarjan & van Leeuwen 1984): v skips to its grandparent.
        # On a graph's stored forest each such write points a vertex at one
        # of its own ancestors, so no root ever changes and readers in other
        # threads halving the same list still find the right roots.
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _forest(g: ProtectionGraph) -> list[VertexId]:
    """Union-find parents, indexed by vertex id, for the islands of *g*.

    Two subjects share a root exactly when they share an island; every
    object is its own root.  Built on the first call after a write and
    kept in ``g._island_forest``, which every graph writer drops.
    """
    parent = g._island_forest
    if parent is None:
        subject_id = g._subject_id
        parent = list(range(len(subject_id)))
        for u, adj in enumerate(g._out):
            if subject_id[u] is not None:
                for w, mask in adj.items():
                    if mask & _TG and subject_id[w] is not None:
                        parent[_root(parent, u)] = _root(parent, w)
        g._island_forest = parent
    return parent


def compute_islands(g: ProtectionGraph) -> list[Island]:
    """Partition the subject vertices of *g* into islands.

    Subjects u and v are merged whenever some arc u -> v or v -> u
    carries take or grant.  Islands come back sorted by their smallest
    member id, and that sort position is the island's index.
    """
    parent = _forest(g)
    # Subjects come ascending, so each group is created at its smallest
    # member and the dict already holds the groups in island order.
    groups: dict[VertexId, list[VertexId]] = {}
    for v in g.subjects():
        groups.setdefault(_root(parent, v), []).append(v)
    return [Island(index=i, members=tuple(members)) for i, members in enumerate(groups.values())]


def same_island(g: ProtectionGraph, u: VertexId, v: VertexId) -> bool:
    """True iff subjects u and v land in the same island of *g*."""
    for vertex in (u, v):
        if g.vertex_kind(vertex) is not _SUBJECT:
            raise NotASubjectError(
                f"vertex {g.vertex_name(vertex)!r} is an object; islands contain only subjects"
            )
    parent = _forest(g)
    return _root(parent, u) == _root(parent, v)
