"""Islands: maximal tg-connected groups of subject vertices.

Two subjects sit in the same island when a chain of subject-to-subject
arcs carrying take or grant links them; arc direction is irrelevant for
membership.  Objects never join islands -- paths through objects are the
business of bridge search, not of island membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASubjectError
from .graph import ProtectionGraph, VertexId, VertexKind


@dataclass(frozen=True)
class Island:
    """One partition class; members are ascending subject ids."""

    index: int
    members: tuple[VertexId, ...]


class _UnionFind:
    def __init__(self, items: list[VertexId]) -> None:
        self._parent = {v: v for v in items}

    def find(self, v: VertexId) -> VertexId:
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:  # path compression
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, a: VertexId, b: VertexId) -> None:
        self._parent[self.find(a)] = self.find(b)


def _subject_union_find(g: ProtectionGraph) -> _UnionFind:
    uf = _UnionFind(g.subjects())
    for u, w in g._subject_tg_links():
        uf.union(u, w)
    return uf


def compute_islands(g: ProtectionGraph) -> list[Island]:
    """Partition the subject vertices of *g* into islands.

    Subjects u and v are merged whenever some arc u -> v or v -> u
    carries take or grant.  Islands come back sorted by their smallest
    member id, and that sort position is the island's index.
    """
    uf = _subject_union_find(g)
    groups: dict[VertexId, list[VertexId]] = {}
    for v in g.subjects():
        groups.setdefault(uf.find(v), []).append(v)
    ordered = sorted(groups.values(), key=lambda members: members[0])
    return [Island(index=i, members=tuple(members)) for i, members in enumerate(ordered)]


def same_island(g: ProtectionGraph, u: VertexId, v: VertexId) -> bool:
    """True iff subjects u and v land in the same island of *g*."""
    for vertex in (u, v):
        if g.vertex_kind(vertex) is not VertexKind.SUBJECT:
            raise NotASubjectError(
                f"vertex {g.vertex_name(vertex)!r} is an object; islands contain only subjects"
            )
    uf = _subject_union_find(g)
    return uf.find(u) == uf.find(v)
