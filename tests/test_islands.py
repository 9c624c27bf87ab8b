from __future__ import annotations

import pytest
from hypothesis import given

from takegrant import (
    NotASubjectError,
    ProtectionGraph,
    Right,
    VertexKind,
    compute_islands,
    parse_graph,
    same_island,
)

from helpers import (
    LENGTH2_BRIDGE_TGG,
    flipped,
    graphs,
    make_graph,
    naive_island_partition,
    t_only_projection,
)


def test_grant_arc_joins_two_subjects():
    g = make_graph([("a", "s"), ("b", "s")], [("a", "b", "g")])
    islands = compute_islands(g)
    assert [i.members for i in islands] == [(0, 1)]


def test_objects_never_mediate_membership():
    g = make_graph(
        [("a", "s"), ("b", "s"), ("o", "o")],
        [("a", "o", "t"), ("o", "b", "t")],
    )
    assert [i.members for i in compute_islands(g)] == [(0,), (1,)]


def test_six_subject_partition_matches_closure_oracle():
    # a-b and c-b are tg arcs; d-e carries only r, so it does not connect.
    g = make_graph(
        [("a", "s"), ("b", "s"), ("c", "s"), ("d", "s"), ("e", "s"), ("f", "s")],
        [("a", "b", "t"), ("c", "b", "g"), ("d", "e", "r")],
    )
    expected = [(0, 1, 2), (3,), (4,), (5,)]
    assert naive_island_partition(g) == expected
    assert [i.members for i in compute_islands(g)] == expected


def test_indices_follow_smallest_member():
    g = make_graph(
        [("a", "s"), ("b", "s"), ("c", "s")],
        [("b", "c", "t")],
    )
    islands = compute_islands(g)
    assert [(i.index, i.members) for i in islands] == [(0, (0,)), (1, (1, 2))]


def test_same_island_reflexive():
    g = make_graph([("a", "s")])
    assert same_island(g, 0, 0)


def test_unconnected_subjects_differ():
    g = make_graph([("a", "s"), ("b", "s")])
    assert not same_island(g, 0, 1)


def test_figure_endpoints_are_separate_islands():
    g = parse_graph(LENGTH2_BRIDGE_TGG)
    assert not same_island(g, g.vertex_id("s"), g.vertex_id("f"))


def test_same_island_rejects_objects():
    g = make_graph([("a", "s"), ("o", "o")])
    with pytest.raises(NotASubjectError):
        same_island(g, 0, 1)


@given(graphs())
def test_partition_covers_subjects_disjointly(g):
    islands = compute_islands(g)
    seen = [v for island in islands for v in island.members]
    assert sorted(seen) == g.subjects()
    assert len(seen) == len(set(seen))
    for island in islands:
        assert list(island.members) == sorted(island.members)


@given(graphs())
def test_matches_naive_closure(g):
    assert [i.members for i in compute_islands(g)] == naive_island_partition(g)


@given(graphs())
def test_symmetry(g):
    subjects = g.subjects()
    for u in subjects:
        for v in subjects:
            assert same_island(g, u, v) == same_island(g, v, u)


@given(graphs())
def test_direction_blind(g):
    assert [i.members for i in compute_islands(g)] == [
        i.members for i in compute_islands(flipped(g))
    ]


@given(graphs())
def test_rw_arcs_never_matter(g):
    # Dropping every non-t component leaves r/w-only arcs out entirely;
    # the partition may only depend on t and g labels.
    stripped = make_graph([])
    for v in range(g.vertex_count):
        stripped.add_vertex(g.vertex_name(v), g.vertex_kind(v))
    for edge in g.edges():
        tg = edge.rights & {Right.T, Right.G}
        if tg:
            stripped.add_edge(edge.src, edge.dst, tg)
    assert [i.members for i in compute_islands(g)] == [
        i.members for i in compute_islands(stripped)
    ]


def test_t_only_projection_helper_keeps_t_partition():
    g = make_graph(
        [("a", "s"), ("b", "s")],
        [("a", "b", "tr"), ("b", "a", "w")],
    )
    proj = t_only_projection(g)
    assert [i.members for i in compute_islands(proj)] == [(0, 1)]


@given(graphs(max_subjects=6, max_objects=3))
def test_same_island_agrees_with_partition(g):
    island_of = {v: island.index for island in compute_islands(g) for v in island.members}
    subjects = g.subjects()
    for u in subjects:
        for v in subjects:
            assert same_island(g, u, v) == (island_of[u] == island_of[v])


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_long_grant_chain_is_one_island(backward):
    # Deep enough that a recursive root lookup would overflow the stack.
    n = 20_000
    g = ProtectionGraph()
    for i in range(n):
        g.add_vertex(f"s{i}", VertexKind.SUBJECT)
    for i in range(n - 1):
        src, dst = (i + 1, i) if backward else (i, i + 1)
        g.add_edge(src, dst, {Right.G})
    assert [(i.index, i.members) for i in compute_islands(g)] == [(0, tuple(range(n)))]
    assert same_island(g, 0, n - 1)
