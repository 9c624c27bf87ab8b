from __future__ import annotations

import os
import sys
import threading

import pytest
from hypothesis import given

from takegrant import (
    NotASubjectError,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    VertexKind,
    compute_islands,
    parse_graph,
    random_graph,
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


class TestStoredForest:
    """Islands are computed once per graph state: the first query after a
    write builds the union-find forest, later ones reuse it, and every
    writer drops it."""

    @staticmethod
    def _two_islands():
        # a-b and c-d are islands; o is an object between them.
        return make_graph(
            [("a", "s"), ("b", "s"), ("c", "s"), ("d", "s"), ("o", "o")],
            [("a", "b", "t"), ("d", "c", "g"), ("b", "o", "tg")],
        )

    @pytest.mark.parametrize("writer", ["add_edge", "_insert_row"])
    @pytest.mark.parametrize("letters, joined", [("g", True), ("r", False)], ids=["g-only", "r-only"])
    def test_write_after_query_is_seen(self, writer, letters, joined):
        g = self._two_islands()
        assert not same_island(g, 1, 2)  # fills the forest
        if writer == "add_edge":
            g.add_edge(1, 2, [Right(ch) for ch in letters])
        else:
            g._insert_row(1, [2], bytes([{"g": 2, "r": 4}[letters]]))
        assert same_island(g, 1, 2) is joined
        assert same_island(g, 0, 3) is joined
        assert len(compute_islands(g)) == (1 if joined else 2)

    @pytest.mark.parametrize("writer", ["add_edge", "_insert_row"])
    def test_grant_gained_by_a_read_arc_after_query_is_seen(self, writer):
        # The arc count stays the same; only the mask on the pair grows.
        g = self._two_islands()
        g.add_edge(1, 2, {Right.R})
        assert not same_island(g, 0, 3)
        if writer == "add_edge":
            g.add_edge(1, 2, {Right.G})
        else:
            g._insert_row(1, [2], bytes([2]))
        assert same_island(g, 0, 3)

    def test_vertex_added_after_query_is_its_own_island(self):
        g = self._two_islands()
        assert [i.members for i in compute_islands(g)] == [(0, 1), (2, 3)]
        e = g.add_vertex("e", VertexKind.SUBJECT)
        assert [i.members for i in compute_islands(g)] == [(0, 1), (2, 3), (e,)]
        assert same_island(g, e, e)
        assert not same_island(g, 0, e)

    def test_returned_list_is_the_callers_own(self):
        g = self._two_islands()
        first = compute_islands(g)
        expected = list(first)
        first.clear()
        assert compute_islands(g) == expected
        assert compute_islands(g) is not compute_islands(g)

    def test_unchanged_graph_is_scanned_once(self):
        # A clock-free count of full scans: each forest build iterates the
        # arc store once; a query that reuses the forest never does.
        class CountingRows(list):
            scans = 0

            def __iter__(self):
                CountingRows.scans += 1
                return super().__iter__()

        g = self._two_islands()
        g._out = CountingRows(g._out)
        assert not same_island(g, 0, 2)
        assert CountingRows.scans == 1
        assert not same_island(g, 0, 2)
        assert same_island(g, 2, 3)
        assert [i.members for i in compute_islands(g)] == [(0, 1), (2, 3)]
        assert CountingRows.scans == 1
        g.add_edge(0, 3, {Right.G})
        assert same_island(g, 0, 2)
        assert CountingRows.scans == 2
        assert same_island(g, 1, 3)
        assert CountingRows.scans == 2

    def test_threads_share_one_forest(self):
        # A freshly built graph, queried from more threads than cores at
        # once: they race to build and store the forest and halve paths
        # in the same list, and each must still answer as the closure
        # oracle does.  The g chain over the first 60 subjects makes a
        # tree 60 deep for the halving to shorten.
        g = random_graph(RandomGraphSpec(150, 10, 0.004, frozenset({Right.G, Right.R}), 74_002))
        for v in range(59):
            g.add_edge(v, v + 1, {Right.G})
        island_of = {v: members for members in naive_island_partition(g) for v in members}
        queries = [(u, v) for u in range(0, 150, 7) for v in range(149, -1, -5)]
        expected = [island_of[u] == island_of[v] for u, v in queries]
        assert g._island_forest is None
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        count = 2 * cores + 1
        start = threading.Barrier(count)
        wrong: list[object] = []
        finished = []

        def worker(k):
            try:
                start.wait(timeout=30)
                # Each thread walks the queries from its own offset.
                for i in range(len(queries)):
                    j = (i + 7 * k) % len(queries)
                    if same_island(g, *queries[j]) != expected[j]:
                        wrong.append(queries[j])
                finished.append(k)
            except Exception as exc:  # reported by the assertions below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sorted(finished) == list(range(count))
        assert [i.members for i in compute_islands(g)] == naive_island_partition(g)
