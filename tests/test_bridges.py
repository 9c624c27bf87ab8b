from __future__ import annotations

import multiprocessing
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings

from takegrant import (
    BridgePath,
    Direction,
    InvariantViolationError,
    Island,
    NotASubjectError,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    SameIslandError,
    SameVertexError,
    UnknownVertexError,
    VertexKind,
    bridge_exists,
    bridge_exists_faithful,
    bridges_between_islands,
    brute_force_bridge,
    compute_islands,
    find_bridge_path,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_path,
)
from takegrant.graph import _T
from takegrant.oracle import _t_arc_graphs

from helpers import (
    LENGTH2_BRIDGE_TGG,
    _traversal_set,
    chain_graph,
    copy_without_arc,
    flipped,
    graphs_with_any_endpoints,
    graphs_with_endpoints,
    list_loop_report,
    make_graph,
    t_only_projection,
)

BOTH = (Direction.FORWARD, Direction.BACKWARD)


def figure_graph():
    return parse_graph(LENGTH2_BRIDGE_TGG)


class TestLength2Walkthrough:
    def test_forward_report(self):
        g = figure_graph()
        report = bridge_exists(g, 0, 2)
        assert report.exists
        assert report.passes == 2
        assert report.frontier_trace == ((1, (1,)), (2, (2,)))
        assert report.path.vertices == (0, 1, 2)
        assert report.path.length == 2

    def test_backward_absent(self):
        assert not bridge_exists(figure_graph(), 0, 2, Direction.BACKWARD).exists

    def test_mirrored_arcs_found_backward(self):
        g = make_graph(
            [("s", "s"), ("x", "o"), ("f", "s")],
            [("x", "s", "t"), ("f", "x", "t")],
        )
        report = bridge_exists(g, 0, 2, Direction.BACKWARD)
        assert report.exists
        assert report.passes == 2
        assert report.path.vertices == (0, 1, 2)
        validate_path(g, report.path)


class TestTermination:
    def test_edgeless_stops_after_one_empty_pass(self):
        g = make_graph([("s", "s"), ("f", "s")])
        report = bridge_exists(g, 0, 1)
        assert not report.exists
        assert report.passes == 1
        assert report.frontier_trace == ((1, ()),)
        assert report.path is None

    def test_unreachable_f_counts_final_empty_pass(self):
        # s -> a reaches one object, then nothing moves on pass 2.
        g = make_graph(
            [("s", "s"), ("a", "o"), ("f", "s")],
            [("s", "a", "t")],
        )
        report = bridge_exists(g, 0, 2)
        assert not report.exists
        assert report.frontier_trace == ((1, (1,)), (2, ()))
        assert report.passes == 2

    @pytest.mark.parametrize("length", [2, 3, 7, 10])
    def test_chain_needs_one_pass_per_arc(self, length):
        g, s, f, _ = chain_graph(length)
        report = bridge_exists(g, s, f)
        assert report.exists
        assert report.passes == length
        assert report.path.length == length


class TestSemantics:
    def test_direct_arc_is_length_one(self):
        g = make_graph([("s", "s"), ("f", "s")], [("s", "f", "t")])
        path = find_bridge_path(g, 0, 1)
        assert path.vertices == (0, 1)
        assert path.length == 1

    def test_other_subjects_are_not_traversable(self):
        # The middle vertex is a subject: no bridge may run through it.
        g = make_graph(
            [("s", "s"), ("u", "s"), ("f", "s")],
            [("s", "u", "t"), ("u", "f", "t")],
        )
        assert _traversal_set(g, 0, 2) == {0, 2}
        assert not bridge_exists(g, 0, 2).exists

    def test_object_endpoints_are_admitted(self):
        g = make_graph(
            [("s", "o"), ("x", "o"), ("f", "o")],
            [("s", "x", "t"), ("x", "f", "t")],
        )
        assert bridge_exists(g, 0, 2).exists

    def test_non_t_labels_never_help(self):
        g = make_graph(
            [("s", "s"), ("x", "o"), ("f", "s")],
            [("s", "x", "g"), ("x", "f", "rw")],
        )
        assert not bridge_exists(g, 0, 2).exists

    def test_self_loop_changes_nothing(self):
        plain = figure_graph()
        looped = figure_graph()
        looped.add_edge(1, 1, {Right.T})
        assert bridge_exists(looped, 0, 2) == bridge_exists(plain, 0, 2)

    def test_lowest_id_predecessor_wins(self):
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("f", "s")],
            [("s", "a", "t"), ("s", "b", "t"), ("a", "f", "t"), ("b", "f", "t")],
        )
        assert find_bridge_path(g, 0, 3).vertices == (0, 1, 3)

    def test_diamond_trace_and_witness(self):
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o"), ("f", "s")],
            [("s", "a", "t"), ("s", "b", "t"), ("a", "c", "t"), ("b", "c", "t"), ("c", "f", "t")],
        )
        report = bridge_exists(g, 0, 4)
        assert report.frontier_trace == ((1, (1, 2)), (2, (3,)), (3, (4,)))
        assert report.path.vertices == (0, 1, 3, 4)

    def test_success_pass_keeps_scanning_to_its_end(self):
        # f and a later object are both claimed in pass 1; the trace entry
        # holds both because the pass finishes before the f check runs.
        g = make_graph(
            [("s", "s"), ("f", "s"), ("z", "o")],
            [("s", "f", "t"), ("s", "z", "t")],
        )
        report = bridge_exists(g, 0, 1)
        assert report.exists
        assert report.frontier_trace == ((1, (1, 2)),)


def _assert_engines_agree(g, s, f, direction):
    report = bridge_exists(g, s, f, direction)
    _assert_well_formed(g, report, s, f)
    assert bridge_exists_faithful(g, s, f, direction) == report
    witness = brute_force_bridge(g, s, f, direction)
    assert report.exists == (witness is not None)
    return report


class TestSaturation:
    """The frontier engine stops once nothing claimable is left; these
    graphs put the claimable count at its edge cases.  Every report must
    still equal the faithful engine's, pass for pass."""

    CASES = {
        # s reaches a and b; the goal is an object no t arc enters.
        "isolated sink": (
            [("s", "s"), ("a", "o"), ("b", "o"), ("sink", "o")],
            [("s", "a", "t"), ("a", "b", "t"), ("b", "a", "t"), ("b", "s", "t")],
            "s", "sink",
        ),
        # c is entered only from the subject u, which is never expanded,
        # so the count overestimates and the search ends on an empty pass.
        "object entered only from a subject": (
            [("s", "s"), ("u", "s"), ("a", "o"), ("c", "o"), ("f", "s")],
            [("s", "a", "t"), ("u", "c", "t"), ("c", "u", "t"), ("a", "s", "t")],
            "s", "f",
        ),
        # s is an object that t arcs enter: it must not count as claimable.
        "object start entered by t arcs": (
            [("s", "o"), ("x", "o"), ("y", "o"), ("f", "s")],
            [("x", "s", "t"), ("s", "x", "t"), ("y", "s", "t"), ("s", "y", "t"), ("f", "y", "t")],
            "s", "f",
        ),
        # f is entered only from other subjects, so it is counted but never
        # claimed; every object is reached in pass 1.
        "subject goal entered only from subjects": (
            [("s", "s"), ("u", "s"), ("a", "o"), ("f", "s")],
            [("s", "a", "t"), ("u", "f", "t"), ("f", "u", "t"), ("a", "u", "t")],
            "s", "f",
        ),
        # The pass that claims the last claimable vertex also reaches f.
        "goal on the saturating pass": (
            [("s", "s"), ("a", "o"), ("b", "o"), ("f", "s")],
            [("s", "a", "t"), ("a", "b", "t"), ("a", "f", "t"), ("b", "s", "t"), ("f", "a", "t")],
            "s", "f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
    def test_matches_faithful_and_oracle(self, name, direction):
        vertices, edges, s_name, f_name = self.CASES[name]
        g = make_graph(vertices, edges)
        s, f = g.vertex_id(s_name), g.vertex_id(f_name)
        _assert_engines_agree(g, s, f, direction)
        _assert_engines_agree(g, f, s, direction)

    def test_isolated_sink_ends_on_one_empty_pass(self):
        vertices, edges, _, _ = self.CASES["isolated sink"]
        g = make_graph(vertices, edges)
        report = bridge_exists(g, 0, 3)
        assert report.frontier_trace == ((1, (1,)), (2, (2,)), (3, ()))

    def test_nothing_claimable_gives_one_empty_pass(self):
        # t arcs join only subjects; no object is entered or left by one.
        g = make_graph(
            [("s", "s"), ("u", "s"), ("x", "o"), ("f", "o")],
            [("s", "u", "t"), ("u", "s", "t"), ("s", "s", "t"), ("s", "x", "g")],
        )
        for direction in BOTH:
            report = _assert_engines_agree(g, 0, 3, direction)
            assert report.frontier_trace == ((1, ()),)


class TestQueriesAfterMutation:
    """Answers track the graph as it grows, whatever was queried before."""

    def _agree(self, g, s, f, direction):
        report = bridge_exists(g, s, f, direction)
        assert report == bridge_exists_faithful(g, s, f, direction)
        return report

    def test_new_t_arc_completes_bridge(self):
        g = make_graph([("s", "s"), ("x", "o"), ("f", "s")], [("s", "x", "t")])
        assert not self._agree(g, 0, 2, Direction.FORWARD).exists
        assert not self._agree(g, 2, 0, Direction.BACKWARD).exists
        g.add_edge(1, 2, {Right.T})
        assert self._agree(g, 0, 2, Direction.FORWARD).path.vertices == (0, 1, 2)
        assert self._agree(g, 2, 0, Direction.BACKWARD).path.vertices == (2, 1, 0)

    def test_new_vertex_and_arcs_complete_bridge(self):
        g = make_graph([("s", "s"), ("x", "o"), ("f", "s")], [("s", "x", "t")])
        for direction in BOTH:
            assert not self._agree(g, 0, 2, direction).exists
        y = g.add_vertex("y", VertexKind.OBJECT)
        g.add_edge(0, y, {Right.T})
        g.add_edge(y, 2, {Right.T})
        assert self._agree(g, 0, 2, Direction.FORWARD).path.vertices == (0, y, 2)
        assert self._agree(g, 2, 0, Direction.BACKWARD).path.vertices == (2, y, 0)
        assert not self._agree(g, 0, 2, Direction.BACKWARD).exists

    def test_edited_neighbor_lists_change_nothing(self):
        g = figure_graph()
        before = [bridge_exists(g, 0, 2, d) for d in BOTH]
        for v in range(g.vertex_count):
            g.t_successors(v).clear()
            g.t_predecessors(v).append(v)
        assert [bridge_exists(g, 0, 2, d) for d in BOTH] == before
        assert before[0].path.vertices == (0, 1, 2)


class TestPassSelection:
    """``bridge_exists`` takes the bit-row pass when the average t-degree
    is at least max(32, n / 64), and the list loop otherwise.  Only the
    bit-row pass fills the graph's row cache, so the cache shows which
    one ran; either way the report is the list loop's."""

    def _pass_kinds(self, g, queries):
        kinds = set()
        for s, f, direction in queries:
            g._row_cache = None
            report = bridge_exists(g, s, f, direction)
            assert report == list_loop_report(g, s, f, direction)
            kinds.add("rows" if g._row_cache is not None else "lists")
        return kinds

    def test_dense_family_takes_bit_rows(self):
        # The benchmark's dense family: one subject and 998 objects at
        # p = 0.2 (average t-degree about 200), plus three sink objects.
        g = random_graph(RandomGraphSpec(1, 998, 0.2, frozenset({Right.T}), 73_000))
        sinks = [g.add_vertex(f"sink{i}", VertexKind.OBJECT) for i in range(3)]
        far = [v for v in range(1, 999) if not g.rights_between(0, v)]
        queries = [(0, far[0], d) for d in BOTH] + [(0, sinks[0], d) for d in BOTH]
        assert self._pass_kinds(g, queries) == {"rows"}

    def test_islands_and_worst_case_miss_graphs_take_lists(self):
        # The benchmark's islands shape (42 subjects in tg islands, 300
        # objects, p = 0.02: average t-degree about 7) and the
        # worst-case-miss graphs of the count tests (at most 20).
        islands = random_graph(RandomGraphSpec(42, 300, 0.02, frozenset({Right.T, Right.G}), 73_001))
        cases = [(islands, [(0, 1, d) for d in BOTH] + [(0, 200, d) for d in BOTH])]
        for n in (100, 200, 400):
            g = random_graph(RandomGraphSpec(1, n - 2, 0.05, frozenset({Right.T}), 1 + n))
            sink = g.add_vertex("sink", VertexKind.OBJECT)
            cases.append((g, [(0, sink, d) for d in BOTH]))
        for g, queries in cases:
            assert self._pass_kinds(g, queries) == {"lists"}

    def test_bridges_between_islands_keeps_the_list_loop(self):
        # Average t-degree about 90, past the bit-row floor of 32.
        g = random_graph(RandomGraphSpec(1, 300, 0.3, frozenset({Right.T}), 73_002))
        u = g.add_vertex("u", VertexKind.SUBJECT)
        g.add_edge(7, u, {Right.T})
        g.add_edge(u, 7, {Right.T})
        a, b = compute_islands(g)
        for direction in BOTH:
            assert bridges_between_islands(g, a, b, direction)
        assert g._row_cache is None


class TestRowCache:
    """The bit rows a query caches on the graph must never outlive the
    t-lists they mirror: a new t arc, from either writer, or a new vertex
    discards them."""

    def _agree(self, g, s, f, direction):
        report = bridge_exists(g, s, f, direction)
        assert g._row_cache is not None  # the bit-row pass ran
        assert report == list_loop_report(g, s, f, direction)
        assert report == bridge_exists_faithful(g, s, f, direction)
        return report

    @pytest.mark.parametrize("writer", ["add_edge", "_insert_row"])
    def test_new_arcs_and_vertices_change_the_next_answer(self, writer):
        g = random_graph(RandomGraphSpec(1, 200, 0.3, frozenset({Right.T}), 74_000))

        def add_t_arc(src, dst):
            if writer == "add_edge":
                g.add_edge(src, dst, {Right.T})
            else:
                g._insert_row(src, [dst], bytes([_T]))

        x = g.add_vertex("x", VertexKind.OBJECT)
        for direction in BOTH:
            assert not self._agree(g, 0, x, direction).exists
        # 0 reaches object 5 both ways; x is joined to 5 alone, both ways.
        add_t_arc(5, x)
        add_t_arc(x, 5)
        for direction in BOTH:
            assert self._agree(g, 0, x, direction).path.vertices[-2:] == (5, x)
        y = g.add_vertex("y", VertexKind.SUBJECT)
        for direction in BOTH:
            assert not self._agree(g, 0, y, direction).exists
        add_t_arc(x, y)
        add_t_arc(y, x)
        for direction in BOTH:
            assert self._agree(g, 0, y, direction).path.vertices[-3:] == (5, x, y)

    def test_threads_share_one_row_cache(self):
        # A freshly built dense graph, queried from more threads than
        # cores at once: they race to start the cache and to fill its
        # rows, and each must still answer as the list loop does.
        g = random_graph(RandomGraphSpec(1, 300, 0.3, frozenset({Right.T}), 74_001))
        queries = [(0, f, d) for f in range(1, 301, 10) for d in BOTH]
        expected = [list_loop_report(g, *q) for q in queries]
        assert g._row_cache is None
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
                    if bridge_exists(g, *queries[j]) != expected[j]:
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
        assert g._row_cache is not None


class TestOracleIndependence:
    def test_faithful_engine_reads_no_t_list(self):
        # The faithful engine re-scans the rights masks only, so a drift
        # between the t-lists and the masks shows up as a disagreement
        # with the frontier engine instead of being shared by both.
        hits = 0
        for seed in range(40):
            spec = RandomGraphSpec(2 + seed % 3, 3 + seed % 5, 0.25,
                                   frozenset({Right.T, Right.G}), seed=70_000 + seed)
            g = random_graph(spec)
            n = g.vertex_count
            queries = [(s, f, d) for d in BOTH for s in range(n) for f in range(n) if s != f]
            before = [bridge_exists_faithful(g, s, f, d) for s, f, d in queries]
            for lists in (g._t_succ, g._t_pred):
                for ws in lists:
                    ws.clear()
            assert [bridge_exists_faithful(g, s, f, d) for s, f, d in queries] == before
            hits += sum(report.exists for report in before)
            # The emptied lists are the ones the frontier engine walks.
            assert not any(bridge_exists(g, s, f, d).exists for s, f, d in queries)
        assert hits >= 1000

    def test_faithful_reports_ignore_arc_insertion_order(self):
        # The faithful engine scans one vertex's arcs in store order, that
        # is insertion order; all of them claim through that vertex, so
        # no order may change a report.
        for seed in range(40):
            spec = RandomGraphSpec(2 + seed % 3, 3 + seed % 6, 0.3, frozenset(Right),
                                   seed=71_000 + seed)
            g = random_graph(spec)
            n = g.vertex_count
            queries = [(s, f, d) for d in BOTH for s in range(n) for f in range(n) if s != f]
            expected = [bridge_exists_faithful(g, s, f, d) for s, f, d in queries]
            edges = g.edges()
            shuffle = random.Random(seed).shuffle
            for _ in range(3):
                shuffle(edges)
                rebuilt = ProtectionGraph()
                for v in range(n):
                    rebuilt.add_vertex(g.vertex_name(v), g.vertex_kind(v))
                for edge in edges:
                    rebuilt.add_edge(edge.src, edge.dst, edge.rights)
                assert [bridge_exists_faithful(rebuilt, s, f, d) for s, f, d in queries] == expected


class TestErrors:
    def test_same_vertex_rejected(self):
        g = figure_graph()
        for engine in (bridge_exists, bridge_exists_faithful, brute_force_bridge):
            with pytest.raises(SameVertexError):
                engine(g, 0, 0)

    def test_unknown_vertex_rejected(self):
        g = figure_graph()
        with pytest.raises(UnknownVertexError):
            bridge_exists(g, 0, 11)

    @pytest.mark.parametrize(
        "s, f", [(0, True), (False, 2), (True, 2), (0, 3), (3, 0), (-1, 2), (3, -1), (0, 2.0)]
    )
    @pytest.mark.parametrize(
        "engine", [bridge_exists, bridge_exists_faithful, brute_force_bridge, find_bridge_path]
    )
    def test_bool_vertex_rejected(self, engine, s, f):
        # bool is an int subclass, and True == 1 is the figure's object;
        # out-of-range and non-int ids fail the same way, naming s first.
        # Any other int subclass is a vertex id like its int.
        class Vid(int):
            pass

        g = figure_graph()
        bad = s if s.__class__ is not int or not 0 <= s < 3 else f
        with pytest.raises(UnknownVertexError, match=f"^vertex id {re.escape(repr(bad))} is not in this graph$"):
            engine(g, s, f)
        for direction in BOTH:
            assert engine(g, Vid(0), Vid(2), direction) == engine(g, 0, 2, direction)
            assert engine(g, Vid(2), 0, direction) == engine(g, 2, 0, direction)

    @pytest.mark.parametrize("direction", ["forward", None, 1])
    @pytest.mark.parametrize(
        "engine", [bridge_exists, bridge_exists_faithful, brute_force_bridge, find_bridge_path]
    )
    def test_direction_that_is_not_a_direction_rejected(self, engine, direction):
        # The bridge runs f -> s against the arcs, so reading a bad value
        # as backward would find it.
        g = figure_graph()
        with pytest.raises(TypeError, match=f"got {direction!r}"):
            engine(g, g.vertex_id("f"), g.vertex_id("s"), direction)

    @pytest.mark.parametrize("direction", ["forward", None, 1])
    def test_islands_direction_that_is_not_a_direction_rejected(self, direction):
        g = figure_graph()
        islands = compute_islands(g)
        with pytest.raises(TypeError, match=f"got {direction!r}"):
            bridges_between_islands(g, islands[1], islands[0], direction)

    @pytest.mark.parametrize("direction", ["forward", None, 1])
    def test_validate_path_direction_that_is_not_a_direction_rejected(self, direction):
        # (2, 1, 0) runs against the arcs: read as backward it would pass,
        # and (0, 1, 2) would fail as a missing t arc.
        g = figure_graph()
        for vertices in ((2, 1, 0), (0, 1, 2)):
            with pytest.raises(TypeError, match=f"got {direction!r}"):
                validate_path(g, BridgePath(vertices, direction))

    @pytest.mark.parametrize("foreign", [99, -1, True])
    def test_validate_path_vertex_outside_the_graph_is_an_invariant_violation(self, foreign):
        # A path from an engine holds only ids of g.  True == 1 is the
        # figure's object, and 0 -> 1 is a t arc, so (0, True) would pass
        # as a backed forward step if bool were read as an id.
        g = figure_graph()
        for direction in BOTH:
            for vertices in ((0, foreign), (0, foreign, 2), (foreign, 1, 2)):
                with pytest.raises(
                    InvariantViolationError, match=f"vertex id {re.escape(repr(foreign))} is not in this graph$"
                ):
                    validate_path(g, BridgePath(vertices, direction))


class TestBetweenIslands:
    def test_figure_islands_have_one_bridge(self):
        g = figure_graph()
        islands = compute_islands(g)
        found = bridges_between_islands(g, islands[0], islands[1])
        assert [(s, f, path.vertices) for s, f, path in found] == [(0, 2, (0, 1, 2))]

    def test_same_island_rejected(self):
        g = figure_graph()
        islands = compute_islands(g)
        with pytest.raises(SameIslandError):
            bridges_between_islands(g, islands[0], islands[0])

    def test_islands_sharing_a_member_rejected(self):
        # a -t-> x -t-> b: a shared member would "bridge" a to itself with
        # the one-vertex path (a,), which validate_path rejects.
        g = make_graph([("a", "s"), ("b", "s"), ("x", "o")], [("a", "x", "t"), ("x", "b", "t")])
        for direction in BOTH:
            for first, second, shared in [((0,), (0, 1), "a"), ((0, 1), (1,), "b")]:
                with pytest.raises(SameIslandError, match=f"islands 0 and 1 share member '{shared}'"):
                    bridges_between_islands(g, Island(0, first), Island(1, second), direction)

    def test_repeated_member_rejected(self):
        # a -t-> x -t-> b: a member listed twice used to return the bridge
        # (a, b, (a, x, b)) twice.
        g = make_graph([("a", "s"), ("b", "s"), ("x", "o")], [("a", "x", "t"), ("x", "b", "t")])
        for direction in BOTH:
            for first, second, index, repeated in [((0, 0), (1,), 0, "a"), ((0,), (1, 1), 1, "b")]:
                with pytest.raises(SameIslandError, match=f"island {index} lists member '{repeated}' twice"):
                    bridges_between_islands(g, Island(0, first), Island(1, second), direction)

    def test_empty_island_rejected(self):
        # An empty goal island used to crash in the search (pop from an
        # empty list); an empty source island returned [] unnoticed.
        g = figure_graph()
        islands = compute_islands(g)
        empty = Island(index=5, members=())
        for direction in BOTH:
            for first, second in [(islands[0], empty), (empty, islands[0])]:
                with pytest.raises(SameIslandError, match="^island 5 has no members; "):
                    bridges_between_islands(g, first, second, direction)
        # The earlier checks keep their order: one index, then object members.
        with pytest.raises(SameIslandError, match="got index 5 twice"):
            bridges_between_islands(g, empty, Island(5, ()))
        with pytest.raises(NotASubjectError):
            bridges_between_islands(g, empty, Island(0, (g.vertex_id("x"),)))

    def test_descending_members_rejected(self):
        # The result is sorted by (s, f) only because members ascend.
        g = make_graph([("a", "s"), ("b", "s"), ("c", "s"), ("x", "o")],
                       [("a", "x", "t"), ("b", "x", "t"), ("x", "c", "t")])
        for direction in BOTH:
            with pytest.raises(SameIslandError, match="island 0 lists member 'a' after 'b'"):
                bridges_between_islands(g, Island(0, (1, 0)), Island(1, (2,)), direction)

    def test_source_that_claims_nothing_copies_no_list(self):
        # Neither a start without a t arc in the walk direction nor a graph
        # with nothing claimable needs the per-query predecessor list.
        class NoCopy(list):
            def copy(self):
                raise AssertionError("the kind table was copied")

        g = make_graph([("a", "s"), ("b", "s"), ("c", "s"), ("x", "o")],
                       [("a", "x", "t"), ("x", "b", "t"), ("c", "a", "t")])
        subjects_only = make_graph([("a", "s"), ("b", "s"), ("c", "s")], [("a", "b", "t")])
        one_pass = ((1, ()),)
        for graph, s, f, direction in [
            (g, 1, 0, Direction.FORWARD),  # b has no t arc out
            (g, 2, 0, Direction.BACKWARD),  # c has no t arc in
            (subjects_only, 0, 2, Direction.FORWARD),  # a has a t arc, but nothing is claimable
        ]:
            expected = bridge_exists_faithful(graph, s, f, direction)
            assert expected.frontier_trace == one_pass and expected.path is None
            original = graph._subject_id
            graph._subject_id = NoCopy(original)
            try:
                assert bridge_exists(graph, s, f, direction) == expected
                assert bridges_between_islands(graph, Island(0, (s,)), Island(1, (f,)), direction) == []
            finally:
                graph._subject_id = original
        # Source b skips its search; c still finds its bridge.
        found = bridges_between_islands(g, Island(0, (1, 2)), Island(1, (0,)), Direction.FORWARD)
        assert [(s, f, p.vertices) for s, f, p in found] == [(2, 0, (2, 0))]

    def test_islands_of_another_graph_rejected(self):
        # Islands 0 and 1 of five isolated subjects are {0} and {1}; in
        # the figure, 1 is the object x.  Islands 3 and 4 name ids the
        # figure does not have.
        g = figure_graph()
        foreign = compute_islands(random_graph(RandomGraphSpec(5, 3, 0.0, frozenset({Right.T}), 1)))
        for direction in BOTH:
            with pytest.raises(NotASubjectError, match="'x' is an object"):
                bridges_between_islands(g, foreign[0], foreign[1], direction)
            with pytest.raises(NotASubjectError, match="'x' is an object"):
                bridges_between_islands(g, foreign[1], foreign[0], direction)
            with pytest.raises(UnknownVertexError, match="vertex id 3 is not in this graph"):
                bridges_between_islands(g, foreign[3], foreign[4], direction)
            with pytest.raises(UnknownVertexError, match="vertex id 4 is not in this graph"):
                bridges_between_islands(g, compute_islands(g)[0], foreign[4], direction)

    def test_no_objects_means_no_bridges(self):
        g = make_graph([("a", "s"), ("b", "s")])
        islands = compute_islands(g)
        assert bridges_between_islands(g, islands[0], islands[1]) == []

    def test_seeded_sweep_matches_per_pair_faithful_loop(self):
        # Random graphs whose t/g arcs between subjects build multi-member
        # islands; the oracle is one faithful search per ordered pair.
        multi_member_pairs = 0  # both islands have two or more members
        multi_goal_hits = 0  # one call found bridges into two or more members
        for seed in range(300):
            spec = RandomGraphSpec(4 + seed % 6, 2 + seed % 7, 0.06 + 0.02 * (seed % 6),
                                   frozenset({Right.T, Right.G}), seed=90_000 + seed)
            g = random_graph(spec)
            islands = compute_islands(g)
            for a in islands:
                for b in islands:
                    if a.index == b.index:
                        continue
                    multi_member_pairs += len(a.members) > 1 and len(b.members) > 1
                    for direction in BOTH:
                        expected = []
                        for s in a.members:
                            for f in b.members:
                                report = bridge_exists_faithful(g, s, f, direction)
                                if report.exists:
                                    expected.append((s, f, report.path))
                        assert bridges_between_islands(g, a, b, direction) == expected
                        multi_goal_hits += len({f for _, f, _ in expected}) > 1
        assert multi_member_pairs >= 50
        assert multi_goal_hits >= 20

    def test_matches_per_pair_queries(self):
        g = make_graph(
            [("a", "s"), ("b", "s"), ("c", "s"), ("x", "o")],
            [("a", "b", "g"), ("a", "x", "t"), ("x", "c", "t")],
        )
        islands = compute_islands(g)
        assert [i.members for i in islands] == [(0, 1), (2,)]
        found = bridges_between_islands(g, islands[0], islands[1])
        expected = []
        for s in islands[0].members:
            for f in islands[1].members:
                path = find_bridge_path(g, s, f)
                if path is not None:
                    expected.append((s, f, path))
        assert found == expected
        assert [(s, f) for s, f, _ in found] == [(0, 2)]

    @pytest.mark.parametrize("b_order", [("b1", "b2"), ("b2", "b1")])
    def test_claimed_goals_are_never_expanded(self, b_order):
        # a -t-> o1 -t-> b2 -t-> o2 -t-> b1, island B = {b1, b2}: b1 is
        # reachable only through b2, a subject, so the only bridge is
        # a ~> b2.  Swapping the ids of b1 and b2 covers both orders in
        # which the search checks its goals.
        g = make_graph(
            [("a", "s"), ("o1", "o"), ("o2", "o")] + [(name, "s") for name in b_order],
            [("a", "o1", "t"), ("o1", "b2", "t"), ("b2", "o2", "t"), ("o2", "b1", "t"),
             ("b1", "b2", "g")],
        )
        a, o1, b2 = g.vertex_id("a"), g.vertex_id("o1"), g.vertex_id("b2")
        for graph, direction in ((g, Direction.FORWARD), (flipped(g), Direction.BACKWARD)):
            island_a, island_b = sorted(compute_islands(graph), key=lambda i: len(i.members))
            assert island_a.members == (a,) and len(island_b.members) == 2
            found = bridges_between_islands(graph, island_a, island_b, direction)
            assert [(s, f, path.vertices) for s, f, path in found] == [(a, b2, (a, o1, b2))]


def _assert_well_formed(g, report, s, f):
    m = len(_traversal_set(g, s, f))
    assert report.passes <= m + 1
    assert report.passes == len(report.frontier_trace)
    assert [n for n, _ in report.frontier_trace] == list(range(1, report.passes + 1))
    for _, added in report.frontier_trace[:-1]:
        assert added
    if report.exists:
        assert f in report.frontier_trace[-1][1]
        assert report.path is not None
        validate_path(g, report.path)
        assert report.path.vertices[0] == s
        assert report.path.vertices[-1] == f
    else:
        assert report.path is None
        assert report.frontier_trace[-1][1] == ()


class TestProperties:
    @given(graphs_with_endpoints())
    @settings(max_examples=200)
    def test_agrees_with_oracle_and_faithful(self, case):
        g, s, f = case
        for direction in BOTH:
            report = bridge_exists(g, s, f, direction)
            _assert_well_formed(g, report, s, f)
            assert bridge_exists_faithful(g, s, f, direction) == report
            witness = brute_force_bridge(g, s, f, direction)
            assert report.exists == (witness is not None)
            if witness is not None:
                validate_path(g, witness)

    @given(graphs_with_any_endpoints())
    @settings(max_examples=200)
    def test_any_endpoint_kinds_agree_with_oracle_and_faithful(self, case):
        g, s, f = case
        for direction in BOTH:
            _assert_engines_agree(g, s, f, direction)

    @given(graphs_with_endpoints())
    @settings(max_examples=150)
    def test_backward_equals_forward_on_reversed(self, case):
        g, s, f = case
        backward = bridge_exists(g, s, f, Direction.BACKWARD)
        forward_on_rev = bridge_exists(flipped(g), s, f, Direction.FORWARD)
        assert backward.exists == forward_on_rev.exists
        assert backward.passes == forward_on_rev.passes
        assert backward.frontier_trace == forward_on_rev.frontier_trace
        if backward.exists:
            assert backward.path.vertices == forward_on_rev.path.vertices

    @given(graphs_with_endpoints(rights=tuple(Right)))
    @settings(max_examples=150)
    def test_non_t_arcs_are_invisible(self, case):
        g, s, f = case
        stripped = t_only_projection(g)
        for direction in BOTH:
            assert bridge_exists(g, s, f, direction) == bridge_exists(stripped, s, f, direction)

    @given(graphs_with_endpoints())
    @settings(max_examples=50)
    def test_deterministic(self, case):
        g, s, f = case
        assert bridge_exists(g, s, f) == bridge_exists(g, s, f)


SWEEP_VERTICES = [("s", VertexKind.SUBJECT), ("f", VertexKind.SUBJECT)] + [
    (f"o{i}", VertexKind.OBJECT) for i in range(3)
]
SWEEP_GRAPHS = 1 << 20  # one graph per subset of the 20 ordered pairs


def _sweep_shard(bounds: tuple[int, int]) -> int:
    """Check graphs number start to stop - 1 of the sweep; returns the cases run."""
    start, stop = bounds
    cases = 0
    for g in _t_arc_graphs(SWEEP_VERTICES, start, stop):
        for direction in BOTH:
            witness = brute_force_bridge(g, 0, 1, direction)
            found = bridge_exists(g, 0, 1, direction).path
            # Both return a shortest path: the same length, or both none;
            # the oracle's is the smallest id sequence of that length.
            assert (witness and witness.length) == (found and found.length), (
                serialize_graph(g),
                direction,
            )
            assert witness is None or witness.vertices <= found.vertices, (serialize_graph(g), direction)
            cases += 1
    return cases


@pytest.mark.slow
def test_exhaustive_five_traversal_vertices_match_oracle():
    # Every t-arc pattern over s, f and three objects: 2^20 graphs, in
    # two halves checked by exactly two worker processes.  Spawned, not
    # forked: the workers import this module afresh.
    half = SWEEP_GRAPHS // 2
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        shards = pool.map_async(_sweep_shard, [(0, half), (half, SWEEP_GRAPHS)])
        cases = shards.get(timeout=900)
    assert sum(cases) == SWEEP_GRAPHS * len(BOTH)


class TestChainFamily:
    @pytest.mark.parametrize("length", [2, 5, 16])
    def test_breaking_any_arc_kills_the_bridge(self, length):
        g, s, f, arcs = chain_graph(length)
        assert bridge_exists(g, s, f).path.length == length
        for arc in arcs:
            broken = copy_without_arc(g, arc)
            assert not bridge_exists(broken, s, f).exists

    def test_reversed_chain_found_backward(self):
        g, s, f, _ = chain_graph(6)
        rev = flipped(g)
        report = bridge_exists(rev, s, f, Direction.BACKWARD)
        assert report.exists and report.path.length == 6
