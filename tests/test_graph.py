from __future__ import annotations

import copy
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from takegrant import (
    Direction,
    DuplicateNameError,
    EmptyRightsError,
    InvalidNameError,
    InvalidRightError,
    ParseError,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    TakeGrantError,
    UnknownVertexError,
    VertexKind,
    bridge_exists,
    bridge_exists_faithful,
    bridges_between_islands,
    brute_force_bridge,
    compute_islands,
    new_graph,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_path,
)

from helpers import LENGTH2_BRIDGE_TGG, graphs, make_graph, tgg_documents


def figure_graph():
    return parse_graph(LENGTH2_BRIDGE_TGG)


class TestConstruction:
    def test_new_graph_is_empty(self):
        g = new_graph()
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_vertex_count_after_two_adds(self):
        g = new_graph()
        g.add_vertex("a", VertexKind.SUBJECT)
        g.add_vertex("b", VertexKind.OBJECT)
        assert g.vertex_count == 2

    def test_ids_are_dense_declaration_order(self):
        g = new_graph()
        assert g.add_vertex("s", VertexKind.SUBJECT) == 0
        assert g.add_vertex("x", VertexKind.OBJECT) == 1
        assert g.vertex_name(0) == "s"
        assert g.vertex_kind(1) is VertexKind.OBJECT
        assert g.vertex_id("x") == 1

    def test_duplicate_name_rejected(self):
        g = new_graph()
        g.add_vertex("s", VertexKind.SUBJECT)
        with pytest.raises(DuplicateNameError):
            g.add_vertex("s", VertexKind.OBJECT)

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a#b", "café"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(InvalidNameError):
            new_graph().add_vertex(bad, VertexKind.SUBJECT)

    @pytest.mark.parametrize("bad", [123, None, b"s", ("s",)])
    def test_name_that_is_not_a_str_rejected(self, bad):
        g = make_graph([("s", "s")])
        before = copy.deepcopy(vars(g))
        with pytest.raises(InvalidNameError):
            g.add_vertex(bad, VertexKind.OBJECT)
        assert vars(g) == before

    @pytest.mark.parametrize("bad", ["object", "subject", None, 1, Right.T])
    def test_kind_that_is_not_a_vertex_kind_rejected(self, bad):
        g = make_graph([("s", "s")])
        before = copy.deepcopy(vars(g))
        with pytest.raises(TypeError, match="VertexKind"):
            g.add_vertex("x", bad)
        assert vars(g) == before
        assert g.add_vertex("x", VertexKind.OBJECT) == 1

    def test_add_edge_and_merge(self):
        g = make_graph([("s", "s"), ("x", "o")])
        g.add_edge(0, 1, {Right.T})
        assert g.rights_between(0, 1) == {Right.T}
        g.add_edge(0, 1, {Right.G})
        assert g.rights_between(0, 1) == {Right.T, Right.G}
        assert g.edge_count == 1

    def test_add_edge_empty_rights(self):
        g = make_graph([("s", "s"), ("x", "o")])
        with pytest.raises(EmptyRightsError):
            g.add_edge(0, 1, set())

    @pytest.mark.parametrize(
        "rights, bad",
        [("t", "'t'"), ([Right.T, "g"], "'g'"), ([Right.G, 1], "1"), ([["t"]], "['t']")],
    )
    def test_add_edge_rejects_non_right_items(self, rights, bad):
        g = make_graph([("s", "s"), ("x", "o")], [("x", "s", "g")])
        before = serialize_graph(g)
        with pytest.raises(InvalidRightError, match=re.escape(f"{bad} is not a Right")) as caught:
            g.add_edge(0, 1, rights)
        assert isinstance(caught.value, TakeGrantError)
        assert serialize_graph(g) == before
        assert g.rights_between(0, 1) == frozenset()
        assert g.out_neighbors_with_right(0, Right.T) == []
        assert not bridge_exists(g, 0, 1).exists

    def test_add_edge_unknown_vertex(self):
        g = make_graph([("s", "s")])
        with pytest.raises(UnknownVertexError):
            g.add_edge(0, 7, {Right.T})

    @pytest.mark.parametrize("src, dst", [(0, True), (False, 1), (True, False)])
    def test_add_edge_rejects_bool_ids(self, src, dst):
        # bool is an int subclass; True would silently name vertex 1.
        g = make_graph([("s", "s"), ("x", "o")])
        with pytest.raises(UnknownVertexError, match="is not in this graph"):
            g.add_edge(src, dst, {Right.T})
        assert g.edges() == []

    @pytest.mark.parametrize("src, dst", [(0, True), (False, 1)])
    def test_rights_between_rejects_bool_ids(self, src, dst):
        g = make_graph([("s", "s"), ("x", "o")], [("s", "x", "t")])
        with pytest.raises(UnknownVertexError, match="is not in this graph"):
            g.rights_between(src, dst)

    def test_int_subclass_ids_accepted(self):
        class Vid(int):
            pass

        g = make_graph([("s", "s"), ("x", "o")])
        g.add_edge(Vid(0), Vid(1), {Right.T})
        assert g.rights_between(Vid(0), Vid(1)) == {Right.T}
        assert g.rights_between(0, 1) == {Right.T}

    def test_self_loop_allowed(self):
        g = make_graph([("s", "s")], [("s", "s", "t")])
        assert g.rights_between(0, 0) == {Right.T}


class TestAdjacency:
    def test_out_neighbors_figure(self):
        g = figure_graph()
        s, x = g.vertex_id("s"), g.vertex_id("x")
        assert g.out_neighbors_with_right(s, Right.T) == [x]

    def test_out_neighbors_empty(self):
        g = figure_graph()
        assert g.out_neighbors_with_right(g.vertex_id("f"), Right.T) == []

    def test_out_neighbors_filters_and_sorts(self):
        # s -> a {t}, s -> b {g}, s -> c {t}: only the t targets, id order
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o")],
            [("s", "a", "t"), ("s", "b", "g"), ("s", "c", "t")],
        )
        assert g.out_neighbors_with_right(0, Right.T) == [1, 3]

    def test_in_neighbors_figure(self):
        g = figure_graph()
        assert g.in_neighbors_with_right(g.vertex_id("x"), Right.T) == [g.vertex_id("s")]

    def test_in_neighbors_isolated(self):
        g = make_graph([("a", "s"), ("b", "s")])
        assert g.in_neighbors_with_right(0, Right.T) == []

    def test_neighbors_unknown_vertex(self):
        g = new_graph()
        with pytest.raises(UnknownVertexError):
            g.out_neighbors_with_right(0, Right.T)

    @pytest.mark.parametrize("right", ["t", "g", 1, None])
    @pytest.mark.parametrize("method", ["out_neighbors_with_right", "in_neighbors_with_right"])
    def test_neighbors_reject_non_right(self, method, right):
        g = figure_graph()
        with pytest.raises(InvalidRightError, match=re.escape(f"{right!r} is not a Right")) as caught:
            getattr(g, method)(g.vertex_id("x"), right)
        assert isinstance(caught.value, TakeGrantError)

    @given(graphs())
    def test_in_neighbors_match_reversed_out(self, g):
        rev = g.reverse()
        for v in range(g.vertex_count):
            for right in Right:
                assert g.in_neighbors_with_right(v, right) == rev.out_neighbors_with_right(v, right)

    @given(graphs())
    def test_neighbor_lists_strictly_ascending(self, g):
        for v in range(g.vertex_count):
            for right in Right:
                for lst in (
                    g.out_neighbors_with_right(v, right),
                    g.in_neighbors_with_right(v, right),
                ):
                    assert lst == sorted(set(lst))


class TestTIndex:
    """The take-arc lists are kept up to date by every mutation; callers
    only ever see sorted copies of them, and queries never write."""

    def test_returned_lists_are_copies(self):
        g = figure_graph()
        s, x = g.vertex_id("s"), g.vertex_id("x")
        g.out_neighbors_with_right(s, Right.T).append(x)
        g.in_neighbors_with_right(x, Right.T).clear()
        assert g.out_neighbors_with_right(s, Right.T) == [x]
        assert g.in_neighbors_with_right(x, Right.T) == [s]

    def test_add_edge_after_query(self):
        g = make_graph([("s", "s"), ("a", "o"), ("b", "o")], [("s", "b", "t")])
        assert g.out_neighbors_with_right(0, Right.T) == [2]
        assert g.in_neighbors_with_right(1, Right.T) == []
        g.add_edge(0, 1, {Right.T})
        assert g.out_neighbors_with_right(0, Right.T) == [1, 2]
        assert g.in_neighbors_with_right(1, Right.T) == [0]

    def test_add_vertex_after_query(self):
        g = figure_graph()
        assert g.out_neighbors_with_right(0, Right.T) == [1]
        assert g.in_neighbors_with_right(1, Right.T) == [0]
        y = g.add_vertex("y", VertexKind.OBJECT)
        assert g.out_neighbors_with_right(y, Right.T) == []
        assert g.in_neighbors_with_right(y, Right.T) == []
        g.add_edge(y, 0, {Right.T})
        assert g.out_neighbors_with_right(y, Right.T) == [0]
        assert g.in_neighbors_with_right(0, Right.T) == [y]

    def test_new_rights_on_existing_pairs_union(self):
        g = make_graph([("s", "s"), ("x", "o"), ("y", "o")], [("s", "x", "t"), ("s", "y", "g")])
        assert g.out_neighbors_with_right(0, Right.T) == [1]
        assert g.in_neighbors_with_right(2, Right.T) == []
        g.add_edge(0, 1, {Right.G})
        g.add_edge(0, 2, {Right.T})
        assert g.rights_between(0, 1) == {Right.T, Right.G}
        assert g.rights_between(0, 2) == {Right.T, Right.G}
        assert g.rights_between(1, 0) == frozenset()
        assert g.out_neighbors_with_right(0, Right.T) == [1, 2]
        assert g.out_neighbors_with_right(0, Right.G) == [1, 2]
        assert g.in_neighbors_with_right(2, Right.T) == [0]
        assert g.edge_count == 2

    def test_lists_read_ascending_whatever_the_insertion_order(self):
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o")],
            [("s", "c", "t"), ("c", "a", "t"), ("s", "a", "t"), ("b", "a", "t"), ("s", "b", "t")],
        )
        assert g.out_neighbors_with_right(0, Right.T) == [1, 2, 3]
        assert g.in_neighbors_with_right(1, Right.T) == [0, 2, 3]
        rev = g.reverse()
        assert rev.in_neighbors_with_right(0, Right.T) == [1, 2, 3]
        assert rev.out_neighbors_with_right(1, Right.T) == [0, 2, 3]

    def test_repeated_t_arc_listed_once(self):
        g = make_graph([("s", "s"), ("x", "o")], [("s", "x", "t"), ("s", "x", "tg"), ("s", "x", "r")])
        assert g.out_neighbors_with_right(0, Right.T) == [1]
        assert g.in_neighbors_with_right(1, Right.T) == [0]

    @given(graphs(rights=(Right.T, Right.G)))
    def test_queries_never_write(self, g):
        before = copy.deepcopy(vars(g))
        n = g.vertex_count
        for direction in Direction:
            for s in range(n):
                for f in range(n):
                    if s != f:
                        bridge_exists(g, s, f, direction)
                        bridge_exists_faithful(g, s, f, direction)
                        brute_force_bridge(g, s, f, direction)
            islands = compute_islands(g)
            for a in islands:
                for b in islands:
                    if a.index != b.index:
                        bridges_between_islands(g, a, b, direction)
        for v in range(n):
            g.out_neighbors_with_right(v, Right.T)
            g.in_neighbors_with_right(v, Right.T)
        assert vars(g) == before


class TestReverse:
    def test_reverse_of_empty(self):
        assert new_graph().reverse() == new_graph()

    def test_reverse_figure_arcs(self):
        rev = figure_graph().reverse()
        s, x, f = rev.vertex_id("s"), rev.vertex_id("x"), rev.vertex_id("f")
        assert rev.rights_between(x, s) == {Right.T}
        assert rev.rights_between(f, x) == {Right.T}
        assert rev.rights_between(s, x) == frozenset()

    @given(graphs())
    def test_reverse_is_involution(self, g):
        assert g.reverse().reverse() == g

    @given(graphs())
    def test_reverse_matches_graph_built_from_flipped_edges(self, g):
        fresh = ProtectionGraph()
        for v in range(g.vertex_count):
            fresh.add_vertex(g.vertex_name(v), g.vertex_kind(v))
        for edge in g.edges():
            fresh.add_edge(edge.dst, edge.src, edge.rights)
        rev = g.reverse()
        assert rev.edges() == fresh.edges()
        for v in range(g.vertex_count):
            for right in Right:
                assert rev.out_neighbors_with_right(v, right) == fresh.out_neighbors_with_right(v, right)
                assert rev.in_neighbors_with_right(v, right) == fresh.in_neighbors_with_right(v, right)
        assert rev._t_entered_objects == fresh._t_entered_objects
        assert rev._t_left_objects == fresh._t_left_objects

    def test_reverse_vars_equal_graph_built_reversed(self):
        # Arcs go in shuffled, so the t-lists are out of id order; the
        # reverse must match, list order included, the graph that
        # add_edge builds from the same arcs flipped.
        for seed in range(40):
            spec = RandomGraphSpec(1 + seed % 3, 2 + seed % 6, 0.3, frozenset(Right),
                                   seed=72_000 + seed)
            edges = random_graph(spec).edges()
            random.Random(seed).shuffle(edges)
            g, flipped = ProtectionGraph(), ProtectionGraph()
            for graph in (g, flipped):
                for i in range(spec.n_subjects):
                    graph.add_vertex(f"s{i}", VertexKind.SUBJECT)
                for i in range(spec.n_objects):
                    graph.add_vertex(f"o{i}", VertexKind.OBJECT)
            for edge in edges:
                g.add_edge(edge.src, edge.dst, edge.rights)
                flipped.add_edge(edge.dst, edge.src, edge.rights)
            assert vars(g.reverse()) == vars(flipped)


class TestParse:
    def test_parse_figure(self):
        g = figure_graph()
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.vertex_kind(g.vertex_id("x")) is VertexKind.OBJECT

    def test_parse_header_only(self):
        g = parse_graph("tgg 1\n")
        assert g.vertex_count == 0 and g.edge_count == 0

    def test_parse_comments_and_blanks(self):
        g = parse_graph("tgg 1\n\n# note\n  # indented note\nsubject s\n")
        assert g.vertex_count == 1

    def test_edge_before_declaration(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("tgg 1\nedge a b t\n")
        assert exc.value.line == 2
        assert "unknown vertex" in exc.value.reason

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("subject s\n")
        assert exc.value.line == 1

    def test_bad_keyword(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("tgg 1\nsubject s\nvertex q\n")
        assert exc.value.line == 3

    def test_bad_rights_letter(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("tgg 1\nsubject a\nsubject b\nedge a b tx\n")
        assert exc.value.line == 4

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("tgg 1\nsubject s\nobject s\n")
        assert exc.value.line == 3

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_graph("tgg 1\nsubject s*t\n")

    def test_crlf_parses_like_lf(self):
        text = "tgg 1\n# note\n\nsubject s\nobject x\nsubject f\nedge s x t\nedge x f tg\n"
        assert parse_graph(text.replace("\n", "\r\n")) == parse_graph(text)

    def test_byte_order_mark_rejected_as_bad_header(self):
        with pytest.raises(ParseError, match="expected header 'tgg 1'") as exc:
            parse_graph("\ufeff" + LENGTH2_BRIDGE_TGG)
        assert exc.value.line == 1

    def test_duplicate_rights_letters_ignored(self):
        g = parse_graph("tgg 1\nsubject a\nsubject b\nedge a b ttg\n")
        assert g.rights_between(0, 1) == {Right.T, Right.G}

    def test_repeated_edge_statements_merge(self):
        g = parse_graph("tgg 1\nsubject a\nsubject b\nedge a b t\nedge a b r\n")
        assert g.rights_between(0, 1) == {Right.T, Right.R}
        assert g.edge_count == 1


# Malformed inputs with the exact ParseError line and message the
# parser gave before its edge fast path and rights-word cache.
_HEAD = "tgg 1\nsubject a\nobject b\n"
MALFORMED = [
    ("edge_3_tokens", _HEAD + "edge a b\n", 4, "expected 'edge <from> <to> <rights>'"),
    ("edge_5_tokens", _HEAD + "edge a b t g\n", 4, "expected 'edge <from> <to> <rights>'"),
    ("edge_alone", _HEAD + "edge\n", 4, "expected 'edge <from> <to> <rights>'"),
    ("trailing_comment", _HEAD + "edge a b t # note\n", 4, "expected 'edge <from> <to> <rights>'"),
    ("hash_glued_to_edge", _HEAD + "#edge a b t\nedge a b q\n", 5, "bad right letter 'q'"),
    ("indented_comment", _HEAD + "  # x\nedge a c t\n", 5, "unknown vertex 'c'"),
    ("unknown_keyword", _HEAD + "vertex c\n", 4, "unknown keyword 'vertex'"),
    ("unknown_source_bad_rights", _HEAD + "edge c b tx\n", 4, "unknown vertex 'c'"),
    ("unknown_target_bad_rights", _HEAD + "edge a c qq\n", 4, "unknown vertex 'c'"),
    ("same_bad_word_twice", _HEAD + "edge a b tx\nedge b a tx\n", 4, "bad right letter 'x'"),
    ("bad_word_after_valid_prefix", _HEAD + "edge a b tg\nedge b a tgx\n", 5, "bad right letter 'x'"),
    (
        "bad_word_among_valid_words",
        _HEAD + "edge a b tg\nedge b a gt\nedge a a tgz\nedge b b tg\n",
        6,
        "bad right letter 'z'",
    ),
    ("crlf_bad_rights", (_HEAD + "edge a b t\nedge b a tx\n").replace("\n", "\r\n"), 5,
     "bad right letter 'x'"),
    ("crlf_edge_3_tokens", (_HEAD + "edge a b\n").replace("\n", "\r\n"), 4,
     "expected 'edge <from> <to> <rights>'"),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, line, reason", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_error_line_and_message(self, text, line, reason):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.reason) == (line, reason)
        assert str(exc.value) == f"line {line}: {reason}"

    def test_rights_words_are_not_remembered_across_parses(self):
        bad = _HEAD + "edge a b tg\nedge a b tgx\n"
        for _ in range(2):
            with pytest.raises(ParseError, match="line 5: bad right letter 'x'"):
                parse_graph(bad)
        g = parse_graph(_HEAD + "edge a b tg\nedge b a tg\n")
        assert g.rights_between(0, 1) == g.rights_between(1, 0) == {Right.T, Right.G}

    @given(tgg_documents())
    def test_parse_equals_graph_built_statement_by_statement(self, document):
        text, vertices, edges = document
        g = ProtectionGraph()
        for name, kind in vertices:
            g.add_vertex(name, kind)
        for src, dst, word in edges:
            g.add_edge(g.vertex_id(src), g.vertex_id(dst), [Right(ch) for ch in word])
        assert vars(parse_graph(text)) == vars(g)


class TestSerialize:
    def test_empty(self):
        assert serialize_graph(new_graph()) == "tgg 1\n"

    def test_rights_letter_order(self):
        g = make_graph([("a", "s"), ("b", "s")], [("a", "b", "gt")])
        assert "edge a b tg" in serialize_graph(g)

    def test_edges_sorted_by_endpoints(self):
        g = make_graph(
            [("a", "s"), ("b", "s"), ("c", "s")],
            [("c", "a", "t"), ("a", "c", "t"), ("a", "b", "t")],
        )
        text = serialize_graph(g)
        lines = [ln for ln in text.splitlines() if ln.startswith("edge")]
        assert lines == ["edge a b t", "edge a c t", "edge c a t"]

    def test_figure_round_trip_fixpoint(self):
        once = serialize_graph(figure_graph())
        assert serialize_graph(parse_graph(once)) == once

    @given(graphs())
    def test_parse_serialize_identity(self, g):
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text


class TestEquality:
    def test_kind_matters(self):
        a = make_graph([("v", "s")])
        b = make_graph([("v", "o")])
        assert a != b

    def test_rights_matter(self):
        a = make_graph([("u", "s"), ("v", "s")], [("u", "v", "t")])
        b = make_graph([("u", "s"), ("v", "s")], [("u", "v", "g")])
        assert a != b

    def test_merge_order_irrelevant(self):
        a = make_graph([("u", "s"), ("v", "s")], [("u", "v", "t"), ("u", "v", "g")])
        b = make_graph([("u", "s"), ("v", "s")], [("u", "v", "g"), ("u", "v", "t")])
        assert a == b


# ---- stateful model ----------------------------------------------------
#
# The saturation stop trusts the object counters and the frontier engine
# trusts the t-lists and the predecessor template, all kept up to date on
# insert.  This machine mutates one graph the ways a caller can and, after
# every step, recounts each of them from a model kept beside the graph.

RIGHT_SETS = st.frozensets(st.sampled_from(tuple(Right)), min_size=1)
# A query pair, mapped onto the vertices present by the invariant.
PROBES = st.tuples(st.integers(0, 63), st.integers(0, 63))
MAX_MODEL_VERTICES = 8  # keeps the brute-force oracle cheap


class GraphModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.g = ProtectionGraph()
        self.kinds: list[VertexKind] = []
        self.masks: dict[tuple[int, int], frozenset[Right]] = {}
        self.t_order: list[tuple[int, int]] = []  # pairs in the order t first appeared
        self.probe = (0, 1)

    def _add(self, src, dst, rights, probe):
        self.g.add_edge(src, dst, rights)
        old = self.masks.get((src, dst), frozenset())
        self.masks[src, dst] = old | rights
        if Right.T in rights and Right.T not in old:
            self.t_order.append((src, dst))
        self.probe = probe

    @precondition(lambda self: len(self.kinds) < MAX_MODEL_VERTICES)
    @rule(kind=st.sampled_from(VertexKind), probe=PROBES)
    def add_vertex(self, kind, probe):
        assert self.g.add_vertex(f"v{len(self.kinds)}", kind) == len(self.kinds)
        self.kinds.append(kind)
        self.probe = probe

    @precondition(lambda self: len(self.kinds) >= 2)
    @rule(data=st.data(), rights=RIGHT_SETS, probe=PROBES)
    def add_edge(self, data, rights, probe):
        src, dst = data.draw(st.lists(st.integers(0, len(self.kinds) - 1), min_size=2, max_size=2, unique=True))
        self._add(src, dst, rights, probe)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), rights=RIGHT_SETS, probe=PROBES)
    def add_self_loop(self, data, rights, probe):
        v = data.draw(st.integers(0, len(self.kinds) - 1))
        self._add(v, v, rights, probe)

    @precondition(lambda self: any(Right.G in rs and Right.T not in rs for rs in self.masks.values()))
    @rule(data=st.data(), probe=PROBES)
    def add_t_to_g_arc(self, data, probe):
        g_only = sorted(p for p, rs in self.masks.items() if Right.G in rs and Right.T not in rs)
        self._add(*data.draw(st.sampled_from(g_only)), frozenset({Right.T}), probe)

    @precondition(lambda self: self.masks)
    @rule(data=st.data(), rights=RIGHT_SETS, probe=PROBES)
    def repeat_arc(self, data, rights, probe):
        self._add(*data.draw(st.sampled_from(sorted(self.masks))), rights, probe)

    @invariant()
    def kind_views_match_model(self):
        g, kinds = self.g, self.kinds
        assert [g.vertex_kind(v) for v in range(len(kinds))] == kinds
        assert g.subjects() == [v for v, kind in enumerate(kinds) if kind is VertexKind.SUBJECT]
        assert g.objects() == [v for v, kind in enumerate(kinds) if kind is VertexKind.OBJECT]
        assert g._subject_id == [None if kind is VertexKind.OBJECT else v for v, kind in enumerate(kinds)]

    @invariant()
    def arcs_and_t_lists_match_model(self):
        g, n = self.g, len(self.kinds)
        assert {(edge.src, edge.dst): edge.rights for edge in g.edges()} == self.masks
        assert g._t_succ == [[dst for src, dst in self.t_order if src == v] for v in range(n)]
        assert g._t_pred == [[src for src, dst in self.t_order if dst == v] for v in range(n)]

    @invariant()
    def object_counters_match_recount(self):
        objects = {v for v, kind in enumerate(self.kinds) if kind is VertexKind.OBJECT}
        assert self.g._t_entered_objects == len(objects & {dst for _, dst in self.t_order})
        assert self.g._t_left_objects == len(objects & {src for src, _ in self.t_order})

    @invariant()
    def reverse_and_text_round_trip(self):
        g = self.g
        assert vars(g.reverse().reverse()) == vars(g)
        parsed = parse_graph(serialize_graph(g))
        assert parsed == g

    @invariant()
    def engines_agree_on_probe(self):
        n = len(self.kinds)
        if n < 2:
            return
        s, f = self.probe[0] % n, self.probe[1] % n
        if s == f:
            f = (s + 1) % n
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            fast = bridge_exists(self.g, s, f, direction)
            assert fast == bridge_exists_faithful(self.g, s, f, direction)
            assert fast.exists == (brute_force_bridge(self.g, s, f, direction) is not None)
            if fast.exists:
                validate_path(self.g, fast.path)


GraphModel.TestCase.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
TestGraphModel = GraphModel.TestCase
