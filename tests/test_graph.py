from __future__ import annotations

import copy
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from takegrant import (
    RIGHT_ORDER,
    Direction,
    DuplicateNameError,
    EmptyRightsError,
    InvalidNameError,
    InvalidRightError,
    ParseError,
    ProtectionGraph,
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
    same_island,
    serialize_graph,
    validate_path,
)
from takegrant.bridges import _row_search
from takegrant.graph import _BULK_ROW, _T
from takegrant.oracle import _reversed_out

from helpers import (
    LENGTH2_BRIDGE_TGG,
    flipped,
    graphs,
    make_graph,
    naive_island_partition,
    t_only_projection,
    tgg_documents,
)


def figure_graph():
    return parse_graph(LENGTH2_BRIDGE_TGG)


class _CountingRow(dict):
    """An arc row that counts the two ways ``_insert_row`` writes to it."""

    updates = sets = 0

    def update(self, *args):
        self.updates += 1
        super().update(*args)

    def __setitem__(self, key, value):
        self.sets += 1
        super().__setitem__(key, value)


class _EqualsT:
    """Hashes and compares equal to ``Right.T`` without being a ``Right``."""

    def __hash__(self):
        return hash(Right.T)

    def __eq__(self, other):
        return other is Right.T or other.__class__ is _EqualsT

    def __repr__(self):
        return "EqualsT()"


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
        for empty in (set(), frozenset(), []):
            with pytest.raises(EmptyRightsError):
                g.add_edge(0, 1, empty)
        assert g.edges() == []

    @pytest.mark.parametrize(
        "rights, bad",
        [
            ("t", "'t'"),
            ([Right.T, "g"], "'g'"),
            ([Right.G, 1], "1"),
            ([["t"]], "['t']"),
            # A frozenset other than edges()' own is read item by item,
            (frozenset({Right.T, "g"}), "'g'"),
            # even one equal to edges()' {t}.
            (frozenset({_EqualsT()}), "EqualsT()"),
        ],
    )
    def test_add_edge_rejects_non_right_items(self, rights, bad):
        g = make_graph([("s", "s"), ("x", "o")], [("x", "s", "g")])
        before = serialize_graph(g)
        with pytest.raises(InvalidRightError, match=re.escape(f"{bad} is not a Right")) as caught:
            g.add_edge(0, 1, rights)
        assert isinstance(caught.value, TakeGrantError)
        assert serialize_graph(g) == before
        assert g.rights_between(0, 1) == frozenset()
        assert g.t_successors(0) == []
        assert not bridge_exists(g, 0, 1).exists

    def test_add_edge_frozenset_subclass_read_item_by_item(self):
        class Rights(frozenset):
            iterations = 0

            def __iter__(self):
                Rights.iterations += 1
                return super().__iter__()

        g = make_graph([("s", "s"), ("x", "o")])
        g.add_edge(0, 1, Rights({Right.T, Right.G}))
        assert Rights.iterations == 1  # the loop ran; no mask lookup took it
        assert g.rights_between(0, 1) == {Right.T, Right.G}
        assert g.t_successors(0) == [1]
        with pytest.raises(InvalidRightError, match=re.escape("'g' is not a Right")):
            g.add_edge(1, 0, Rights({Right.T, "g"}))
        assert g.rights_between(1, 0) == frozenset()

    @pytest.mark.parametrize("form", ["fresh frozenset", "canonical frozenset", "set", "list"])
    def test_add_edge_never_hashes_a_right(self, form, monkeypatch):
        # The item loop reads each right by its letter and the mask lookup
        # hashes a frozenset from its stored item hashes, so no call reaches
        # the Python-level Enum.__hash__; only building the container does.
        g = make_graph([("s", "s"), ("x", "o")])
        rights = {
            "fresh frozenset": lambda: frozenset({Right.T, Right.G}),
            "canonical frozenset": lambda: _canonical({Right.T, Right.G}),
            "set": lambda: {Right.T, Right.G},
            "list": lambda: [Right.T, Right.G],
        }[form]()
        calls = []
        enum_hash = Right.__hash__

        def counted(right):
            calls.append(right)
            return enum_hash(right)

        monkeypatch.setattr(Right, "__hash__", counted)
        g.add_edge(0, 1, rights)
        monkeypatch.undo()
        assert calls == []
        assert g.rights_between(0, 1) == {Right.T, Right.G}

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
        assert g.t_successors(Vid(0)) == [1]
        assert g.t_predecessors(Vid(1)) == [0]

    def test_self_loop_allowed(self):
        g = make_graph([("s", "s")], [("s", "s", "t")])
        assert g.rights_between(0, 0) == {Right.T}


def _canonical(rights):
    """The frozenset ``edges()`` hands out for *rights*, the only kind
    ``add_edge`` maps to its mask without reading it."""
    g = ProtectionGraph()
    v = g.add_vertex("v", VertexKind.SUBJECT)
    g.add_edge(v, v, rights)
    return g.rights_between(v, v)


# Every non-empty subset of the four rights, in RIGHT_ORDER.
RIGHT_SUBSETS = [
    frozenset(c) for k in range(1, 5) for c in itertools.combinations(RIGHT_ORDER, k)
]


def _letters(rights) -> str:
    return "".join(r.value for r in RIGHT_ORDER if r in rights)


class TestAddEdgeContainers:
    """``add_edge`` maps the frozensets ``edges()`` hands out to their
    masks in one lookup and reads every other iterable item by item, and
    it writes its arc itself rather than through ``_insert_row``; every
    form of every rights subset must leave the graph ``parse_graph``
    builds through ``_insert_row``."""

    TEXT = (
        "tgg 1\nsubject s\nobject x\nobject y\nsubject u\n"
        "edge y x g\n"  # an arc the subset is merged into
        "edge s x {w}\nedge x y {w}\nedge y u {w}\nedge x x {w}\nedge y x {w}\nedge u s {w}\n"
    )
    ARCS = [(0, 1), (1, 2), (2, 3), (1, 1), (2, 1), (3, 0)]

    @pytest.mark.parametrize("form", ["fresh frozenset", "canonical frozenset", "set", "list"])
    @pytest.mark.parametrize("rights", RIGHT_SUBSETS, ids=_letters)
    def test_every_form_builds_the_parsed_graph(self, rights, form):
        want = parse_graph(self.TEXT.format(w=_letters(rights)))
        canonical = want.edges()[0].rights  # the arc s -> x, as edges() hands it out
        assert canonical == rights
        make = {
            "fresh frozenset": lambda: frozenset(list(rights)),
            "canonical frozenset": lambda: canonical,
            "set": lambda: set(rights),
            "list": lambda: [r for r in RIGHT_ORDER if r in rights],
        }[form]
        g = make_graph([("s", "s"), ("x", "o"), ("y", "o"), ("u", "s")], [("y", "x", "g")])
        for src, dst in self.ARCS:
            g.add_edge(src, dst, make())
        assert vars(g) == vars(want)  # arc store, t-lists, object counters, names
        for src, dst in self.ARCS:
            assert g.rights_between(src, dst) == (rights | {Right.G} if (src, dst) == (2, 1) else rights)
        g.add_edge(0, 1, make())  # a repeat changes nothing
        assert vars(g) == vars(want)


def _forest_partition(g: ProtectionGraph, parent: list[int]) -> list[tuple[int, ...]]:
    """The subjects of *g* grouped by their root in the union-find list
    *parent*, read without changing it, as ``naive_island_partition`` lists them."""
    groups: dict[int, list[int]] = {}
    for v in g.subjects():
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(v)
    return sorted(tuple(members) for members in groups.values())


def _t_arc_total(g: ProtectionGraph) -> int:
    """The t arcs in *g*'s arc store, counted afresh."""
    return sum(mask & 1 for row in g._out for mask in row.values())


def _built_by_add_edge(text: str) -> ProtectionGraph:
    """The graph ``add_edge`` builds from *text*'s statements, in line order."""
    g = ProtectionGraph()
    for line in text.splitlines()[1:]:
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "edge":
            g.add_edge(g.vertex_id(tokens[1]), g.vertex_id(tokens[2]), [Right(ch) for ch in tokens[3]])
        else:
            g.add_vertex(tokens[1], VertexKind(tokens[0]))
    return g


def _row_text(length: int, repeat: bool = False) -> str:
    """A run of *length* edge lines out of a fresh subject s, to objects
    in descending id order with rights cycling through every mask; with
    *repeat*, the run ends by giving o1, whose first word is g, t."""
    words = [_letters(rights) for rights in RIGHT_SUBSETS]
    lines = ["tgg 1", "subject s", *(f"object o{i}" for i in range(length)), "subject u"]
    lines.append("edge u o0 t")  # o0 is entered already
    lines += [f"edge s o{i} {words[i % len(words)]}" for i in reversed(range(length))]
    if repeat:
        lines.append("edge s o1 t")
    return "\n".join(lines) + "\n"


class TestRowWriter:
    """``parse_graph`` hands each run of edge lines out of one source to
    ``_insert_row`` in one call.  Whatever path the writer takes, the
    graph must equal the one ``add_edge`` builds line by line: the arc
    store, the t-lists in the order t first reached each pair, the two
    object counters, and the t-arc count, which must also equal the t
    arcs in the store."""

    SPLIT = (
        "tgg 1\nsubject s\nobject a\nobject b\nobject c\n"
        "edge s c g\nedge s a t\n"
        "edge a s t\n"  # s's edges split by another source's
        "object d\n# s again\n"
        "edge s d t\nedge s c t\nedge s a r\n"
    )
    REPEAT_IN_RUN = "tgg 1\nsubject s\nobject a\nobject b\nedge s a g\nedge s b t\nedge s a t\n"

    def test_source_split_across_the_file(self):
        g = parse_graph(self.SPLIT)
        assert vars(g) == vars(_built_by_add_edge(self.SPLIT))
        assert g._t_arcs == _t_arc_total(g) == 4
        assert g._t_succ[0] == [1, 4, 3]
        assert g.rights_between(0, 1) == {Right.T, Right.R}

    def test_t_arriving_on_a_repeat_inside_one_run(self):
        g = parse_graph(self.REPEAT_IN_RUN)
        assert vars(g) == vars(_built_by_add_edge(self.REPEAT_IN_RUN))
        assert g._t_arcs == _t_arc_total(g) == 2
        assert g._t_succ[0] == [2, 1]  # a gains t after b
        assert g.rights_between(0, 1) == {Right.T, Right.G}
        assert (g._t_left_objects, g._t_entered_objects) == (0, 2)

    @pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeat"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    def test_rows_around_the_bulk_cutoff(self, offset, repeat):
        text = _row_text(_BULK_ROW + offset, repeat)
        g = parse_graph(text)
        want = _built_by_add_edge(text)
        assert vars(g) == vars(want)
        assert g._t_arcs == _t_arc_total(g)
        assert g.edge_count == _BULK_ROW + offset + 1
        assert g._t_succ[0] == want._t_succ[0] != sorted(want._t_succ[0])

    @pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeat"])
    def test_targets_may_come_from_an_iterator(self, repeat):
        # random_graph hands its targets over as a compress iterator.  With
        # repeat, the run ends by giving its second target, a g arc, t.
        n = _BULK_ROW + 1
        dsts = [*range(n, 0, -1), *([n - 1] if repeat else [])]
        masks = bytes(1 + i % 15 for i in range(n)) + (b"\x01" if repeat else b"")
        vertices = [("s", "s"), *((f"o{i}", "o") for i in range(n))]
        g, want = make_graph(vertices), make_graph(vertices)
        g._insert_row(0, iter(dsts), masks)
        for dst, mask in zip(dsts, masks):
            want.add_edge(0, dst, [right for i, right in enumerate(RIGHT_ORDER) if mask >> i & 1])
        assert vars(g) == vars(want)
        assert g._t_arcs == _t_arc_total(g)

    @pytest.mark.parametrize(
        "distinct, repeat, updates, sets",
        [
            (_BULK_ROW, False, 1, 0),
            (_BULK_ROW - 1, False, 0, _BULK_ROW - 1),
            (_BULK_ROW - 1, True, 1, _BULK_ROW),
        ],
        ids=["bulk", "below", "repeat"],
    )
    def test_which_path_a_fresh_row_takes(self, distinct, repeat, updates, sets):
        # A run of _BULK_ROW arcs out of a source with none yet goes in
        # through one dict.update; a shorter run goes in arc by arc; a run
        # that repeats a target is undone and redone arc by arc, so the
        # repeat's mask unions with the first one's.
        dsts = [*range(distinct, 0, -1), *([distinct] if repeat else [])]
        masks = bytes(1 + i % 15 for i in range(len(dsts)))
        vertices = [("s", "s"), *((f"o{i}", "o") for i in range(distinct))]
        g, want = make_graph(vertices), make_graph(vertices)
        row = g._out[0] = _CountingRow()
        g._insert_row(0, dsts, masks)
        assert (row.updates, row.sets) == (updates, sets)
        for dst, mask in zip(dsts, masks):
            want.add_edge(0, dst, [right for i, right in enumerate(RIGHT_ORDER) if mask >> i & 1])
        assert vars(g) == vars(want)
        assert g._t_arcs == _t_arc_total(g)

    def test_a_run_of_only_non_t_arcs(self):
        text = "tgg 1\nobject s\nobject a\n" + "edge s a g\n" * (_BULK_ROW + 1)
        g = parse_graph(text)
        assert vars(g) == vars(_built_by_add_edge(text))
        assert g._t_succ[0] == [] and g._t_left_objects == 0
        assert g._t_arcs == 0

    def test_without_arcs_starts_from_zero(self):
        g = parse_graph(self.SPLIT)
        # Fill both query caches: the bit rows and the island forest.
        _row_search(g, 0, 2, Direction.FORWARD)
        compute_islands(g)
        assert None not in (g._row_cache, g._island_forest)
        empty = g._without_arcs()
        assert (empty._t_arcs, empty._row_cache, empty._island_forest) == (0, None, None)


class TestAdjacency:
    def test_out_neighbors_figure(self):
        g = figure_graph()
        s, x = g.vertex_id("s"), g.vertex_id("x")
        assert g.t_successors(s) == [x]

    def test_out_neighbors_empty(self):
        g = figure_graph()
        assert g.t_successors(g.vertex_id("f")) == []

    def test_out_neighbors_filters_and_sorts(self):
        # s -> a {t}, s -> b {g}, s -> c {t}: only the t targets, id order
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o")],
            [("s", "a", "t"), ("s", "b", "g"), ("s", "c", "t")],
        )
        assert g.t_successors(0) == [1, 3]

    def test_in_neighbors_figure(self):
        g = figure_graph()
        assert g.t_predecessors(g.vertex_id("x")) == [g.vertex_id("s")]

    def test_in_neighbors_isolated(self):
        g = make_graph([("a", "s"), ("b", "s")])
        assert g.t_predecessors(0) == []

    def test_neighbors_unknown_vertex(self):
        g = new_graph()
        with pytest.raises(UnknownVertexError):
            g.t_successors(0)
        with pytest.raises(UnknownVertexError):
            g.t_predecessors(0)

    @pytest.mark.parametrize("query", ["t_successors", "t_predecessors"])
    @pytest.mark.parametrize("bad", [True, False, -1, 2, 1.0, "0"])
    def test_neighbors_reject_bad_ids(self, query, bad):
        # Every id but an in-range int is no vertex: True would name
        # vertex 1, -1 the last vertex, and 2 is vertex_count.
        g = make_graph([("s", "s"), ("x", "o")], [("s", "x", "t"), ("x", "s", "t")])
        with pytest.raises(UnknownVertexError, match="is not in this graph"):
            getattr(g, query)(bad)

    @given(graphs())
    def test_in_neighbors_match_reversed_out(self, g):
        rev = flipped(g)
        for v in range(g.vertex_count):
            assert g.t_predecessors(v) == rev.t_successors(v)

    @given(graphs())
    def test_neighbor_lists_strictly_ascending(self, g):
        for v in range(g.vertex_count):
            for lst in (g.t_successors(v), g.t_predecessors(v)):
                assert lst == sorted(set(lst))


# The graph attributes a query may fill.  Every writer sets each to None,
# so a new query cache must be named here before any test lets it change.
QUERY_CACHES = ("_island_forest", "_row_cache")


class TestTIndex:
    """The take-arc lists are kept up to date by every mutation;
    ``t_successors`` and ``t_predecessors`` hand out only sorted copies
    of them, and queries never write."""

    def test_returned_lists_are_copies(self):
        g = figure_graph()
        s, x = g.vertex_id("s"), g.vertex_id("x")
        g.t_successors(s).append(x)
        g.t_predecessors(x).clear()
        assert g.t_successors(s) == [x]
        assert g.t_predecessors(x) == [s]

    def test_add_edge_after_query(self):
        g = make_graph([("s", "s"), ("a", "o"), ("b", "o")], [("s", "b", "t")])
        assert g.t_successors(0) == [2]
        assert g.t_predecessors(1) == []
        g.add_edge(0, 1, {Right.T})
        assert g.t_successors(0) == [1, 2]
        assert g.t_predecessors(1) == [0]

    def test_add_vertex_after_query(self):
        g = figure_graph()
        assert g.t_successors(0) == [1]
        assert g.t_predecessors(1) == [0]
        y = g.add_vertex("y", VertexKind.OBJECT)
        assert g.t_successors(y) == []
        assert g.t_predecessors(y) == []
        g.add_edge(y, 0, {Right.T})
        assert g.t_successors(y) == [0]
        assert g.t_predecessors(0) == [y]

    def test_new_rights_on_existing_pairs_union(self):
        g = make_graph([("s", "s"), ("x", "o"), ("y", "o")], [("s", "x", "t"), ("s", "y", "g")])
        assert g.t_successors(0) == [1]
        assert g.t_predecessors(2) == []
        g.add_edge(0, 1, {Right.G})
        g.add_edge(0, 2, {Right.T})
        assert g.rights_between(0, 1) == {Right.T, Right.G}
        assert g.rights_between(0, 2) == {Right.T, Right.G}
        assert g.rights_between(1, 0) == frozenset()
        assert g.t_successors(0) == [1, 2]
        assert [w for w in range(3) if Right.G in g.rights_between(0, w)] == [1, 2]
        assert g.t_predecessors(2) == [0]
        assert g.edge_count == 2

    def test_lists_read_ascending_whatever_the_insertion_order(self):
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o")],
            [("s", "c", "t"), ("c", "a", "t"), ("s", "a", "t"), ("b", "a", "t"), ("s", "b", "t")],
        )
        assert g.t_successors(0) == [1, 2, 3]
        assert g.t_predecessors(1) == [0, 2, 3]
        rev = flipped(g)
        assert rev.t_predecessors(0) == [1, 2, 3]
        assert rev.t_successors(1) == [0, 2, 3]

    def test_repeated_t_arc_listed_once(self):
        g = make_graph([("s", "s"), ("x", "o")], [("s", "x", "t"), ("s", "x", "tg"), ("s", "x", "r")])
        assert g.t_successors(0) == [1]
        assert g.t_predecessors(1) == [0]

    @given(graphs(rights=(Right.T, Right.G)))
    def test_queries_never_write(self, g):
        # A query may fill only the attributes QUERY_CACHES names.
        def state():
            return {k: v for k, v in vars(g).items() if k not in QUERY_CACHES}

        before = copy.deepcopy(state())
        n = g.vertex_count
        for direction in Direction:
            for s in range(n):
                for f in range(n):
                    if s != f:
                        bridge_exists(g, s, f, direction)
                        _row_search(g, s, f, direction)
                        bridge_exists_faithful(g, s, f, direction)
                        brute_force_bridge(g, s, f, direction)
            islands = compute_islands(g)
            for a in islands:
                for b in islands:
                    if a.index != b.index:
                        bridges_between_islands(g, a, b, direction)
        for v in range(n):
            g.t_successors(v)
            g.t_predecessors(v)
        forest = g._island_forest
        assert forest is not None
        assert state() == before
        assert _forest_partition(g, forest) == naive_island_partition(g)
        # Every writer clears every query cache, whatever a query left there.
        for write in (
            lambda: g.add_vertex(f"v{n}", VertexKind.OBJECT),
            lambda: g.add_edge(0, n, {Right.R}),
            lambda: g._insert_row(n, [0], bytes([_T])),
        ):
            for name in QUERY_CACHES:
                setattr(g, name, object())
            write()
            assert [getattr(g, name) for name in QUERY_CACHES] == [None] * len(QUERY_CACHES)


class TestReverse:
    """The one arc flip left in the package: ``oracle._reversed_out``,
    the store of flipped take arcs the faithful engine walks for ``t<-*``."""

    def test_reverse_of_empty(self):
        assert _reversed_out(new_graph()) == []

    def test_reverse_figure_arcs(self):
        g = figure_graph()
        s, x, f = g.vertex_id("s"), g.vertex_id("x"), g.vertex_id("f")
        assert _reversed_out(g) == [{}, {s: 1}, {x: 1}]  # x -> s and f -> x, t only
        assert g._out == [{x: 1}, {f: 1}, {}]  # the graph itself is untouched

    @given(graphs())
    def test_reverse_matches_graph_built_from_flipped_edges(self, g):
        # Every take arc, flipped the way add_edge flips it, carrying t
        # alone; an arc without t is not there at all.
        assert _reversed_out(g) == t_only_projection(flipped(g))._out


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
# insert.  This machine mutates one graph the ways a caller and the row
# writer can and, after every step, recounts each of them from a model
# kept beside the graph.

# A non-empty rights set in any of the containers add_edge accepts:
# edges()' own frozenset takes the mask lookup, the others the per-item loop.
RIGHT_SETS = st.tuples(
    st.permutations(RIGHT_ORDER),
    st.integers(1, 4),
    st.sampled_from((_canonical, frozenset, set, list, tuple)),
).map(lambda drawn: drawn[2](drawn[0][: drawn[1]]))
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

    def _record(self, src, dst, rights):
        old = self.masks.get((src, dst), frozenset())
        self.masks[src, dst] = old | rights
        if Right.T in rights and Right.T not in old:
            self.t_order.append((src, dst))

    def _add(self, src, dst, rights, probe):
        self.g.add_edge(src, dst, rights)
        self._record(src, dst, frozenset(rights))
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

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), probe=PROBES)
    def insert_row(self, data, probe):
        # One source's run through the unchecked row writer, as parse_graph
        # and the generators hand it: every vertex once (the bulk path, at
        # _BULK_ROW vertices and a source with no arcs yet) or any targets,
        # repeats included, each with a mask that may lack t.
        n = len(self.kinds)
        src = data.draw(st.integers(0, n - 1))
        any_targets = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * _BULK_ROW)
        dsts = data.draw(st.permutations(range(n)) | any_targets)
        masks = data.draw(st.lists(st.integers(1, 15), min_size=len(dsts), max_size=len(dsts)))
        # A list, as parse_graph passes, or a one-pass iterator, as random_graph does.
        self.g._insert_row(src, data.draw(st.sampled_from((list, iter)))(dsts), bytes(masks))
        for dst, mask in zip(dsts, masks):
            self._record(src, dst, frozenset(r for i, r in enumerate(RIGHT_ORDER) if mask >> i & 1))
        self.probe = probe

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
    def counters_match_recount(self):
        objects = {v for v, kind in enumerate(self.kinds) if kind is VertexKind.OBJECT}
        assert self.g._t_entered_objects == len(objects & {dst for _, dst in self.t_order})
        assert self.g._t_left_objects == len(objects & {src for src, _ in self.t_order})
        assert self.g._t_arcs == len(self.t_order) == _t_arc_total(self.g)

    @invariant()
    def islands_match_model(self):
        # The model's partition: subjects joined by a t or g arc either
        # way, flood-filled.  Every writer step comes after this query
        # filled the graph's island forest, so a writer that left it
        # standing would answer from the arcs before its write.
        subjects = [v for v, kind in enumerate(self.kinds) if kind is VertexKind.SUBJECT]
        linked: dict[int, set[int]] = {v: set() for v in subjects}
        for (src, dst), rights in self.masks.items():
            if src in linked and dst in linked and rights & {Right.T, Right.G}:
                linked[src].add(dst)
                linked[dst].add(src)
        island_of: dict[int, int] = {}
        for v in subjects:
            if v not in island_of:
                island_of[v] = v
                stack = [v]
                while stack:
                    for w in linked[stack.pop()]:
                        if w not in island_of:
                            island_of[w] = v
                            stack.append(w)
        expected = [tuple(v for v in subjects if island_of[v] == first) for first in subjects if island_of[first] == first]
        assert [island.members for island in compute_islands(self.g)] == expected
        for u in subjects:
            for v in subjects:
                assert same_island(self.g, u, v) == (island_of[u] == island_of[v])

    @invariant()
    def text_round_trip(self):
        assert parse_graph(serialize_graph(self.g)) == self.g

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
            # The bit-row pass builds its rows afresh after any write: every
            # writer clears the row cache an earlier step's probe filled.
            assert _row_search(self.g, s, f, direction) == fast
            assert fast.exists == (brute_force_bridge(self.g, s, f, direction) is not None)
            if fast.exists:
                validate_path(self.g, fast.path)


GraphModel.TestCase.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
TestGraphModel = GraphModel.TestCase
