from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import takegrant
from takegrant import (
    RIGHT_ORDER,
    Direction,
    EmptySpecError,
    InvalidNameError,
    InvalidRightError,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    TooLargeError,
    VertexKind,
    bridge_exists,
    brute_force_bridge,
    enumerate_t_arc_graphs,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_path,
)
from takegrant.oracle import _t_arc_graphs

from helpers import LENGTH2_BRIDGE_TGG, SplitMix64, make_graph

SRC = str(Path(takegrant.__file__).resolve().parents[1])

SWEEP_VERTICES = [
    ("s", VertexKind.SUBJECT),
    ("f", VertexKind.SUBJECT),
    ("o0", VertexKind.OBJECT),
]


def uncut_simple_path_witness(g, s, f, direction):
    """The shortest, then smallest, simple s ~> f take path over the
    traversal set, trying every length up to the set's size minus one."""
    allowed = set(g.objects()) | {s, f}
    succ = {v: [] for v in allowed}
    for edge in g.edges():
        if Right.T in edge.rights and edge.src in allowed and edge.dst in allowed:
            a, b = (edge.src, edge.dst) if direction is Direction.FORWARD else (edge.dst, edge.src)
            succ[a].append(b)

    def walk(path, remaining):
        v = path[-1]
        if remaining == 0:
            return tuple(path) if v == f else None
        if v == f:
            return None
        for w in sorted(succ[v]):
            if w not in path:
                hit = walk(path + [w], remaining - 1)
                if hit is not None:
                    return hit
        return None

    for length in range(1, len(allowed)):
        hit = walk([s], length)
        if hit is not None:
            return hit
    return None


class TestBruteForce:
    def test_length2_witness(self):
        g = parse_graph(LENGTH2_BRIDGE_TGG)
        path = brute_force_bridge(g, 0, 2)
        assert path.vertices == (0, 1, 2)
        validate_path(g, path)

    def test_edgeless_absent(self):
        g = make_graph([("s", "s"), ("f", "s")])
        assert brute_force_bridge(g, 0, 1) is None

    def test_complete_digraph_prefers_direct_arc(self):
        names = [("s", "s"), ("o1", "o"), ("o2", "o"), ("f", "s")]
        arcs = [
            (a, b, "t")
            for a, _ in names
            for b, _ in names
            if a != b
        ]
        g = make_graph(names, arcs)
        path = brute_force_bridge(g, 0, 3)
        assert path.vertices == (0, 3)

    def test_shortest_witness_beats_low_ids(self):
        # A longer path through low-id objects must lose to the short one.
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("c", "o"), ("f", "s")],
            [("s", "a", "t"), ("a", "b", "t"), ("b", "f", "t"), ("s", "c", "t"), ("c", "f", "t")],
        )
        assert brute_force_bridge(g, 0, 4).vertices == (0, 3, 4)

    def test_lexicographic_among_equal_lengths(self):
        g = make_graph(
            [("s", "s"), ("a", "o"), ("b", "o"), ("f", "s")],
            [("s", "b", "t"), ("b", "f", "t"), ("s", "a", "t"), ("a", "f", "t")],
        )
        assert brute_force_bridge(g, 0, 3).vertices == (0, 1, 3)

    def test_backward_uses_reversed_arcs(self):
        g = make_graph(
            [("s", "s"), ("x", "o"), ("f", "s")],
            [("x", "s", "t"), ("f", "x", "t")],
        )
        assert brute_force_bridge(g, 0, 2, Direction.BACKWARD).vertices == (0, 1, 2)
        assert brute_force_bridge(g, 0, 2, Direction.FORWARD) is None

    def test_never_routes_through_subjects(self):
        g = make_graph(
            [("s", "s"), ("u", "s"), ("f", "s")],
            [("s", "u", "t"), ("u", "f", "t")],
        )
        assert brute_force_bridge(g, 0, 2) is None

    def test_miss_on_a_two_way_chain_stays_quadratic(self):
        # s and n objects in a row, every arc both ways, f cut off: one
        # simple path per length, but about 2**L walks of L arcs.  A
        # shortest walk is always simple, so dropping the simplicity test
        # would change no answer, only the work; the budget on the
        # oracle's executed lines is what sees it.
        n = 40
        order = ["s"] + [f"x{i}" for i in range(n)]
        g = make_graph(
            [("s", "s"), ("f", "s")] + [(name, "o") for name in order[1:]],
            [(a, b, "t") for a, b in zip(order, order[1:])]
            + [(b, a, "t") for a, b in zip(order, order[1:])],
        )
        budget = 50 * n * n
        lines = 0
        oracle_file = brute_force_bridge.__code__.co_filename

        class OverBudget(Exception):
            pass

        def count(frame, event, arg):
            nonlocal lines
            lines += 1
            if lines > budget:
                raise OverBudget
            return count

        def calls(frame, event, arg):
            return count if frame.f_code.co_filename == oracle_file else None

        outer = sys.gettrace()
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            lines = 0
            sys.settrace(calls)
            try:
                witness = brute_force_bridge(g, 0, 1, direction)
            finally:
                sys.settrace(outer)
            assert witness is None

    def test_miss_past_a_complete_digraph_settles_at_once(self):
        # s feeds, and is fed by, 12 objects joined both ways by take arcs,
        # and nothing reaches f.  Enumerating the simple paths from s would
        # run for about an hour (8 objects take 0.4 s, and each one more
        # about nine times as long); a flood fill settles the miss at once.
        # A child process turns a regression into a timeout, not a hang.
        child = (
            "from takegrant import Direction, ProtectionGraph, Right, VertexKind, brute_force_bridge\n"
            "g = ProtectionGraph()\n"
            "s = g.add_vertex('s', VertexKind.SUBJECT)\n"
            "f = g.add_vertex('f', VertexKind.SUBJECT)\n"
            "ring = [s] + [g.add_vertex(f'o{i}', VertexKind.OBJECT) for i in range(12)]\n"
            "for a in ring:\n"
            "    for b in ring:\n"
            "        if a != b:\n"
            "            g.add_edge(a, b, {Right.T})\n"
            "print([brute_force_bridge(g, s, f, d) for d in Direction])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[None, None]\n", "")

    def test_depth_cutoff_keeps_every_witness(self):
        # Small dense graphs give hits at every length; the large sparse
        # ones give misses over traversal sets of up to 42 vertices.
        rng = random.Random(4711)
        misses = 0
        for i in range(1000):
            if i % 4 == 0:
                n_objects = rng.randrange(20, 41)
                p = rng.uniform(0.2, 0.9) / (n_objects + 2)
            else:
                n_objects = rng.randrange(0, 10)
                p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6])
            g = random_graph(RandomGraphSpec(rng.randrange(2, 5), n_objects, p, frozenset(Right), i))
            for direction in (Direction.FORWARD, Direction.BACKWARD):
                witness = brute_force_bridge(g, 0, 1, direction)
                expected = uncut_simple_path_witness(g, 0, 1, direction)
                assert (None if witness is None else witness.vertices) == expected, (i, direction)
                misses += expected is None and n_objects >= 20
        assert misses >= 300


class TestEnumeration:
    def test_two_vertices_give_four_graphs(self):
        graphs = list(enumerate_t_arc_graphs(SWEEP_VERTICES[:2]))
        assert len(graphs) == 4
        assert graphs[0].edge_count == 0
        assert {g.edge_count for g in graphs} == {0, 1, 1, 2}

    def test_binary_counter_order(self):
        graphs = list(enumerate_t_arc_graphs(SWEEP_VERTICES[:2]))
        # pair list is [(0, 1), (1, 0)]: bit 0 first
        assert graphs[1].rights_between(0, 1) == {Right.T}
        assert graphs[1].rights_between(1, 0) == frozenset()
        assert graphs[2].rights_between(1, 0) == {Right.T}

    def test_three_vertices_count(self):
        assert sum(1 for _ in enumerate_t_arc_graphs(SWEEP_VERTICES)) == 64

    def test_no_pairs_give_one_graph_without_arcs(self):
        assert [vars(g) for g in enumerate_t_arc_graphs([])] == [vars(ProtectionGraph())]
        (g,) = enumerate_t_arc_graphs(SWEEP_VERTICES[:1])
        assert (g.vertex_count, g.edge_count) == (1, 0)

    def test_refuses_too_many_vertices(self):
        six = [(f"v{i}", VertexKind.OBJECT) for i in range(6)]
        with pytest.raises(TooLargeError):
            enumerate_t_arc_graphs(six)

    def test_emitted_graphs_round_trip(self):
        for g in enumerate_t_arc_graphs(SWEEP_VERTICES):
            assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize("n", [3, 4])
    def test_same_graphs_in_order_as_add_edge_builds(self, n):
        vertices = [("s", VertexKind.SUBJECT), ("f", VertexKind.SUBJECT)] + [
            (f"o{i}", VertexKind.OBJECT) for i in range(n - 2)
        ]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        count = 0
        for code, g in enumerate(enumerate_t_arc_graphs(vertices)):
            expected = ProtectionGraph()
            for name, kind in vertices:
                expected.add_vertex(name, kind)
            for bit, (a, b) in enumerate(pairs):
                if code >> bit & 1:
                    expected.add_edge(a, b, [Right.T])
            assert vars(g) == vars(expected)
            count += 1
        assert count == 1 << len(pairs)

    def test_graphs_are_independent_of_each_other(self):
        first, second = list(enumerate_t_arc_graphs(SWEEP_VERTICES))[:2]
        first.add_edge(1, 2, [Right.G])
        first.add_vertex("extra", VertexKind.OBJECT)
        assert second.vertex_count == 3
        assert second.rights_between(1, 2) == frozenset()

    def test_ranges_split_the_sequence(self):
        # The exhaustive sweep is split into numbered ranges of this order.
        whole = [vars(g) for g in enumerate_t_arc_graphs(SWEEP_VERTICES)]
        parts = [_t_arc_graphs(SWEEP_VERTICES, a, b) for a, b in ((0, 23), (23, 23), (23, 64))]
        assert [vars(g) for part in parts for g in part] == whole

    def test_bad_name_raises_on_first_next(self):
        graphs = enumerate_t_arc_graphs([("s", VertexKind.SUBJECT), ("bad name", VertexKind.OBJECT)])
        with pytest.raises(InvalidNameError):
            next(graphs)

    def test_exhaustive_sweep_agrees_with_search(self):
        for g in enumerate_t_arc_graphs(SWEEP_VERTICES):
            for direction in (Direction.FORWARD, Direction.BACKWARD):
                witness = brute_force_bridge(g, 0, 1, direction)
                found = bridge_exists(g, 0, 1, direction).path
                assert (witness and witness.length) == (found and found.length)


class TestRandomGraph:
    def test_zero_probability_is_edgeless(self):
        g = random_graph(RandomGraphSpec(2, 3, 0.0, seed=9))
        assert g.edge_count == 0

    def test_unit_probability_is_complete(self):
        g = random_graph(RandomGraphSpec(1, 2, 1.0, frozenset({Right.T}), seed=9))
        assert g.edge_count == 6
        for edge in g.edges():
            assert edge.rights == {Right.T}

    def test_vertex_naming_and_kinds(self):
        g = random_graph(RandomGraphSpec(2, 1, 0.5, seed=3))
        assert [g.vertex_name(v) for v in range(3)] == ["s0", "s1", "o0"]
        assert g.vertex_kind(0) is VertexKind.SUBJECT
        assert g.vertex_kind(2) is VertexKind.OBJECT

    def test_same_spec_same_bytes(self):
        spec = RandomGraphSpec(3, 4, 0.4, frozenset({Right.T, Right.G}), seed=77)
        assert serialize_graph(random_graph(spec)) == serialize_graph(random_graph(spec))

    def test_rights_pool_respected(self):
        g = random_graph(RandomGraphSpec(2, 2, 1.0, frozenset({Right.G, Right.W}), seed=5))
        for edge in g.edges():
            assert edge.rights == {Right.G, Right.W}

    def test_empty_spec_rejected(self):
        with pytest.raises(EmptySpecError):
            random_graph(RandomGraphSpec(0, 0, 0.5))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_graph(RandomGraphSpec(1, 1, 1.5))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_graph(RandomGraphSpec(-1, 2, 0.5))

    def test_no_self_loops_generated(self):
        g = random_graph(RandomGraphSpec(2, 2, 1.0, seed=1))
        for edge in g.edges():
            assert edge.src != edge.dst

    @pytest.mark.parametrize(
        "pool, bad",
        [(frozenset({"t"}), "'t'"), (frozenset({Right.T, "g"}), "'g'")],
        ids=["letter", "mixed"],
    )
    def test_pool_item_that_is_not_a_right_rejected(self, pool, bad):
        with pytest.raises(InvalidRightError, match=bad):
            random_graph(RandomGraphSpec(2, 3, 1.0, pool, 1))

    def test_empty_pool_gives_no_arcs(self):
        g = random_graph(RandomGraphSpec(2, 3, 1.0, frozenset(), 1))
        assert g.vertex_count == 5
        assert g.edge_count == 0


# sha256 of serialize_graph(random_graph(spec)), recorded from the
# add_edge/next_unit implementation; the stream must never change.
GOLDEN_STREAMS = [
    (RandomGraphSpec(3, 4, 0.0, frozenset({Right.T}), 1),
     "05517ff14c77ddd455682c500a433940c17239af8ccbede226a230ba97b94b67"),
    (RandomGraphSpec(2, 5, 2.0**-53, frozenset(Right), 2),
     "ec928ceff1d22c9e03cc04287f9d22c318c7621616e522ca318c69b544344be5"),
    (RandomGraphSpec(4, 6, 0.3, frozenset({Right.T}), 77),
     "145eb72e71b1135da7cf2ad7fb5465b11c37e72b67969062240134ced16146ba"),
    (RandomGraphSpec(3, 5, 0.3, frozenset({Right.T, Right.G}), -12345),
     "867b17aa956f14bf6db14ed8015037bb4370ca7f42876737ce636d91564c3547"),
    (RandomGraphSpec(5, 3, 0.3, frozenset({Right.G, Right.W}), 2**64 + 99),
     "2eb5ec02b38b388b4b6761f78cf322f65fb92d423897469e209b93cb673cd4f8"),
    (RandomGraphSpec(0, 7, 0.3, frozenset(Right), 5),
     "dcd6fd1db70cca71bed88fbdf91f1a6d732588b5c84a0033806204e2b31a3b7f"),
    (RandomGraphSpec(6, 0, 0.3, frozenset({Right.T, Right.G}), 6),
     "97e0e3b65678ca80c0e36ac30afab4c5a5a40374a2e51969eb272c43d6ed19e0"),
    (RandomGraphSpec(2, 3, 1 - 2.0**-53, frozenset(Right), 8),
     "8cafddf9813ea1fcfb89052c008de0e4fcf6ddbcf7ff315521dc4375e25381d7"),
    (RandomGraphSpec(2, 2, 1.0, frozenset(Right), 9),
     "195dc3f9813e576f5203a2ee130c458afbc6cb7292afa73098da6f582b3c1211"),
    (RandomGraphSpec(10, 30, 0.1, frozenset(Right), 424242),
     "fbd1fa8db831560ffb94f38320910a9caaaf9b0ef69fee612ae1872ea822ac9f"),
    (RandomGraphSpec(1, 300, 0.2, frozenset({Right.T}), 31337),
     "17e6a75cedbfe0335aef2223126298fb6122c2a43721953a91e4a5c73ef2d6ba"),
    # Rows of 1,196 draws: every row spans two or three blocks.
    (RandomGraphSpec(3, 297, 0.01, frozenset(Right), -7),
     "db7377c898a9f13db8c3e11c691a30c871e022a6718122798c9b265b937244ad"),
]


def stream_digest(spec: RandomGraphSpec) -> str:
    return hashlib.sha256(serialize_graph(random_graph(spec)).encode()).hexdigest()


def reference_random_graph(spec: RandomGraphSpec) -> ProtectionGraph:
    """random_graph as first written: one next_unit() per candidate, add_edge per arc."""
    g = ProtectionGraph()
    for i in range(spec.n_subjects):
        g.add_vertex(f"s{i}", VertexKind.SUBJECT)
    for i in range(spec.n_objects):
        g.add_vertex(f"o{i}", VertexKind.OBJECT)
    pool = [r for r in RIGHT_ORDER if r in spec.rights_pool]
    rng = SplitMix64(spec.seed)
    total = spec.n_subjects + spec.n_objects
    for src in range(total):
        for dst in range(total):
            if src == dst:
                continue
            rights = [r for r in pool if rng.next_unit() < spec.arc_probability]
            if rights:
                g.add_edge(src, dst, rights)
    return g


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _unxorshift(y: int, k: int) -> int:
    """Invert y = x ^ (x >> k) over 64 bits."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def seed_whose_first_draw_is(z: int) -> int:
    """A seed whose SplitMix64 stream starts with *z*: the mixer is a bijection."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 30)
    return (z - _GAMMA) & _MASK64


@st.composite
def draws_and_probabilities(draw):
    """A u64 draw and a p in [0, 1], often on or next to a 2**-53 boundary."""
    if draw(st.booleans()):
        p = draw(st.floats(0.0, 1.0))
    else:
        p = draw(st.integers(0, 1 << 53)) * 2.0**-53
        p = min(max(draw(st.sampled_from([p, math.nextafter(p, 0.0), math.nextafter(p, 2.0)])), 0.0), 1.0)
    if draw(st.booleans()):
        z = draw(st.integers(0, _MASK64))
    else:
        limit = math.ceil(p * 2.0**53) << 11
        z = limit + draw(st.sampled_from([-2049, -2048, -1, 0, 1, 2047, 2048]))
        z = min(max(z, 0), _MASK64)
    return z, p


class TestStreams:
    @pytest.mark.parametrize("spec, digest", GOLDEN_STREAMS)
    def test_golden_digest(self, spec, digest):
        assert stream_digest(spec) == digest

    def test_matches_reference_on_seeded_specs(self):
        rng = random.Random(8080)
        probabilities = [0.0, 2.0**-53, 0.05, 0.3, 0.5, 1 - 2.0**-53, 1.0]
        for i in range(320):
            pool = frozenset(r for r in Right if rng.random() < 0.6)
            spec = RandomGraphSpec(
                rng.randrange(0, 6),
                rng.randrange(1, 8),
                probabilities[i % len(probabilities)] if i % 2 else rng.random(),
                pool,
                rng.randrange(-(2**65), 2**65),
            )
            assert vars(random_graph(spec)) == vars(reference_random_graph(spec)), spec

    @pytest.mark.parametrize(
        "n_subjects, n_objects, pool, draws",
        [
            (5, 12, frozenset(Right), 1088),
            (3, 30, frozenset({Right.T}), 1056),
            (6, 24, frozenset(Right), 3480),
        ],
        ids=["17x4-rights", "33x-t", "four-blocks"],
    )
    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.004, 0.3, 1 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("seed", [-(2**64) - 3, 0, 2**64 + 99])
    def test_draws_across_blocks_match_reference(self, n_subjects, n_objects, pool, draws, p, seed):
        total = n_subjects + n_objects
        assert total * (total - 1) * len(pool) == draws  # past 1,024 draws
        spec = RandomGraphSpec(n_subjects, n_objects, p, pool, seed)
        assert vars(random_graph(spec)) == vars(reference_random_graph(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            RandomGraphSpec(3, 254, 0.01, frozenset(Right), 11),
            RandomGraphSpec(2, 298, 0.01, frozenset(Right), -5),
            RandomGraphSpec(2, 127, 0.01, frozenset(Right), 2**64 + 1),
            RandomGraphSpec(4, 96, 0.02, frozenset({Right.T, Right.G, Right.W}), 7),
            RandomGraphSpec(4, 96, 0.0, frozenset({Right.T, Right.G, Right.W}), 7),
            RandomGraphSpec(4, 96, 1.0, frozenset({Right.T, Right.G, Right.W}), 7),
        ],
        ids=["row-is-a-block", "row-spans-blocks", "two-rows-a-block",
             "3-rights-straddle", "3-rights-straddle-p0", "3-rights-straddle-p1"],
    )
    def test_rows_on_and_off_block_edges_match_reference(self, spec):
        # Rows of (vertices - 1) * rights draws: exactly 1,024, then 1,196,
        # then 512; 3-right rows of 297 draws split rows and pairs at block edges.
        assert vars(random_graph(spec)) == vars(reference_random_graph(spec))

    def test_decisions_never_buffered_for_the_whole_stream(self):
        # 2,247,000 draws, one decision byte each, and no arc to keep.
        spec = RandomGraphSpec(1, 1499, 0.0, frozenset({Right.T}), 3)
        tracemalloc.start()
        try:
            random_graph(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1500 * 1499

    @pytest.mark.parametrize("index", [0, 1, 2, 1022, 1023, 1024, 1025, 2047, 2048, 2161])
    @pytest.mark.parametrize("k", [1, 3, (1 << 53) - 1])
    def test_every_draw_position_decides_at_the_limit(self, index, k):
        # Draw number *index* alone decides one t arc; it sits just below,
        # at, or just above limit = k << 11, the compare's edge.
        p = k * 2.0**-53
        limit = k << 11
        pairs = [(a, b) for a in range(47) for b in range(47) if a != b]
        src, dst = pairs[index]
        for z in (limit - 1, limit, limit + 1):
            seed = seed_whose_first_draw_is(z) - index * _GAMMA
            g = random_graph(RandomGraphSpec(1, 46, p, frozenset({Right.T}), seed))
            assert (g.rights_between(src, dst) == {Right.T}) == (z < limit), (index, z)

    @given(draws_and_probabilities())
    @settings(max_examples=400)
    @example((0, 0.0))
    @example((2047, 2.0**-53))
    @example((2048, 2.0**-53))
    @example((_MASK64, 1.0))
    @example((_MASK64, 1 - 2.0**-53))
    @example(((1 << 64) - 4096, 1 - 2.0**-53))
    @example((3 << 11, 3.5 * 2.0**-53))
    @example(((3 << 11) - 1, 3 * 2.0**-53))
    @example((3 << 11, 3 * 2.0**-53))
    def test_integer_compare_is_next_unit_compare(self, case):
        # The first draw alone decides the arc s0 -> o0 of a t-only pair graph.
        z, p = case
        seed = seed_whose_first_draw_is(z)
        assert SplitMix64(seed).next_u64() == z
        g = random_graph(RandomGraphSpec(1, 1, p, frozenset({Right.T}), seed))
        assert (g.rights_between(0, 1) == {Right.T}) == ((z >> 11) * 2.0**-53 < p)


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_unit_draws_in_range(self):
        rng = SplitMix64(123)
        for _ in range(1000):
            x = rng.next_unit()
            assert 0.0 <= x < 1.0

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    @pytest.mark.parametrize("seed", [-(2**63) - 5, -1, 0, 2**64 + 12345, 2**70 + 1])
    def test_stream_matches_scalar_formula(self, seed):
        rng = SplitMix64(seed)
        state = seed & _MASK64
        for _ in range(5000):
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            assert rng.next_u64() == z ^ (z >> 31)


if __name__ == "__main__":
    # After a deliberate change of stream (there should be none), print
    # each GOLDEN_STREAMS digest: PYTHONPATH=src python tests/test_oracle.py
    for spec, _ in GOLDEN_STREAMS:
        print(f"{spec!r}\n    {stream_digest(spec)}")
