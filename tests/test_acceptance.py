"""Acceptance suite.

One test per shipping criterion; each prints an ``acceptance N: PASS``
line (run with ``pytest -s`` to see them).  The two heavyweight sweeps
are session fixtures so several criteria can read one computation.
Beside the wall-clock gates, the ``*_arcs_*`` tests check each engine's
cost by counting the arcs it examines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from takegrant import (
    Direction,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    VertexId,
    VertexKind,
    bridge_exists,
    bridge_exists_faithful,
    bridges_between_islands,
    brute_force_bridge,
    compute_islands,
    enumerate_t_arc_graphs,
    find_bridge_path,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_path,
)
from takegrant.bridges import _row_search

from helpers import (
    LENGTH2_BRIDGE_TGG,
    _traversal_set,
    chain_graph,
    copy_without_arc,
    flipped,
    list_loop_report,
    make_graph,
    naive_island_partition,
    smallest_shortest_witnesses,
    t_only_projection,
)

BOTH = (Direction.FORWARD, Direction.BACKWARD)


def _report_line(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@dataclass
class SweepStats:
    trials: int = 0
    forward_agree: int = 0
    backward_agree: int = 0
    faithful_mismatches: int = 0
    row_mismatches: int = 0
    duality_mismatches: int = 0
    bound_violations: int = 0
    elapsed: float = 0.0


def _audit_graph(g: ProtectionGraph, s: int, f: int, stats: SweepStats) -> None:
    """Run every cross-check for one (graph, endpoints) case."""
    stats.trials += 1
    reversed_g = flipped(g)
    bound = len(_traversal_set(g, s, f)) + 1
    references = smallest_shortest_witnesses(g, s, f)
    for direction in BOTH:
        fast = bridge_exists(g, s, f, direction)
        slow = bridge_exists_faithful(g, s, f, direction)
        witness = brute_force_bridge(g, s, f, direction)
        if fast != slow:
            stats.faithful_mismatches += 1
        # These graphs are too sparse for bridge_exists to pick bit rows,
        # so the bit-row pass is run directly and held to its report.
        if _row_search(g, s, f, direction) != fast:
            stats.row_mismatches += 1
        if fast.passes > bound or slow.passes > bound:
            stats.bound_violations += 1
        # Both return a shortest path: the same length, or both none.  The
        # oracle's is the smallest id sequence among them, which the engine
        # need not be, so it is held to the test-side reference instead.
        agrees = (witness and witness.length) == (fast.path and fast.path.length) and (
            witness and witness.vertices
        ) == references[direction]
        if direction is Direction.FORWARD:
            stats.forward_agree += agrees
        else:
            stats.backward_agree += agrees
            mirrored = bridge_exists(reversed_g, s, f, Direction.FORWARD)
            if (
                fast.exists != mirrored.exists
                or fast.passes != mirrored.passes
                or fast.frontier_trace != mirrored.frontier_trace
            ):
                stats.duality_mismatches += 1


EXHAUSTIVE_SWEEP_VERTICES = [
    ("s", VertexKind.SUBJECT),
    ("f", VertexKind.SUBJECT),
    ("o0", VertexKind.OBJECT),
    ("o1", VertexKind.OBJECT),
]


@pytest.fixture(scope="session")
def exhaustive_sweep() -> SweepStats:
    """Every t-arc pattern over s, f and two objects: 4096 graphs."""
    stats = SweepStats()
    start = time.perf_counter()
    for g in enumerate_t_arc_graphs(EXHAUSTIVE_SWEEP_VERTICES):
        _audit_graph(g, 0, 1, stats)
    stats.elapsed = time.perf_counter() - start
    return stats


RANDOM_SWEEP_SIZES = range(3, 13)
RANDOM_SWEEP_PROBABILITIES = (0.1, 0.3, 0.5)
RANDOM_SWEEP_TRIALS_PER_COMBO = 334  # 10 sizes x 3 densities x 334 = 10,020
RANDOM_SWEEP_SEED_BASE = 20_000


def _random_sweep_graphs():
    seed = RANDOM_SWEEP_SEED_BASE
    for n in RANDOM_SWEEP_SIZES:
        for p in RANDOM_SWEEP_PROBABILITIES:
            for _ in range(RANDOM_SWEEP_TRIALS_PER_COMBO):
                seed += 1
                yield random_graph(RandomGraphSpec(2, n - 2, p, frozenset({Right.T}), seed))


@pytest.fixture(scope="session")
def random_sweep() -> SweepStats:
    """10,020 seeded random graphs between 3 and 12 vertices."""
    stats = SweepStats()
    start = time.perf_counter()
    for g in _random_sweep_graphs():
        _audit_graph(g, 0, 1, stats)
    stats.elapsed = time.perf_counter() - start
    return stats


def _object_endpoint_pairs(g: ProtectionGraph) -> dict[str, tuple[int, int]]:
    """Endpoints of every other kind pairing: subjects are 0 and 1, then
    objects 2, 3, ...; (object, object) needs two objects."""
    last = g.vertex_count - 1
    pairs = {"subject->object": (0, last), "object->subject": (2, 1)}
    if last > 2:
        pairs["object->object"] = (2, last)
    return pairs


def _endpoint_sweep(graphs) -> dict[str, SweepStats]:
    stats: dict[str, SweepStats] = {}
    for g in graphs:
        for kinds, (s, f) in _object_endpoint_pairs(g).items():
            _audit_graph(g, s, f, stats.setdefault(kinds, SweepStats()))
    return stats


@pytest.fixture(scope="session")
def object_endpoint_sweeps() -> dict[str, dict[str, SweepStats]]:
    """The exhaustive and random sweeps' graphs, queried between the other
    endpoint kinds: (subject, object), (object, subject), (object, object)."""
    return {
        "exhaustive": _endpoint_sweep(enumerate_t_arc_graphs(EXHAUSTIVE_SWEEP_VERTICES)),
        "random": _endpoint_sweep(_random_sweep_graphs()),
    }


def test_criterion_1_length2_walkthrough():
    g = parse_graph(LENGTH2_BRIDGE_TGG)
    s, f = g.vertex_id("s"), g.vertex_id("f")
    report = bridge_exists(g, s, f)
    names = tuple(g.vertex_name(v) for v in report.path.vertices)
    best = min(
        _timed(lambda: bridge_exists(g, s, f))
        for _ in range(5)
    )
    ok = (
        report.exists
        and names == ("s", "x", "f")
        and report.path.length == 2
        and report.passes == 2
        and report.frontier_trace == ((1, (1,)), (2, (2,)))
        and best < 1e-3
    )
    _report_line(1, ok, f"path {'->'.join(names)}, passes {report.passes}, query {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_exhaustive_oracle_equivalence(exhaustive_sweep):
    st = exhaustive_sweep
    ok = (
        st.trials == 4096
        and st.forward_agree == 4096
        and st.backward_agree == 4096
        and st.faithful_mismatches == 0
        and st.row_mismatches == 0
        and st.elapsed < 10.0
    )
    _report_line(
        2,
        ok,
        f"forward {st.forward_agree}/4096, backward {st.backward_agree}/4096, "
        f"bit-row mismatches {st.row_mismatches}, {st.elapsed:.2f} s",
    )


def test_criterion_3_randomized_oracle_equivalence(random_sweep):
    st = random_sweep
    ok = (
        st.trials >= 10_000
        and st.forward_agree == st.trials
        and st.backward_agree == st.trials
        and st.faithful_mismatches == 0
        and st.row_mismatches == 0
        and st.elapsed < 60.0
    )
    _report_line(
        3,
        ok,
        f"{st.trials} trials, agree fwd {st.forward_agree} / bwd {st.backward_agree}, "
        f"faithful mismatches {st.faithful_mismatches}, bit-row mismatches {st.row_mismatches}, "
        f"{st.elapsed:.1f} s",
    )


@pytest.mark.parametrize("sweep", ["exhaustive", "random"])
def test_object_endpoints_agree(object_endpoint_sweeps, sweep):
    stats = object_endpoint_sweeps[sweep]
    assert sorted(stats) == ["object->object", "object->subject", "subject->object"]
    if sweep == "exhaustive":
        assert {kinds: st.trials for kinds, st in stats.items()} == dict.fromkeys(stats, 4096)
    else:
        # Graphs of three vertices have a single object.
        assert stats["subject->object"].trials == stats["object->subject"].trials == 10_020
        assert stats["object->object"].trials == 10_020 - 1_002
    for kinds, st in stats.items():
        assert (st.forward_agree, st.backward_agree) == (st.trials, st.trials), kinds
        assert st.faithful_mismatches == 0, kinds
        assert st.row_mismatches == 0, kinds
        assert st.bound_violations == 0, kinds
        assert st.duality_mismatches == 0, kinds


DENSE_CORPUS_SEED_BASE = 95_000


def _dense_corpus():
    """200 seeded t-only graphs of 40 to 80 vertices, two of them
    subjects, at p from 0.5 to 0.95 but never below 36 / (n - 1), so the
    expected average t-degree is at least 36, past the bit-row floor of
    32.  Below about 35 vertices even p = 0.95 falls short of that
    floor, so the sizes start at 40."""
    for i in range(200):
        n = 40 + i % 41
        low = max(0.5, 36 / (n - 1))
        p = low + (0.95 - low) * (i % 7) / 6
        yield random_graph(RandomGraphSpec(2, n - 2, p, frozenset({Right.T}), DENSE_CORPUS_SEED_BASE + i))


def test_dense_corpus_three_way():
    # The public bridge_exists takes bit rows on every graph here (the
    # first query fills the row cache), and must still agree with the
    # faithful engine, the list loop and the oracle, between every kind
    # of endpoint, both ways.
    cases = 0
    for g in _dense_corpus():
        assert g._row_cache is None
        for kinds, (s, f) in {"subject->subject": (0, 1), **_object_endpoint_pairs(g)}.items():
            for direction in BOTH:
                fast = bridge_exists(g, s, f, direction)
                assert g._row_cache is not None, (kinds, direction)
                assert fast == bridge_exists_faithful(g, s, f, direction), (kinds, direction)
                assert fast == list_loop_report(g, s, f, direction), (kinds, direction)
                witness = brute_force_bridge(g, s, f, direction)
                assert (witness and witness.length) == (fast.path and fast.path.length), (kinds, direction)
                if fast.exists:
                    validate_path(g, fast.path)
                cases += 1
    assert cases == 200 * 4 * 2


def test_criterion_4_termination_bound(exhaustive_sweep, random_sweep):
    violations = exhaustive_sweep.bound_violations + random_sweep.bound_violations
    # Chains exercise the deepest pass counts this suite produces.
    for length in range(2, 65):
        g, s, f, _ = chain_graph(length)
        report = bridge_exists(g, s, f)
        if report.passes > len(_traversal_set(g, s, f)) + 1:
            violations += 1
    checked = exhaustive_sweep.trials + random_sweep.trials + 63
    _report_line(4, violations == 0, f"0 violations over {checked} cases" if violations == 0 else f"{violations} violations")


def test_criterion_5_chain_induction_family():
    start = time.perf_counter()
    positives = 0
    negatives = 0
    ok = True
    for length in range(2, 65):
        g, s, f, arcs = chain_graph(length)
        report = bridge_exists(g, s, f)
        if not (report.exists and report.path.length == length):
            ok = False
        positives += 1
        for arc in arcs:
            if bridge_exists(copy_without_arc(g, arc), s, f).exists:
                ok = False
            negatives += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report_line(5, ok, f"{positives} chains, {negatives} broken-arc cases, {elapsed:.2f} s")


def test_criterion_6_duality(exhaustive_sweep, random_sweep):
    mismatches = exhaustive_sweep.duality_mismatches + random_sweep.duality_mismatches
    graphs = exhaustive_sweep.trials + random_sweep.trials
    _report_line(6, mismatches == 0, f"{mismatches} mismatches over {graphs} graphs")


def test_criterion_7_islands_oracle():
    mismatches = 0
    graphs = 0
    start = time.perf_counter()
    seed = 50_000
    pool = frozenset(Right)
    for round_ in range(88):  # 88 rounds x 12 sizes = 1,056 graphs
        for subjects in range(1, 13):
            seed += 1
            p = RANDOM_SWEEP_PROBABILITIES[graphs % 3]
            g = random_graph(RandomGraphSpec(subjects, (graphs % 4), p, pool, seed))
            graphs += 1
            if [i.members for i in compute_islands(g)] != naive_island_partition(g):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and graphs >= 1000 and elapsed < 10.0
    _report_line(7, ok, f"{graphs} graphs, {mismatches} mismatches, {elapsed:.2f} s")


def test_criterion_8_scale_smoke():
    g = random_graph(RandomGraphSpec(2, 1998, 0.05, frozenset({Right.T}), seed=42))
    arcs = g.edge_count
    t0 = time.perf_counter()
    fast = bridge_exists(g, 0, 1)
    fast_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = bridge_exists_faithful(g, 0, 1)
    slow_elapsed = time.perf_counter() - t0
    # Average t-degree about 100: the bit-row pass answers, and fills the
    # graph's row cache as it goes.
    rows = g._row_cache is not None
    ok = (
        185_000 <= arcs <= 215_000
        and rows
        and fast == slow
        and fast_elapsed < 1.0
        and slow_elapsed < 60.0
    )
    _report_line(
        8,
        ok,
        f"{arcs} arcs, optimized {fast_elapsed * 1e3:.0f} ms ({'bit rows' if rows else 'LISTS'}), "
        f"faithful {slow_elapsed * 1e3:.0f} ms, reports {'equal' if fast == slow else 'DIFFER'}",
    )


# ---- work counted, not timed ------------------------------------------
#
# Each engine reads its graph through per-vertex containers: the frontier
# engine iterates the t-lists of its walk direction (``_t_succ`` forward,
# ``_t_pred`` backward), the faithful engine calls ``items()`` on ``_out``.
# Swapping in containers that add their length to a tally when read
# counts the arcs an engine examined without touching the engine, so
# these tests check its cost without the clock.


class _Tally:
    arcs = 0


class _CountingList(list):
    def __iter__(self):
        self.tally.arcs += len(self)
        return super().__iter__()


class _CountingDict(dict):
    def items(self):
        self.tally.arcs += len(self)
        return super().items()


def _counted_run(engine, g, attrs, container, s, f, direction):
    """(result, arcs examined) of one *engine* run with each of *g.attrs* counted."""
    tally = _Tally()
    originals = {attr: getattr(g, attr) for attr in attrs}
    for attr, original in originals.items():
        counting = []
        for items in original:
            wrapped = container(items)
            wrapped.tally = tally
            counting.append(wrapped)
        setattr(g, attr, counting)
    try:
        report = engine(g, s, f, direction)
    finally:
        for attr, original in originals.items():
            setattr(g, attr, original)
    return report, tally.arcs


def _frontier_arcs(g, s, f, direction):
    attr = "_t_succ" if direction is Direction.FORWARD else "_t_pred"
    report, arcs = _counted_run(bridge_exists, g, (attr,), _CountingList, s, f, direction)
    assert report == bridge_exists(g, s, f, direction)
    return report, arcs


def _faithful_arcs(g, s, f, direction):
    """The faithful engine walks t<-* on g as t->* on g's take arcs flipped,
    so a backward walk is counted as a forward walk on the take arcs of
    ``flipped(g)``; the report returned is the uncounted one."""
    walked = g if direction is Direction.FORWARD else t_only_projection(flipped(g))
    counted, arcs = _counted_run(
        bridge_exists_faithful, walked, ("_out",), _CountingDict, s, f, Direction.FORWARD
    )
    report = bridge_exists_faithful(g, s, f, direction)
    assert (counted.exists, counted.passes, counted.frontier_trace) == (
        report.exists,
        report.passes,
        report.frontier_trace,
    )
    return report, arcs


def _t_arc_count(g: ProtectionGraph) -> int:
    return sum(Right.T in edge.rights for edge in g.edges())


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
@pytest.mark.parametrize("n", [10, 50, 200])
def test_chain_arcs_examined(n, direction):
    # Pass k reaches the k-th vertex of the chain: the frontier engine
    # scans only the vertex added last, the faithful engine all k.
    g, s, f, _ = chain_graph(n)
    if direction is Direction.BACKWARD:
        s, f = f, s
    fast, fast_arcs = _frontier_arcs(g, s, f, direction)
    slow, slow_arcs = _faithful_arcs(g, s, f, direction)
    assert fast == slow and fast.exists and fast.passes == n
    assert fast_arcs == n
    assert slow_arcs == n * (n + 1) // 2


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_deep_chain_three_way(direction):
    # 1,500 arcs is past Python's default recursion limit of 1,000: the
    # oracle must walk the chain without recursing.
    g, s, f, _ = chain_graph(1500)
    if direction is Direction.BACKWARD:
        g = flipped(g)
    fast = bridge_exists(g, s, f, direction)
    assert fast == bridge_exists_faithful(g, s, f, direction)
    assert fast.exists and fast.path.length == 1500
    assert brute_force_bridge(g, s, f, direction) == fast.path


def _saturating_scan_arcs(g, s, f):
    """The t arcs a forward frontier scan from *s* to *f* examines when it
    stops right after the vertex that claims the last claimable vertex.

    Claimable, counted as the engine counts it: every object some t arc
    enters, s excepted, plus f when f is a subject some t arc enters.
    Each pass scans the vertices the previous pass claimed, ascending,
    and examines every t arc out of each.
    """
    entered = [bool(g.t_predecessors(v)) for v in range(g.vertex_count)]
    objects = set(g.objects())
    remaining = sum(entered[v] for v in objects - {s})
    remaining += f not in objects and entered[f]
    claimed = {s}
    frontier = [s] if remaining else []
    arcs = 0
    while frontier:
        added = []
        for v in frontier:
            for w in g.t_successors(v):
                arcs += 1
                if w not in claimed and (w in objects or w == f):
                    claimed.add(w)
                    added.append(w)
                    remaining -= 1
            if not remaining:
                return arcs
        frontier = sorted(added)
    return arcs


def test_worst_case_miss_arcs_examined():
    # Random t-only graphs of 100, 200 and 400 vertices (one subject)
    # plus an isolated sink object.  On this miss the faithful engine
    # must exhaust what the start reaches, while the frontier engine
    # stops once nothing claimable is left.
    faithful_arcs = []
    for n in (100, 200, 400):
        g = random_graph(RandomGraphSpec(1, n - 2, 0.05, frozenset({Right.T}), 1 + n))
        sink = g.add_vertex("sink", VertexKind.OBJECT)
        fast, fast_arcs = _frontier_arcs(g, 0, sink, Direction.FORWARD)
        slow, slow_arcs = _faithful_arcs(g, 0, sink, Direction.FORWARD)
        assert fast == slow and not fast.exists
        assert fast_arcs <= _t_arc_count(g)
        # Saturation stops the scan early: not one arc past the last claim.
        assert fast_arcs == _saturating_scan_arcs(g, 0, sink)
        faithful_arcs.append(slow_arcs)
    assert faithful_arcs[0] < faithful_arcs[1] < faithful_arcs[2], faithful_arcs


def _count_sweep_cases():
    """200 seeded graphs with every right, 3 to 12 vertices, and 0 -> 1."""
    pool = frozenset(Right)
    for i in range(200):
        n = 3 + i % 10
        p = RANDOM_SWEEP_PROBABILITIES[i % 3]
        yield random_graph(RandomGraphSpec(2, n - 2, p, pool, seed=90_000 + i))


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_faithful_arcs_are_reached_out_degrees(direction):
    # Each pass re-scans every arc leaving the set reached when the pass
    # starts, of any right forward and take arcs alone backward; rebuild
    # those sets from the trace.
    for g in _count_sweep_cases():
        degree = [0] * g.vertex_count
        for edge in g.edges():
            if direction is Direction.FORWARD:
                degree[edge.src] += 1
            elif Right.T in edge.rights:
                degree[edge.dst] += 1
        report, arcs = _faithful_arcs(g, 0, 1, direction)
        reached = {0}
        expected = 0
        for _, added in report.frontier_trace:
            expected += sum(degree[v] for v in reached)
            reached.update(added)
        assert arcs == expected


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_frontier_arcs_at_most_t_arcs(direction):
    for g in _count_sweep_cases():
        _, arcs = _frontier_arcs(g, 0, 1, direction)
        assert arcs <= _t_arc_count(g)


# bridges_between_islands claims each goal from the goal side: it reads
# every goal's in-list once per call, and at the top of each pass looks
# the frontier up in the feeders those lists give.  These tests count the
# out-lists and the in-lists it reads.


def _between_arcs(g, island_a, island_b, direction):
    """(bridges, t-list arcs read) of one ``bridges_between_islands`` call."""
    found, arcs = _counted_run(
        bridges_between_islands, g, ("_t_succ", "_t_pred"), _CountingList, island_a, island_b, direction
    )
    assert found == bridges_between_islands(g, island_a, island_b, direction)
    return [(s, f, path.vertices) for s, f, path in found], arcs


def _t_arcs(pairs, direction):
    """(src, dst, "t") triples for *pairs*, flipped for a backward walk, so
    one layout serves both directions."""
    return [(a, b, "t") if direction is Direction.FORWARD else (b, a, "t") for a, b in pairs]


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_goals_claimed_before_their_pass_is_scanned(direction):
    # a reaches x1 and x2 in pass 1 and y1 and y2 in pass 2.  y1 feeds the
    # goal b1 and y2 the goal b2, and each leads on to one more object.
    # q is entered only from the subject c, so the claimable count never
    # reaches zero and saturation cannot cut pass 3 short.  The goals are
    # claimed from pass 3's frontier before it is scanned: the call reads
    # the out-lists of a, x1 and x2 and the goals' in-lists, and none of
    # the 4 arcs out of y1 and y2 that a top-down pass 3 would examine.
    # Without the g arc that joins b1 and b2, the goal island is b1 alone,
    # and its one goal is claimed the same way.
    bridges = [(0, 1, (0, 4, 6, 1)), (0, 2, (0, 5, 7, 2))]
    for joined in (True, False):
        g = make_graph(
            [("a", "s"), ("b1", "s"), ("b2", "s"), ("c", "s"), ("x1", "o"), ("x2", "o"),
             ("y1", "o"), ("y2", "o"), ("z1", "o"), ("z2", "o"), ("q", "o")],
            ([("b1", "b2", "g")] if joined else []) + _t_arcs(
                [("a", "x1"), ("a", "x2"), ("x1", "y1"), ("x2", "y2"),
                 ("y1", "b1"), ("y1", "z1"), ("y2", "b2"), ("y2", "z2"), ("c", "q")],
                direction,
            ),
        )
        goals = (1, 2) if joined else (1,)
        island_a, island_b = compute_islands(g)[:2]
        assert (island_a.members, island_b.members) == ((0,), goals)
        found, arcs = _between_arcs(g, island_a, island_b, direction)
        assert found == bridges[: len(goals)]
        assert arcs == (2 + 1 + 1) + len(goals)


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_goal_in_lists_read_once_per_call(direction):
    # a runs down the 1,000-object chain o1 .. o1000 into the goal b1.
    # o1000 also leads to p1 .. p300, each of which feeds b1, and p300
    # feeds the goal b2 as well.  A top-down scan examines 1,602 arcs: one
    # per pass down the chain, 301 out of o1000 and 301 out of p1 .. p300.
    # Reading the goals' in-lists once per pass instead of once per call
    # would add about 302 reads for each of the 1,002 passes.
    n, late = 1000, 300
    chain = ["a"] + [f"o{i}" for i in range(1, n + 1)] + ["b1"]
    feeders = [f"p{i}" for i in range(1, late + 1)]
    pairs = list(zip(chain, chain[1:]))
    pairs += [(f"o{n}", p) for p in feeders] + [(p, "b1") for p in feeders] + [(feeders[-1], "b2")]
    g = make_graph(
        [("a", "s"), ("b1", "s"), ("b2", "s")] + [(v, "o") for v in chain[1:-1] + feeders],
        [("b1", "b2", "g")] + _t_arcs(pairs, direction),
    )
    island_a, island_b = compute_islands(g)
    found, arcs = _between_arcs(g, island_a, island_b, direction)
    assert [(s, f, len(vertices)) for s, f, vertices in found] == [(0, 1, n + 2), (0, 2, n + 3)]
    goal_in_degree = (1 + late) + 1
    assert arcs <= 1602 + goal_in_degree


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_goal_claimed_from_its_smallest_feeder(direction):
    # x1 and x2 are both in pass 2's frontier and both feed the goal b1.
    # x2's arc is inserted first, so b1's t-list holds x2 before x1; an
    # ascending top-down scan claims b1 from x1, and so must the goal side.
    g = make_graph(
        [("a", "s"), ("b1", "s"), ("b2", "s"), ("x1", "o"), ("x2", "o")],
        [("b1", "b2", "g")] + _t_arcs([("a", "x1"), ("a", "x2"), ("x2", "b1"), ("x1", "b1")], direction),
    )
    into = g._t_pred if direction is Direction.FORWARD else g._t_succ
    assert into[1] == [4, 3]
    island_a, island_b = compute_islands(g)
    found, _ = _between_arcs(g, island_a, island_b, direction)
    assert found == [(0, 1, (0, 3, 1))]
    assert found[0][2] == find_bridge_path(g, 0, 1, direction).vertices


@pytest.mark.parametrize("direction", BOTH, ids=lambda d: d.value)
def test_oracle_asks_for_successors_once_per_vertex(direction):
    # brute_force_bridge re-enters a vertex once per path length and per
    # path through it; it keeps each vertex's successors for the rest of
    # the query, so the graph is asked at most once per traversal-set
    # vertex.  Instance attributes shadow the neighbour queries here.
    names = ("t_successors", "t_predecessors")
    past_length_one = 0
    for g in _count_sweep_cases():
        calls: list[VertexId] = []

        def counting(query):
            def counted(v):
                calls.append(v)
                return query(v)
            return counted

        for name in names:
            setattr(g, name, counting(getattr(g, name)))
        witness = brute_force_bridge(g, 0, 1, direction)
        for name in names:
            delattr(g, name)
        assert witness == brute_force_bridge(g, 0, 1, direction)
        assert len(calls) == len(set(calls))
        assert set(calls) <= _traversal_set(g, 0, 1)
        past_length_one += witness is None or witness.length > 1
    # Each of these enumerates s's successors once per length tried.
    assert past_length_one >= 50


def test_criterion_9_format_round_trip():
    corpora: list[ProtectionGraph] = [ProtectionGraph(), parse_graph(LENGTH2_BRIDGE_TGG)]
    three = [("s", VertexKind.SUBJECT), ("f", VertexKind.SUBJECT), ("o0", VertexKind.OBJECT)]
    corpora.extend(enumerate_t_arc_graphs(three))
    pools = [frozenset({Right.T}), frozenset({Right.T, Right.G}), frozenset(Right)]
    for i in range(200):
        spec = RandomGraphSpec(
            1 + i % 4, i % 5, RANDOM_SWEEP_PROBABILITIES[i % 3], pools[i % 3], seed=70_000 + i
        )
        corpora.append(random_graph(spec))
    violations = 0
    for g in corpora:
        text = serialize_graph(g)
        reparsed = parse_graph(text)
        if reparsed != g or serialize_graph(reparsed) != text:
            violations += 1
    _report_line(9, violations == 0, f"{len(corpora)} graphs, {violations} violations")
