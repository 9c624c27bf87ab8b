"""Worklist search for t-bridges between protection-graph vertices.

A t-bridge from ``s`` to ``f`` is a simple path whose every arc carries
the take right, traversed either along arc direction
(``Direction.FORWARD``, the ``t->*`` pattern) or against it
(``Direction.BACKWARD``, ``t<-*``).  Interior vertices are always
objects: the search walks the traversal set ``{s, f} | objects(g)`` and
never routes through any other subject.  The endpoints themselves may
be of either kind.

This module holds the frontier engine, ``bridge_exists``: it keeps a
frontier and looks at each vertex's arcs once, which is the right tool
for real queries.  Its reference, ``bridge_exists_faithful``, re-scans
every arc incident to the whole reached set on every pass.  It lives in
``oracle`` beside the brute-force oracle, so a query compiles neither.
The two engines must return identical reports on every input; the test
suite enforces this exhaustively on small graphs and statistically on
large random ones.

The frontier engine runs one pass structure in two pass kinds.  The
list loop, ``_search``, reads the t-lists the graph keeps up to date on
insert and never writes to the graph.  It stops as soon as nothing
claimable is left (saturation): the graph counts the objects some t arc enters (forward) or leaves
(backward), so the number of claimable vertices costs O(1) per query,
and once every one of them is reached the rest of the scan could claim
nothing.  Each query keeps its predecessors in a list indexed by vertex
id, copied in C from the graph's one kind table (``None`` for an
object, its own id for a subject), with ``None`` written over the
goals.  Only objects and goals start out unclaimed, so claiming a
vertex costs one index and one identity test, with no kind or goal
lookup.  A query thus costs one O(vertices) list copy plus O(t arcs out
of the vertices it scans), at most the t arcs out of the reached set; a
start that can claim nothing is answered without the copy.
The core takes a set of goals: ``bridge_exists`` is the single-goal
case, and ``bridges_between_islands`` runs one search per source island
member with every member of the other island as a goal.  Its goals are
claimed from the goal side: at the top of each pass, one dict lookup
per frontier vertex finds the goals it feeds, so the search ends before
the pass that reaches its last goal is scanned.

The bit-row pass, ``_row_search``, answers ``bridge_exists`` on dense
graphs.  The unclaimed vertices are one int, and a frontier vertex
claims its unclaimed successors with one AND against its bit row, the
t-list as an int; the pass's additions come out of the cleared bits in
one C-level extraction, with no per-claim step and no sort.  It takes
the list loop's claimable count from the same helper, ``_claimable``,
and stops at saturation as the list loop does.
``bridge_exists`` picks it when the average t-degree is at least
max(32, n / 64), one O(1) test on a t-arc counter the graph's writers
keep.  From n / 64 on, a row of n bits is no larger than the t-list it
mirrors, so an AND costs no more than scanning the list, and the
extractions, O(n) per pass and at most n passes, total n * n <= 64 t
arcs: the query stays O(t arcs).  The floor keeps sparse graphs, whose
passes claim too little to pay for an extraction over every id, on the
list loop.  Rows are
built on demand, the first time a query scans the vertex, and kept on
the graph until its t-arc or vertex count changes: so a cold first
query pays for the rows it scans, about 9 us each at 1,000 vertices,
never for an index of the whole graph.  Filling that cache is the one
write a query makes; it never writes arcs or t-lists.
``bridges_between_islands`` always runs the list loop.

Pass semantics, shared with the faithful engine and pinned by the tests:

* a pass scans only vertices that were already reached when the pass
  started; vertices discovered mid-pass wait for the next pass;
* vertices are scanned in ascending id order, and the first arc to
  reach a vertex fixes its predecessor, so reports are fully
  deterministic (the order of one vertex's own arcs cannot matter: all
  of them claim through that vertex);
* after each pass, reaching ``f`` terminates with success; a pass that
  moved nothing terminates with failure and still counts, so the trace
  always has exactly ``passes`` entries and only a final failing entry
  may be empty.

The pass count never exceeds the traversal-set size plus one: every
non-final pass moves at least one vertex out of the unreached set.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from typing import Any, Sequence

from ._value import Value
from .errors import (
    InvariantViolationError, NotASubjectError, SameIslandError, SameVertexError, UnknownVertexError
)
from .graph import _OBJECT, ProtectionGraph, Right, VertexId
from .islands import Island


# bridge_exists takes the bit-row pass when the average t-degree is at
# least max(_ROW_DEGREE, n / 64).  From n / 64 on, a row of n bits is no
# larger than the t-list of 8-byte pointers it mirrors, which keeps the
# query O(t arcs).  The floor: on random graphs of 100 to 600 vertices
# (Python 3.11, 40 queries each, rows warm) the bit-row pass took 1.07 to
# 1.43 times the list loop's time at average t-degree 8, 0.64 to 0.90 at
# 16 and 0.43 to 0.89 at 32; a first query also builds each row it scans
# (about 9 us at 1,000 vertices), so the floor sits at twice the
# break-even degree.
_ROW_DEGREE = 32
# Binary digit -> selector byte, to read a pass's additions out of bin().
_DIGIT_FLAG = bytes.maketrans(b"01", b"\0\1")


class Direction(Enum):
    """Which way a t arc may be walked."""

    FORWARD = "forward"  # arc (a, b) is walked a -> b
    BACKWARD = "backward"  # arc (b, a) is walked a -> b, against the arrow


class BridgePath(Value):
    """Witness path; ``vertices[0]`` is s and ``vertices[-1]`` is f.

    Vertices are pairwise distinct, interiors are objects, and each
    consecutive pair is backed by a t arc in the direction's sense.
    ``validate_path`` re-checks all of that against a graph.
    """

    __slots__ = ("vertices", "direction")
    vertices: tuple[VertexId, ...]
    direction: Direction

    @property
    def length(self) -> int:
        """Number of arcs on the path."""
        return len(self.vertices) - 1


class SearchReport(Value):
    """Everything one search run decided, as a plain comparable value.

    ``frontier_trace`` holds one ``(pass_number, ids_added)`` entry per
    executed pass, additions ascending.  ``path`` is present exactly
    when ``exists``.
    """

    __slots__ = ("exists", "direction", "path", "passes", "frontier_trace")
    exists: bool
    direction: Direction
    path: BridgePath | None
    passes: int
    frontier_trace: tuple[tuple[int, tuple[VertexId, ...]], ...]


def _check_direction(direction: Direction) -> None:
    # Anything but a Direction would silently run as a backward search.
    if direction.__class__ is not Direction:
        raise TypeError(f"direction must be a Direction, got {direction!r}")


def check_query(g: ProtectionGraph, s: VertexId, f: VertexId, direction: Direction) -> None:
    """Validate a bridge query: its direction and its endpoints (existence, distinctness)."""
    _check_direction(direction)
    g._require(s)
    g._require(f)
    if s == f:
        raise SameVertexError(
            f"bridge endpoints must differ, got {g.vertex_name(s)!r} twice"
        )


def _claimable(
    g: ProtectionGraph, s: VertexId, goals: Sequence[VertexId], direction: Direction
) -> tuple[list[list[VertexId]], int]:
    """The walk direction's t-lists, and how many vertices a search from *s* may claim.

    Claimable: objects, plus subject goals, that some t arc enters in the
    walk direction; s is reached already.  Objects entered only from
    subjects are counted too, so the count may overestimate, never
    underestimate.  It is 0 when *s* has no t arc in the walk direction:
    either way the one pass a full scan would run claims nothing.  The
    graph keeps the entered-object counts, so this costs O(goals).
    """
    if direction is Direction.FORWARD:
        step, into, entered = g._t_succ, g._t_pred, g._t_entered_objects
    else:
        step, into, entered = g._t_pred, g._t_succ, g._t_left_objects
    if not step[s]:
        return step, 0
    subject_id = g._subject_id
    remaining = entered - (subject_id[s] is None and bool(into[s]))
    for f in goals:
        if subject_id[f] is not None and into[f]:
            remaining += 1
    return step, remaining


def _search(
    g: ProtectionGraph,
    s: VertexId,
    goals: Sequence[VertexId],
    direction: Direction,
    feeds: dict[VertexId, list[VertexId]] | None,
) -> tuple[list[VertexId | None] | None, list[tuple[int, tuple[VertexId, ...]]]]:
    """The frontier engine: search from *s* until every goal is reached.

    Returns ``(pred, trace)``: ``pred`` is indexed by vertex id and holds,
    for each reached vertex, the vertex whose arc first claimed it (``s``
    holds itself), ``None`` for every unreached object and goal, and
    their own id for the other subjects, which no search may claim;
    ``trace`` holds one ``(pass_number, ids_added)`` entry per pass.
    When *s* has no t arc in the walk direction, or nothing is
    claimable, ``pred`` is ``None`` and the trace is ``[(1, ())]``: the
    one pass a full scan would run claims nothing, and no list is copied.

    Objects and goals may be claimed; claimed objects are expanded on
    the next pass, goals never are.  *feeds* is ``None`` for
    ``bridge_exists``, whose one goal is claimed by the scan like any
    object.  Otherwise it maps each vertex that has a t arc into a goal,
    in the walk direction, to the goals it feeds, and the goals are
    claimed from the goal side at the top of each pass, so they never
    enter a trace: only the frontier's feeders can claim a goal still
    unclaimed, because an earlier scan of any other reached feeder would
    have claimed it, and the smallest of them is the one an ascending
    scan would claim it from.  The search ends when the last goal is
    reached (with *feeds*: before that pass is scanned), after a pass
    that adds nothing, or as soon as nothing claimable is left (see
    ``bridge_exists``).  It costs one O(vertices) copy of the graph's
    kind table plus O(t arcs out of the vertices it scans), and with
    *feeds* one dict lookup per frontier vertex.
    """
    step, remaining = _claimable(g, s, goals, direction)
    if not remaining:
        return None, [(1, ())]
    pending = list(goals)
    goal = pending.pop()  # the goal each pass start checks first
    # One slot per vertex, copied in C from the graph's kind table: None
    # for objects, a subject's own id for subjects.  Clearing the goals
    # leaves None exactly on what may be claimed, so a claim test is one
    # index and one identity check.
    pred = g._subject_id.copy()
    for f in goals:
        pred[f] = None
    pred[s] = s
    trace: list[tuple[int, tuple[VertexId, ...]]] = []
    frontier: list[VertexId] = [s]
    passes = 0
    while True:
        if feeds is not None:
            # The goal-side ("bottom-up") step of Beamer, Asanovic &
            # Patterson, "Direction-Optimizing Breadth-First Search" (SC
            # 2012), for the goals alone; the frontier is ascending.
            for v in frontier:
                fed = feeds.get(v)
                if fed is not None:
                    for f in fed:
                        if pred[f] is None:
                            pred[f] = v
                            remaining -= 1
        while pred[goal] is not None:
            if not pending:
                return pred, trace
            goal = pending.pop()
        passes += 1
        added: list[VertexId] = []
        for v in frontier:
            for w in step[v]:
                if pred[w] is None:
                    pred[w] = v
                    added.append(w)
                    remaining -= 1
            if not remaining:
                # Saturated: the rest of this pass and all of the next,
                # which a full scan would run, can claim nothing.
                frontier = []
                break
        else:
            frontier = added
        added.sort()
        trace.append((passes, tuple(added)))
        if not added:
            return pred, trace


def bridge_exists(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> SearchReport:
    """Decide whether a t-bridge s ~> f exists; frontier engine.

    Only vertices added in the previous pass are scanned: older reached
    vertices had all their t-arc endpoints claimed when they were
    scanned, so re-scanning them can never move anything.  That makes
    this engine linear in arcs while producing, pass for pass, the same
    additions and predecessors as the full re-scan.

    It also counts the vertices still claimable -- objects, and f if it
    is a subject, that some t arc enters in the walk direction -- from
    counters the graph keeps, and stops scanning as soon as that count
    reaches zero, recording the empty pass a full scan would end with.
    A query therefore costs one O(vertices) copy of its predecessor list
    plus O(t arcs out of the vertices it scans): at most the t arcs out
    of the reached set, and on a worst-case miss only up to the arc that
    claims the last claimable vertex.  A start with no t arc in the
    walk direction, or a graph with nothing claimable, is answered in
    O(1): one empty pass, no copy.  This is the single-goal case of the
    search ``bridges_between_islands`` runs once per source.  When the
    average t-degree is at least max(32, n / 64), the same passes run
    as bit-row passes (``_row_search``), to the same report.
    """
    check_query(g, s, f, direction)
    n = len(g._subject_id)
    t_arcs = g._t_arcs
    if t_arcs >= _ROW_DEGREE * n and 64 * t_arcs >= n * n:
        return _row_search(g, s, f, direction)
    pred, trace = _search(g, s, (f,), direction, None)
    # f is a goal, so its slot is None until a search claims it.
    path = _path(pred, s, f, direction) if pred is not None and pred[f] is not None else None
    return SearchReport(path is not None, direction, path, len(trace), tuple(trace))


def _row_search(g: ProtectionGraph, s: VertexId, f: VertexId, direction: Direction) -> SearchReport:
    """The bit-row pass: ``bridge_exists``' report, for dense graphs.

    The same passes as ``_search`` with one goal, the same saturation
    count (``_claimable``) and the same early answer, over bits instead
    of lists.  The vertices still unclaimed are one int, ``unclaimed``;
    each frontier vertex v, ascending, claims ``row & unclaimed`` of its
    t-list's bit row in one AND, so it claims what the list loop's
    first-arc rule gives it.  A pass's additions are read, ascending, out of the bits
    it cleared in one C-level extraction, and the witness is read back
    from each pass's (v, bits v claimed) pairs, so no predecessor list
    is copied or written.  A row is built from v's t-list the first time
    a query scans v, and kept on the graph (``_bit_rows``).  The query
    costs one AND of n / 64 words per vertex scanned, one O(n)
    extraction per pass, and O(n) for each row it builds.
    """
    step, remaining = _claimable(g, s, (f,), direction)
    if not remaining:
        return SearchReport(False, direction, None, 1, ((1, ()),))
    objects, ids, rows = g._bit_rows(direction is Direction.FORWARD)
    n = len(ids)
    goal = 1 << f
    unclaimed = (objects | goal) & ~(1 << s)
    frontier: Sequence[VertexId] = (s,)
    claims: list[list[tuple[VertexId, int]]] = []  # per pass, (v, bits v claimed)
    trace: list[tuple[int, tuple[VertexId, ...]]] = []
    while unclaimed & goal:
        before = unclaimed
        pairs = []
        for v in frontier:
            row = rows[v]
            if row is None:
                digits = bytearray(b"0") * n
                for w in step[v]:
                    digits[w] = 49  # "1"
                row = rows[v] = int(digits[::-1], 2)
            claimed = row & unclaimed
            if claimed:
                unclaimed ^= claimed
                pairs.append((v, claimed))
                remaining -= claimed.bit_count()
                if not remaining:
                    break  # saturated, as in _search
        # bin() lists bits highest first; reversed, digit i is bit i.
        added = tuple(compress(ids, bin(before ^ unclaimed)[:1:-1].encode().translate(_DIGIT_FLAG)))
        trace.append((len(trace) + 1, added))
        if not added:
            return SearchReport(False, direction, None, len(trace), tuple(trace))
        claims.append(pairs)
        frontier = added if remaining else ()
    # f was claimed in the last pass, by a vertex claimed in the pass before.
    vertices = [f]
    for pairs in reversed(claims):
        w = vertices[-1]
        vertices.append(next(v for v, claimed in pairs if claimed >> w & 1))
    vertices.reverse()
    return SearchReport(True, direction, BridgePath(tuple(vertices), direction), len(trace), tuple(trace))


def _path(
    predecessor: dict[VertexId, VertexId] | list[VertexId | None],
    s: VertexId,
    f: VertexId,
    direction: Direction,
) -> BridgePath:
    vertices = [f]
    v = f
    while v != s:
        v = predecessor[v]
        vertices.append(v)
    vertices.reverse()
    return BridgePath(tuple(vertices), direction)


def find_bridge_path(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> BridgePath | None:
    """The deterministic witness path, or None when no bridge exists."""
    return bridge_exists(g, s, f, direction).path


def bridges_between_islands(
    g: ProtectionGraph,
    island_a: Island,
    island_b: Island,
    direction: Direction = Direction.FORWARD,
) -> list[tuple[VertexId, VertexId, BridgePath]]:
    """All (s, f, path) bridges from island_a members to island_b members.

    Runs one frontier search per member of island_a, with every member
    of island_b as a goal: goals are claimed but never expanded, so each
    path equals the one ``find_bridge_path(g, s, f, direction)`` gives,
    with |A| searches instead of |A|*|B|.  The goals' t-lists are read
    once per call into a map from each feeder to the goals it feeds,
    and each search claims the goals from that map at the top of a
    pass, one dict lookup per frontier vertex, so it ends before
    scanning the pass that reaches its last goal.  A member that
    can claim nothing is skipped without a search.  The result is sorted
    by (s, f) because members come ascending.

    Both islands must come from ``compute_islands(g)``.  Every member is
    checked to be a subject of *g* (``UnknownVertexError`` for an id
    outside it, ``NotASubjectError`` for an object), and two islands with
    one index, an island with no members, members that are not strictly
    ascending, or a shared member raise ``SameIslandError``, all before
    any search; the partition itself is not recomputed, which would cost
    O(arcs) per call.
    """
    _check_direction(direction)
    if island_a.index == island_b.index:
        raise SameIslandError(f"need two distinct islands, got index {island_a.index} twice")
    for v in island_a.members + island_b.members:
        if g.vertex_kind(v) is _OBJECT:
            raise NotASubjectError(
                f"island member {g.vertex_name(v)!r} is an object; islands contain only subjects"
            )
    members = set(island_b.members)
    for island in (island_a, island_b):
        if not island.members:
            raise SameIslandError(f"island {island.index} has no members; an island holds a subject")
        for u, v in zip(island.members, island.members[1:]):
            if u >= v:
                order = "twice" if u == v else f"after {g.vertex_name(u)!r}"
                raise SameIslandError(
                    f"island {island.index} lists member {g.vertex_name(v)!r} {order};"
                    " members must be strictly ascending"
                )
    for v in island_a.members:
        if v in members:
            raise SameIslandError(
                f"islands {island_a.index} and {island_b.index} share member {g.vertex_name(v)!r}"
            )
    goals = island_b.members
    # Every goal's in-list is read once per call, never once per pass.
    into = g._t_pred if direction is Direction.FORWARD else g._t_succ
    feeds: dict[VertexId, list[VertexId]] = {}
    for f in goals:
        for v in into[f]:
            feeds.setdefault(v, []).append(f)
    found: list[tuple[VertexId, VertexId, BridgePath]] = []
    for s in island_a.members:
        pred, _ = _search(g, s, goals, direction, feeds)
        if pred is None:
            continue  # s claims nothing
        for f in goals:  # None until claimed
            if pred[f] is not None:
                found.append((s, f, _path(pred, s, f, direction)))
    return found


def validate_path(g: ProtectionGraph, path: BridgePath) -> None:
    """Replay a BridgePath against *g*; raises InvariantViolationError.

    Checks that every vertex is in *g*, simplicity, object-only
    interiors, and that a t arc in the right orientation backs every
    step.  A direction that is not a ``Direction`` raises ``TypeError``,
    as every engine does.
    """
    _check_direction(path.direction)
    verts = path.vertices
    if len(verts) < 2:
        raise InvariantViolationError("a bridge path needs at least two vertices")
    try:
        for v in verts:
            g._require(v)
    except UnknownVertexError as exc:
        raise InvariantViolationError(f"bridge path leaves the graph: {exc}") from None
    if len(set(verts)) != len(verts):
        raise InvariantViolationError("bridge path revisits a vertex")
    for a, b in zip(verts, verts[1:]):
        src, dst = (a, b) if path.direction is Direction.FORWARD else (b, a)
        if Right.T not in g.rights_between(src, dst):
            raise InvariantViolationError(
                f"no t arc backs the step {g.vertex_name(a)} -> {g.vertex_name(b)}"
            )
    for v in verts[1:-1]:
        if g.vertex_kind(v) is not _OBJECT:
            raise InvariantViolationError(
                f"interior vertex {g.vertex_name(v)} is not an object"
            )


def report_to_jsonable(g: ProtectionGraph, report: SearchReport) -> dict[str, Any]:
    """JSON-friendly view of a report, vertex names instead of ids.

    Key order is part of the CLI contract: exists, direction, passes,
    path, frontier_trace.
    """
    return {
        "exists": report.exists,
        "direction": report.direction.value,
        "passes": report.passes,
        "path": (
            [g.vertex_name(v) for v in report.path.vertices]
            if report.path is not None
            else None
        ),
        "frontier_trace": [
            [n, [g.vertex_name(v) for v in added]] for n, added in report.frontier_trace
        ],
    }
