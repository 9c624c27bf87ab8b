"""Worklist search for t-bridges between protection-graph vertices.

A t-bridge from ``s`` to ``f`` is a simple path whose every arc carries
the take right, traversed either along arc direction
(``Direction.FORWARD``, the ``t->*`` pattern) or against it
(``Direction.BACKWARD``, ``t<-*``).  Interior vertices are always
objects: the search walks the traversal set ``{s, f} | objects(g)`` and
never routes through any other subject.  The endpoints themselves may
be of either kind.

Two engines share one observable contract.  ``bridge_exists`` keeps a
frontier and looks at each vertex's arcs once, which is the right tool
for real queries.  ``bridge_exists_faithful`` re-scans every arc
incident to the whole reached set on every pass -- deliberately wasteful
(cubic in the vertex count) but a more literal rendering of the same
pass structure, kept so the two can be checked against each other.  It
reads only the graph's rights masks (flipped, as ``g.reverse()`` holds
them, for ``t<-*``), never the t-lists the frontier engine walks, so a
drift between the two stores shows up as a disagreement.  They must return
identical reports on every input; the test suite enforces this
exhaustively on small graphs and statistically on large random ones.

The frontier engine is one search core, ``_search``, that reads the
t-lists the graph keeps up to date on insert and never writes to the
graph.  It stops as soon as nothing claimable is left (saturation):
the graph counts the objects some t arc enters (forward) or leaves
(backward), so the number of claimable vertices costs O(1) per query,
and once every one of them is reached the rest of the scan could claim
nothing.  Each query keeps its predecessors in a list indexed by vertex
id, copied in C from the graph's one kind table (``None`` for an
object, its own id for a subject), with ``None`` written over the
goals.  Only objects and goals start out unclaimed, so claiming a
vertex costs one index and one identity test, with no kind or goal
lookup.  A query thus costs one O(vertices) list copy plus O(t arcs out
of the vertices it scans), at most the t arcs out of the reached set.
The core takes a set of goals: ``bridge_exists`` is the single-goal
case, and ``bridges_between_islands`` runs one search per source island
member with every member of the other island as a goal.

Pass semantics, shared by both engines and pinned by the tests:

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
from typing import Any, Collection

from ._value import Value, set_slot
from .errors import InvariantViolationError, NotASubjectError, SameIslandError, SameVertexError
from .graph import _OBJECT, _T, ProtectionGraph, Right, VertexId
from .islands import Island


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

    def __init__(self, vertices: tuple[VertexId, ...], direction: Direction) -> None:
        set_slot(self, "vertices", vertices)
        set_slot(self, "direction", direction)

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

    def __init__(
        self,
        exists: bool,
        direction: Direction,
        path: BridgePath | None,
        passes: int,
        frontier_trace: tuple[tuple[int, tuple[VertexId, ...]], ...],
    ) -> None:
        set_slot(self, "exists", exists)
        set_slot(self, "direction", direction)
        set_slot(self, "path", path)
        set_slot(self, "passes", passes)
        set_slot(self, "frontier_trace", frontier_trace)


def traversal_set(g: ProtectionGraph, s: VertexId, f: VertexId) -> set[VertexId]:
    """Vertices a bridge may touch: both endpoints plus every object."""
    verts = set(g.objects())
    verts.add(s)
    verts.add(f)
    return verts


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


def _search(
    g: ProtectionGraph,
    s: VertexId,
    goals: Collection[VertexId],
    direction: Direction,
) -> tuple[list[VertexId | None], list[tuple[int, tuple[VertexId, ...]]]]:
    """The frontier engine: search from *s* until every goal is reached.

    Returns ``(pred, trace)``: ``pred`` is indexed by vertex id and holds,
    for each reached vertex, the vertex whose arc first claimed it (``s``
    holds itself), ``None`` for every unreached object and goal, and
    their own id for the other subjects, which no search may claim;
    ``trace`` holds one ``(pass_number, ids_added)`` entry per pass.
    *goals* is a one-tuple or, for several goals, a frozenset.
    Objects and goals may be claimed; claimed objects are expanded on
    the next pass, goals never are.  The search ends after the pass that
    reaches the last goal, after a pass that adds nothing, or as soon as
    nothing claimable is left (see ``bridge_exists``).  It costs one
    O(vertices) copy of the graph's kind table plus O(t arcs out of the
    vertices it scans).
    """
    if direction is Direction.FORWARD:
        step, into, entered = g._t_succ, g._t_pred, g._t_entered_objects
    else:
        step, into, entered = g._t_pred, g._t_succ, g._t_left_objects
    subject_id = g._subject_id
    # Claimable: objects, plus subject goals, that some t arc enters in
    # the walk direction; s is reached already.  Objects entered only
    # from subjects are counted too, so this may overestimate, never
    # underestimate.
    remaining = entered - (subject_id[s] is None and bool(into[s]))
    for f in goals:
        if subject_id[f] is not None and into[f]:
            remaining += 1
    # A single goal ends the search in the pass that claims it, so only
    # several goals need claimed goals taken out of the next frontier.
    several = len(goals) > 1
    pending = list(goals)
    goal = pending.pop()  # the goal each pass end checks first
    # One slot per vertex, copied in C from the graph's kind table: None
    # for objects, a subject's own id for subjects.  Clearing the goals
    # leaves None exactly on what may be claimed, so a claim test is one
    # index and one identity check.
    pred = subject_id.copy()
    for f in goals:
        pred[f] = None
    pred[s] = s
    trace: list[tuple[int, tuple[VertexId, ...]]] = []
    frontier: list[VertexId] = [s] if remaining else []
    passes = 0
    while True:
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
        while pred[goal] is not None:
            if not pending:
                return pred, trace
            goal = pending.pop()
        if not added:
            return pred, trace
        if several and not goals.isdisjoint(frontier):
            # Goals are claimed, never expanded.
            frontier = [w for w in frontier if w not in goals]


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
    claims the last claimable vertex.  This is the single-goal case of
    the search ``bridges_between_islands`` runs once per source.
    """
    check_query(g, s, f, direction)
    pred, trace = _search(g, s, (f,), direction)
    # f is a goal, so its slot is None until a search claims it.
    path = _path(pred, s, f, direction) if pred[f] is not None else None
    return SearchReport(path is not None, direction, path, len(trace), tuple(trace))


def bridge_exists_faithful(
    g: ProtectionGraph,
    s: VertexId,
    f: VertexId,
    direction: Direction = Direction.FORWARD,
) -> SearchReport:
    """Same contract as ``bridge_exists``; literal re-scanning engine.

    Every pass walks every arc leaving every vertex reached at pass
    start and picks out the t-labelled ones whose far endpoint is still
    unreached.  It reads only the graph's rights masks, never the
    t-lists: a ``t<-*`` walk on *g* is a ``t->*`` walk on the flipped
    masks of ``g.reverse()``, vertex for vertex, so one loop serves both
    directions.  Vertices are scanned in ascending id order; one
    vertex's arcs are scanned in store order, since each of them claims
    through that vertex.  Worst case: vertex-count passes, each
    reviewing every arc of an almost fully reached graph.
    """
    check_query(g, s, f, direction)
    arcs = g._out if direction is Direction.FORWARD else g._reversed_out()
    reached = {s}
    unreached = traversal_set(g, s, f) - reached
    predecessor: dict[VertexId, VertexId] = {}
    trace: list[tuple[int, tuple[VertexId, ...]]] = []
    while True:
        added: list[VertexId] = []
        for v in sorted(reached):  # snapshot before the pass grows it
            for w, mask in arcs[v].items():
                if mask & _T and w in unreached:
                    unreached.discard(w)
                    reached.add(w)
                    predecessor[w] = v
                    added.append(w)
        added.sort()
        trace.append((len(trace) + 1, tuple(added)))
        if f in reached or not added:
            path = _path(predecessor, s, f, direction) if f in predecessor else None
            return SearchReport(path is not None, direction, path, len(trace), tuple(trace))


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
    with |A| searches instead of |A|*|B|.  The result is sorted by
    (s, f) because members come ascending.

    Both islands must come from ``compute_islands(g)``.  Every member is
    checked to be a subject of *g* (``UnknownVertexError`` for an id
    outside it, ``NotASubjectError`` for an object), but the partition
    itself is not recomputed, which would cost O(arcs) per call.
    """
    _check_direction(direction)
    if island_a.index == island_b.index:
        raise SameIslandError(f"need two distinct islands, got index {island_a.index} twice")
    for v in island_a.members + island_b.members:
        if g.vertex_kind(v) is _OBJECT:
            raise NotASubjectError(
                f"island member {g.vertex_name(v)!r} is an object; islands contain only subjects"
            )
    goals = frozenset(island_b.members)
    found: list[tuple[VertexId, VertexId, BridgePath]] = []
    for s in island_a.members:
        pred, _ = _search(g, s, goals, direction)
        for f in island_b.members:  # all goals: None until claimed
            if pred[f] is not None:
                found.append((s, f, _path(pred, s, f, direction)))
    return found


def validate_path(g: ProtectionGraph, path: BridgePath) -> None:
    """Replay a BridgePath against *g*; raises InvariantViolationError.

    Checks simplicity, object-only interiors, and that a t arc in the
    right orientation backs every step.
    """
    verts = path.vertices
    if len(verts) < 2:
        raise InvariantViolationError("a bridge path needs at least two vertices")
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
