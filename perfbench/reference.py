"""Reference answers the timed code is checked against.

Nothing here calls the frontier engine.  Islands come from a naive
label-propagation closure over the benchmark's own arc list; bridge
reports come from ``bridge_exists_faithful`` or from the analytic
answers of the constructed families; CLI output is rendered here from
those references, byte for byte as the CLI contract specifies.
"""

from __future__ import annotations

import json

from takegrant import Direction, SearchReport, VertexKind

from .inputs import G, T, Spec


def naive_islands(spec: Spec) -> tuple[tuple[int, ...], ...]:
    """Subject groups closed under t/g arcs, ascending by smallest member.

    Every subject starts with its own id as label; each round lowers
    both endpoints of every subject-subject t/g arc to the smaller label,
    until a round changes nothing.
    """
    subjects = [v for v, (_, kind) in enumerate(spec.vertices) if kind is VertexKind.SUBJECT]
    is_subject = set(subjects)
    links = [(s, d) for s, d, rights in spec.arcs if s in is_subject and d in is_subject and rights & {T, G}]
    label = {v: v for v in subjects}
    changed = True
    while changed:
        changed = False
        for a, b in links:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    groups: dict[int, list[int]] = {}
    for v in subjects:
        groups.setdefault(label[v], []).append(v)
    return tuple(tuple(members) for _, members in sorted(groups.items()))


def island_of(islands: tuple[tuple[int, ...], ...], v: int) -> int:
    return next(i for i, members in enumerate(islands) if v in members)


def render_islands(spec: Spec, islands: tuple[tuple[int, ...], ...]) -> str:
    return "".join(
        f"island {i}: " + " ".join(spec.vertices[v][0] for v in members) + "\n"
        for i, members in enumerate(islands)
    )


def render_bridge(spec: Spec, source: str, target: str, report: SearchReport) -> str:
    arrow = "t->*" if report.direction is Direction.FORWARD else "t<-*"
    head = f"bridge {arrow} {source} ~> {target}:"
    if report.exists:
        return f"{head} FOUND (length {len(report.path.vertices) - 1}, passes {report.passes})\n"
    return f"{head} NOT FOUND (passes {report.passes})\n"


def render_bridge_json(spec: Spec, report: SearchReport) -> str:
    name = lambda v: spec.vertices[v][0]  # noqa: E731
    return json.dumps({
        "exists": report.exists,
        "direction": report.direction.value,
        "passes": report.passes,
        "path": [name(v) for v in report.path.vertices] if report.path else None,
        "frontier_trace": [[n, [name(v) for v in added]] for n, added in report.frontier_trace],
    }) + "\n"


def render_bridges(spec: Spec, found: list[tuple[int, int, tuple[int, ...]]]) -> str:
    name = lambda v: spec.vertices[v][0]  # noqa: E731
    return "".join(
        f"{name(s)} ~> {name(f)}: " + " ".join(name(v) for v in path) + "\n"
        for s, f, path in found
    )
