"""Seeded inputs.  Every graph is kept twice: as the package's
``ProtectionGraph`` that the timed code reads, and as a ``Spec`` the
benchmark owns (vertex list plus arc list), which the reference answers
are computed from.  The same seed always gives the same specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from takegrant import ProtectionGraph, RandomGraphSpec, Right, VertexKind, new_graph, random_graph

from .tracer import Tracer

SUBJECT, OBJECT = VertexKind.SUBJECT, VertexKind.OBJECT
T, G, R, W = Right.T, Right.G, Right.R, Right.W
ALL_RIGHTS = frozenset(Right)
NOISE_RIGHTS = (G, R, W)


def derive(seed: int, label: str) -> int:
    """Independent 63-bit sub-seed for one input of one run."""
    return random.Random(f"{seed}/{label}").getrandbits(63)


@dataclass
class Spec:
    """Benchmark-owned copy of one graph: what the reference reads."""

    name: str
    vertices: list[tuple[str, VertexKind]]
    arcs: list[tuple[int, int, frozenset[Right]]]

    def vid(self, name: str) -> int:
        return next(i for i, (n, _) in enumerate(self.vertices) if n == name)

    def provenance(self) -> dict[str, int]:
        pairs: dict[tuple[int, int], set[Right]] = {}
        for s, d, rights in self.arcs:
            pairs.setdefault((s, d), set()).update(rights)
        return {
            "vertices": len(self.vertices),
            "arcs": len(pairs),
            "t_arcs": sum(1 for rights in pairs.values() if T in rights),
        }


def spec_of(name: str, g: ProtectionGraph) -> Spec:
    return Spec(
        name,
        [(g.vertex_name(v), g.vertex_kind(v)) for v in range(g.vertex_count)],
        [(e.src, e.dst, e.rights) for e in g.edges()],
    )


def add_arcs(g: ProtectionGraph, arcs, tracer: Tracer | None) -> None:
    """``add_edge`` for every arc, as one ``graph.add_edge`` span when traced."""
    if tracer is None:
        for s, d, rights in arcs:
            g.add_edge(s, d, rights)
        return
    with tracer.span("graph.add_edge"):
        for s, d, rights in arcs:
            g.add_edge(s, d, rights)
    tracer.note("graph.add_edge.calls", len(arcs))


def build(spec: Spec, tracer: Tracer | None = None) -> ProtectionGraph:
    g = new_graph()
    for name, kind in spec.vertices:
        g.add_vertex(name, kind)
    add_arcs(g, spec.arcs, tracer)
    return g


def generate(spec: RandomGraphSpec, tracer: Tracer | None) -> ProtectionGraph:
    if tracer is None:
        return random_graph(spec)
    return tracer.wrap(random_graph, "oracle.random_graph")(spec)


def _noise(rng: random.Random, n: int, count: int) -> list[tuple[int, int, frozenset[Right]]]:
    """Arcs without take: a correct search never reacts to them."""
    return [
        (rng.randrange(n), rng.randrange(n), frozenset({rng.choice(NOISE_RIGHTS)}))
        for _ in range(count)
    ]


def chain(n: int, seed: int) -> Spec:
    """h -> c1 -> ... -> cn -> f over t arcs, plus non-t noise.

    Analytic answers: h ~> f forward and f ~> h backward both exist with
    length n+1 found in n+1 passes; f ~> h forward and h ~> f backward
    are misses decided in one pass.
    """
    rng = random.Random(seed)
    vertices = [("h", SUBJECT)] + [(f"c{i}", OBJECT) for i in range(1, n + 1)] + [("f", SUBJECT)]
    arcs = [(i, i + 1, frozenset({T})) for i in range(n + 1)]
    return Spec(f"chain{n}", vertices, arcs + _noise(rng, n + 2, n))


def ladder(rows: int, cols: int, seed: int) -> Spec:
    """Object grid with t arcs rightwards and downwards, s into the top-left
    corner and the bottom-right corner into f.

    Analytic answer: s ~> f forward and f ~> s backward exist with length
    and passes both rows + cols.
    """
    rng = random.Random(seed)
    vertices = [("s", SUBJECT)]
    vertices += [(f"g{r}_{c}", OBJECT) for r in range(rows) for c in range(cols)]
    vertices.append(("f", SUBJECT))
    cell = lambda r, c: 1 + r * cols + c  # noqa: E731
    arcs = [(0, cell(0, 0), frozenset({T})), (cell(rows - 1, cols - 1), len(vertices) - 1, frozenset({T}))]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                arcs.append((cell(r, c), cell(r, c + 1), frozenset({T})))
            if r + 1 < rows:
                arcs.append((cell(r, c), cell(r + 1, c), frozenset({T})))
    return Spec(f"ladder{rows}x{cols}", vertices, arcs + _noise(rng, len(vertices), rows * cols))


def islands_graph(sizes: list[int], n_objects: int, p: float, seed: int) -> Spec:
    """Subjects in islands of the given sizes, objects between them.

    Inside an island a random tree of t/g arcs joins the members; between
    islands subjects share only r/w arcs.  Objects carry t arcs with
    probability p per ordered pair, so bridges run between islands.
    """
    rng = random.Random(seed)
    n_subjects = sum(sizes)
    order = list(range(n_subjects))
    rng.shuffle(order)
    vertices = [(f"s{i}", SUBJECT) for i in range(n_subjects)]
    vertices += [(f"o{i}", OBJECT) for i in range(n_objects)]
    arcs = []
    start = 0
    for size in sizes:
        members = order[start:start + size]
        start += size
        for i in range(1, size):
            a, b = members[i], members[rng.randrange(i)]
            if rng.random() < 0.5:
                a, b = b, a
            arcs.append((a, b, frozenset({rng.choice((T, G))})))
    total = n_subjects + n_objects
    for src in range(total):
        for dst in range(n_subjects, total) if src < n_subjects else range(total):
            if src != dst and rng.random() < p:
                arcs.append((src, dst, frozenset({T})))
    for _ in range(total * 4):
        arcs.append((rng.randrange(total), rng.randrange(total), frozenset({rng.choice((R, W))})))
    return Spec(f"islands{n_subjects}s{n_objects}o", vertices, arcs)
