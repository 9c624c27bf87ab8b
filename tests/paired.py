"""Paired timings of two source trees of the package, side by side.

    python tests/paired.py PARENT_SRC CHANGE_SRC [CASE ...] [--rounds N]

Each round runs both sides, in an order that alternates from round to
round, each in a fresh child process whose ``PYTHONPATH`` is that side's
``src/`` directory.  The child builds every requested case from fixed
seeds, runs it once untimed, then reports the best of ``REPEATS`` timed
runs.  For each case the report gives both sides' median time, the
median of the per-round ratios change/parent, and in how many rounds the
change was faster.  With no CASE every case runs:

* ``add_edge``: build 300 small-audit-shaped graphs (2 subjects, 4 to 12
  objects, take out-degree 1.6, every right) with ``add_vertex`` and
  ``add_edge``, the arcs passed as the frozensets ``edges()`` hands out;
* ``audit``: small-audit's op on 300 graphs of the same shape, arcs
  shuffled: ``add_edge`` half the arcs, ``bridge_exists`` both ways, add
  the rest, then ``bridge_exists``, ``bridge_exists_faithful`` and
  ``brute_force_bridge`` both ways and ``compute_islands``; the one case
  that interleaves writes with queries;
* ``same_island``: 300 subject pairs on one 340-vertex, ~3,600-arc
  graph with every right;
* ``chain``: a forward ``bridge_exists`` down a 1,000-object take chain;
* ``ladder``: a forward ``bridge_exists`` across a 2x500 object grid,
  take arcs rightwards and downwards, 502 passes;
* ``onepass``: 1,000 forward ``bridge_exists`` misses from the end of a
  3,000-object take chain, each decided in one pass;
* ``dense_miss``: a forward ``bridge_exists`` from the subject of a
  998-object graph with take arcs at p = 0.2 to an isolated object.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 15


def _small_graphs(tg, seed):
    """300 small-audit-shaped graphs as (vertices, arcs): 2 subjects, 4 to
    12 objects, take out-degree 1.6, every right; arcs in ``edges()`` order."""
    graphs = []
    for i in range(300):
        objects = 4 + i % 9
        spec = tg.RandomGraphSpec(2, objects, 1.6 / (objects + 2), frozenset(tg.Right), seed + i)
        g = tg.random_graph(spec)
        vertices = [(g.vertex_name(v), g.vertex_kind(v)) for v in range(g.vertex_count)]
        graphs.append((vertices, [(e.src, e.dst, e.rights) for e in g.edges()]))
    return graphs


def _add_edge_case(tg):
    graphs = _small_graphs(tg, 29_000)

    def run():
        for vertices, arcs in graphs:
            g = tg.new_graph()
            for name, kind in vertices:
                g.add_vertex(name, kind)
            for src, dst, rights in arcs:
                g.add_edge(src, dst, rights)

    return run


def _audit_case(tg):
    graphs = _small_graphs(tg, 29_300)
    for i, (_, arcs) in enumerate(graphs):
        random.Random(i).shuffle(arcs)
    both = (tg.Direction.FORWARD, tg.Direction.BACKWARD)

    def run():
        for vertices, arcs in graphs:
            g = tg.new_graph()
            for name, kind in vertices:
                g.add_vertex(name, kind)
            half = len(arcs) // 2
            for src, dst, rights in arcs[:half]:
                g.add_edge(src, dst, rights)
            for d in both:
                tg.bridge_exists(g, 0, 1, d)
            for src, dst, rights in arcs[half:]:
                g.add_edge(src, dst, rights)
            for d in both:
                tg.bridge_exists(g, 0, 1, d)
                tg.bridge_exists_faithful(g, 0, 1, d)
                tg.brute_force_bridge(g, 0, 1, d)
            tg.compute_islands(g)

    return run


def _same_island_case(tg):
    g = tg.random_graph(tg.RandomGraphSpec(40, 300, 0.008, frozenset(tg.Right), 29_001))
    pairs = [(u, v) for u in range(0, 40, 2) for v in range(40) if (u + v) % 3 == 0][:300]

    def run():
        for u, v in pairs:
            tg.same_island(g, u, v)

    return run


def _chain(tg, n):
    """Subject h (id 0), take arcs through objects c1 to cn, subject f (n + 1)."""
    g = tg.new_graph()
    g.add_vertex("h", tg.VertexKind.SUBJECT)
    for i in range(1, n + 1):
        g.add_vertex(f"c{i}", tg.VertexKind.OBJECT)
    g.add_vertex("f", tg.VertexKind.SUBJECT)
    for i in range(n + 1):
        g.add_edge(i, i + 1, {tg.Right.T})
    return g


def _chain_case(tg):
    g = _chain(tg, 1000)
    return lambda: tg.bridge_exists(g, 0, 1001, tg.Direction.FORWARD)


def _ladder_case(tg):
    rows, cols = 2, 500
    g = tg.new_graph()
    g.add_vertex("s", tg.VertexKind.SUBJECT)
    for r in range(rows):
        for c in range(cols):
            g.add_vertex(f"g{r}_{c}", tg.VertexKind.OBJECT)
    f = g.add_vertex("f", tg.VertexKind.SUBJECT)
    cell = lambda r, c: 1 + r * cols + c  # noqa: E731
    g.add_edge(0, cell(0, 0), {tg.Right.T})
    g.add_edge(cell(rows - 1, cols - 1), f, {tg.Right.T})
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(cell(r, c), cell(r, c + 1), {tg.Right.T})
            if r + 1 < rows:
                g.add_edge(cell(r, c), cell(r + 1, c), {tg.Right.T})
    return lambda: tg.bridge_exists(g, 0, f, tg.Direction.FORWARD)


def _onepass_case(tg):
    g = _chain(tg, 3000)

    def run():
        for _ in range(1000):
            tg.bridge_exists(g, 3001, 0, tg.Direction.FORWARD)

    return run


def _dense_miss_case(tg):
    g = tg.random_graph(tg.RandomGraphSpec(1, 998, 0.2, frozenset({tg.Right.T}), 29_002))
    sink = g.add_vertex("sink", tg.VertexKind.OBJECT)

    def run():
        for _ in range(20):
            tg.bridge_exists(g, 0, sink, tg.Direction.FORWARD)

    return run


CASES = {
    "add_edge": _add_edge_case,
    "audit": _audit_case,
    "same_island": _same_island_case,
    "chain": _chain_case,
    "ladder": _ladder_case,
    "onepass": _onepass_case,
    "dense_miss": _dense_miss_case,
}


def child(cases: list[str]) -> None:
    """Time *cases* on the package ``PYTHONPATH`` finds; print one JSON line."""
    import takegrant as tg

    times = {}
    for name in cases:
        run = CASES[name](tg)
        run()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        times[name] = best
    print(json.dumps({"package": tg.__file__, "times": times}))


def _side(src: Path, cases: list[str]) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *cases],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"paired: child on {src} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"paired: takegrant resolved to {result['package']}, outside {src}")
    return result["times"]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="paired.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent tree's src/ directory")
    parser.add_argument("change", type=Path, help="the changed tree's src/ directory")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"cases to run (default: all of {', '.join(CASES)})")
    parser.add_argument("--rounds", type=int, default=20, help="alternating rounds (default 20)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}; choose from {', '.join(CASES)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    cases = args.cases or list(CASES)
    parent: dict[str, list[float]] = {name: [] for name in cases}
    change: dict[str, list[float]] = {name: [] for name in cases}
    for r in range(args.rounds):
        order = [(args.parent, parent), (args.change, change)]
        for src, times in order if r % 2 == 0 else reversed(order):
            for name, t in _side(src, cases).items():
                times[name].append(t)
    print(f"rounds {args.rounds}, best of {REPEATS} timed runs per side per round")
    for name in cases:
        ratios = [c / p for p, c in zip(parent[name], change[name])]
        wins = sum(c < p for p, c in zip(parent[name], change[name]))
        print(
            f"{name}: parent {statistics.median(parent[name]) * 1e3:.3f} ms, "
            f"change {statistics.median(change[name]) * 1e3:.3f} ms, "
            f"median ratio {statistics.median(ratios):.4f}, change faster in {wins}/{args.rounds}"
        )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
    else:
        main(sys.argv[1:])
