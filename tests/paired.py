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
* ``same_island``: 300 subject pairs on one 340-vertex, ~3,600-arc
  graph with every right;
* ``chain``: a forward ``bridge_exists`` down a 1,000-object take chain;
* ``dense_miss``: a forward ``bridge_exists`` from the subject of a
  998-object graph with take arcs at p = 0.2 to an isolated object.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 15


def _add_edge_case(tg):
    graphs = []
    for i in range(300):
        objects = 4 + i % 9
        spec = tg.RandomGraphSpec(2, objects, 1.6 / (objects + 2), frozenset(tg.Right), 29_000 + i)
        g = tg.random_graph(spec)
        vertices = [(g.vertex_name(v), g.vertex_kind(v)) for v in range(g.vertex_count)]
        graphs.append((vertices, [(e.src, e.dst, e.rights) for e in g.edges()]))

    def run():
        for vertices, arcs in graphs:
            g = tg.new_graph()
            for name, kind in vertices:
                g.add_vertex(name, kind)
            for src, dst, rights in arcs:
                g.add_edge(src, dst, rights)

    return run


def _same_island_case(tg):
    g = tg.random_graph(tg.RandomGraphSpec(40, 300, 0.008, frozenset(tg.Right), 29_001))
    pairs = [(u, v) for u in range(0, 40, 2) for v in range(40) if (u + v) % 3 == 0][:300]

    def run():
        for u, v in pairs:
            tg.same_island(g, u, v)

    return run


def _chain_case(tg):
    n = 1000
    g = tg.new_graph()
    g.add_vertex("h", tg.VertexKind.SUBJECT)
    for i in range(1, n + 1):
        g.add_vertex(f"c{i}", tg.VertexKind.OBJECT)
    g.add_vertex("f", tg.VertexKind.SUBJECT)
    for i in range(n + 1):
        g.add_edge(i, i + 1, {tg.Right.T})
    return lambda: tg.bridge_exists(g, 0, n + 1, tg.Direction.FORWARD)


def _dense_miss_case(tg):
    g = tg.random_graph(tg.RandomGraphSpec(1, 998, 0.2, frozenset({tg.Right.T}), 29_002))
    sink = g.add_vertex("sink", tg.VertexKind.OBJECT)

    def run():
        for _ in range(20):
            tg.bridge_exists(g, 0, sink, tg.Direction.FORWARD)

    return run


CASES = {
    "add_edge": _add_edge_case,
    "same_island": _same_island_case,
    "chain": _chain_case,
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
