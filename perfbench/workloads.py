"""The three workloads, the probe suite and the deep-growth experiment.

Each workload builds its seeded inputs in ``setup`` and returns one
cycle of ops from ``ops``.  An op returns an answer; ``project`` maps the
answer to the value that must equal ``reference()``.  References are
computed after the timed loop, from the benchmark's own specs, never
from the frontier engine.

When a tracer is given, every call into the package goes through a
span-recording wrapper made here: nothing under ``src/`` is edited.  For
in-process CLI runs the wrappers replace, for the duration of the
traced loop, the names ``takegrant.cli`` imported.
"""

from __future__ import annotations

import io
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import takegrant.cli as cli
from takegrant import (
    Direction,
    RandomGraphSpec,
    bridge_exists,
    bridge_exists_faithful,
    bridges_between_islands,
    brute_force_bridge,
    compute_islands,
    find_bridge_path,
    new_graph,
    parse_graph,
    report_to_jsonable,
    same_island,
    serialize_graph,
    validate_path,
)

from . import inputs
from .inputs import ALL_RIGHTS, OBJECT, SUBJECT, T, Spec, add_arcs, build, derive, generate, spec_of
from .reference import (
    island_of,
    naive_islands,
    render_bridge,
    render_bridge_json,
    render_bridges,
    render_islands,
)
from .tracer import Tracer

FWD, BWD = Direction.FORWARD, Direction.BACKWARD

# A search of at least this many passes is reported as "deep".
DEEP_PASSES = 64


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    project: Callable[[Any], Any]
    reference: Callable[[], Any]


def valid(g, path) -> bool:
    """True, or InvariantViolationError from ``validate_path``."""
    if path is not None:
        validate_path(g, path)
    return True


def _classify(tr: Tracer, report) -> str:
    tr.note("bridges.passes", report.passes)
    tr.note("bridges.reached", 1 + sum(len(added) for _, added in report.frontier_trace))
    if report.passes == 1 and not report.exists:
        kind = "onepass"
    elif report.passes >= DEEP_PASSES:
        kind = "deep"
    else:
        kind = "hit" if report.exists else "miss"
    return f"bridges.bridge_exists.{kind}"


def _between(tr: Tracer, found, args) -> None:
    _, island_a, island_b, *_ = args
    tr.note("bridges.bridges_between_islands.pairs", len(island_a.members) * len(island_b.members))
    tr.note("bridges.bridges_between_islands.found", len(found))


def _parsed(tr: Tracer, g) -> None:
    tr.note("graph.parse_graph.arcs", g.edge_count)


def api(tr: Tracer | None) -> SimpleNamespace:
    """The package functions the ops call, wrapped in spans when traced."""
    plain = dict(
        bridge_exists=bridge_exists,
        bridge_exists_faithful=bridge_exists_faithful,
        bridges_between_islands=bridges_between_islands,
        brute_force_bridge=brute_force_bridge,
        compute_islands=compute_islands,
        find_bridge_path=find_bridge_path,
        parse_graph=parse_graph,
        report_to_jsonable=report_to_jsonable,
        same_island=same_island,
        serialize_graph=serialize_graph,
        validate_path=validate_path,
    )
    if tr is None:
        return SimpleNamespace(**plain)
    posts = {
        "bridge_exists": lambda r, a: _classify(tr, r),
        "bridges_between_islands": lambda r, a: _between(tr, r, a),
        "parse_graph": lambda r, a: _parsed(tr, r),
    }
    # Spans are named <module>.<function>: the module is the layer.
    return SimpleNamespace(**{
        name: tr.wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", posts.get(name))
        for name, fn in plain.items()
    })


# The names takegrant.cli imported that the traced CLI loop re-binds.
_CLI_IMPORTS = (
    "parse_graph", "compute_islands", "bridge_exists", "bridges_between_islands",
    "validate_path", "report_to_jsonable",
)


@contextmanager
def instrumented_cli(tr: Tracer | None) -> Iterator[None]:
    if tr is None:
        yield
        return
    traced = api(tr)
    saved = {name: getattr(cli, name) for name in _CLI_IMPORTS}
    try:
        for name in _CLI_IMPORTS:
            setattr(cli, name, getattr(traced, name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def cli_in_process(argv: list[str], tr: Tracer | None) -> tuple[int, str]:
    main = cli.main if tr is None else tr.wrap(cli.main, f"cli.{argv[0]}")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cli_subprocess(argv: list[str], root: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "takegrant.cli", *argv],
        cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
        capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout.decode("utf-8")


class Workload:
    """One seeded input set and the cycle of ops run against it."""

    name = ""
    child_rss = False  # peak RSS is read from child processes, not this one

    def __init__(self, scale: str, root: Path, workdir: Path) -> None:
        self.scale, self.root, self.workdir = scale, root, workdir
        self.specs: list[Spec] = []

    def setup(self, seed: int, tr: Tracer | None) -> None:
        raise NotImplementedError

    def ops(self, tr: Tracer | None, in_process: bool) -> list[Op]:
        raise NotImplementedError

    def instrumented(self, tr: Tracer | None):
        """Context in which the traced loop runs."""
        return nullcontext()

    def provenance(self) -> dict[str, dict[str, int]]:
        return {spec.name: spec.provenance() for spec in self.specs}


def _cli_graph(subjects: int, objects: int, p: float, seed: int, tr: Tracer | None):
    """random_graph plus two singleton-island subjects a0, a1 joined by a
    planted bridge a0 -> x -> y -> a1, and an isolated object ``sink``."""
    g = generate(RandomGraphSpec(subjects, objects, p, ALL_RIGHTS, seed), tr)
    x, y = random.Random(seed).sample(range(subjects, subjects + objects), 2)
    a0 = g.add_vertex("a0", SUBJECT)
    a1 = g.add_vertex("a1", SUBJECT)
    g.add_vertex("sink", OBJECT)
    add_arcs(g, [(a0, x, {T}), (x, y, {T}), (y, a1, {T})], tr)
    return g


def _cli_mix(path: str, spec: Spec) -> list[list[str]]:
    islands = naive_islands(spec)
    a = island_of(islands, spec.vid("a0"))
    b = island_of(islands, spec.vid("a1"))
    return [
        ["bridge", path, "a0", "a1"],
        ["bridge", path, "s0", "sink", "--backward", "--json"],
        ["islands", path],
        ["bridges", path, str(a), str(b)],
    ]


def _cli_reference(argv: list[str], g, spec: Spec) -> tuple[int, str]:
    """Exit code and stdout the CLI must produce, rendered from references."""
    if argv[0] == "islands":
        return 0, render_islands(spec, naive_islands(spec))
    if argv[0] == "bridges":
        islands = naive_islands(spec)
        found = []
        for s in islands[int(argv[2])]:
            for f in islands[int(argv[3])]:
                report = bridge_exists_faithful(g, s, f, FWD)
                if report.exists:
                    found.append((s, f, report.path.vertices))
        return (0 if found else 1), render_bridges(spec, found)
    source, target = argv[2], argv[3]
    direction = BWD if "--backward" in argv else FWD
    report = bridge_exists_faithful(g, spec.vid(source), spec.vid(target), direction)
    text = render_bridge_json(spec, report) if "--json" in argv else render_bridge(spec, source, target, report)
    return (0 if report.exists else 1), text


class CliLarge(Workload):
    """``python -m takegrant.cli`` on a seeded TGG file of tens of
    thousands of arcs: start-up and parsing dominate what a CLI user waits for."""

    name = "cli-large"
    child_rss = True
    SIZES = {"full": (40, 420, 0.03), "tiny": (4, 16, 0.1)}

    def setup(self, seed: int, tr: Tracer | None) -> None:
        subjects, objects, p = self.SIZES[self.scale]
        self.graph = _cli_graph(subjects, objects, p, derive(seed, "cli"), tr)
        text = (serialize_graph if tr is None else api(tr).serialize_graph)(self.graph)
        path = self.workdir / "cli-large.tgg"
        path.write_text(text, encoding="utf-8")
        self.spec = spec_of("cli-large", self.graph)
        self.specs = [self.spec]
        self.argvs = _cli_mix(str(path), self.spec)

    def ops(self, tr: Tracer | None, in_process: bool) -> list[Op]:
        def op(argv: list[str]) -> Op:
            if in_process:
                run = lambda: cli_in_process(argv, tr)  # noqa: E731
            else:
                run = lambda: cli_subprocess(argv, self.root)  # noqa: E731
            return Op(
                " ".join(argv[:1] + argv[2:]), run, lambda answer: answer,
                lambda: _cli_reference(argv, self.graph, self.spec),
            )

        return [op(argv) for argv in self.argvs]

    def instrumented(self, tr: Tracer | None):
        return instrumented_cli(tr)


def _analytic(g, exists: bool, length: int | None, passes: int):
    """Project a report onto what a constructed family fixes analytically."""
    project = lambda r: (r.exists, r.path.length if r.path else None, r.passes, valid(g, r.path))  # noqa: E731
    return project, lambda: (exists, length, passes, True)


class QueryDeep(Workload):
    """A library user: graphs loaded once, then a fixed seeded sequence of
    queries.  Search, island and per-query set-up costs dominate; nothing
    is parsed."""

    name = "query-deep"
    SIZES = {
        "full": dict(chain=1000, long_chain=3000, ladder=(2, 500), dense=(998, 0.2),
                     islands=([8, 4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1], 300, 0.02)),
        "tiny": dict(chain=70, long_chain=80, ladder=(2, 10), dense=(40, 0.2),
                     islands=([3, 2, 1, 1], 20, 0.1)),
    }

    def setup(self, seed: int, tr: Tracer | None) -> None:
        size = self.SIZES[self.scale]
        a = api(tr)
        self.dense = None  # a repeated set-up frees the old graph first
        self.chain_spec = inputs.chain(size["chain"], derive(seed, "chain"))
        self.long_spec = inputs.chain(size["long_chain"], derive(seed, "long-chain"))
        self.ladder_spec = inputs.ladder(*size["ladder"], derive(seed, "ladder"))
        self.islands_spec = inputs.islands_graph(*size["islands"], derive(seed, "islands"))
        self.chain = build(self.chain_spec, tr)
        self.long = build(self.long_spec, tr)
        self.ladder = build(self.ladder_spec, tr)
        self.islands_g = build(self.islands_spec, tr)
        n_objects, p = size["dense"]
        self.dense = generate(RandomGraphSpec(1, n_objects, p, frozenset({T}), derive(seed, "dense")), tr)
        self.sinks = [self.dense.add_vertex(f"sink{i}", OBJECT) for i in range(3)]
        self.specs = [self.chain_spec, self.long_spec, self.ladder_spec, self.islands_spec]
        islands = sorted(a.compute_islands(self.islands_g), key=lambda i: (-len(i.members), i.index))
        self.pair = islands[0], islands[1]
        rng = random.Random(derive(seed, "queries"))
        # Hit targets lie two passes out, so a seed cannot make a hit trivial.
        objects = range(1, n_objects + 1)
        far_fwd = [v for v in objects if T not in self.dense.rights_between(0, v)]
        far_bwd = [v for v in objects if T not in self.dense.rights_between(v, 0)]
        self.targets = {FWD: rng.sample(far_fwd, 2), BWD: rng.sample(far_bwd, 1)}
        subjects = self.islands_g.subjects()
        self.same = [tuple(rng.sample(subjects, 2)) for _ in range(6)]

    def provenance(self) -> dict[str, dict[str, int]]:
        # The dense graph's references come from the faithful engine on the
        # graph itself, so it has no spec; every arc it has carries t.
        arcs = self.dense.edge_count
        dense = {"vertices": self.dense.vertex_count, "arcs": arcs, "t_arcs": arcs}
        return {**super().provenance(), f"dense{self.dense.vertex_count}": dense}

    def ops(self, tr: Tracer | None, in_process: bool) -> list[Op]:
        a = api(tr)
        ops: list[Op] = []

        def family(key, g, s, f, d, exists, length, passes):
            ops.append(Op(key, lambda: a.bridge_exists(g, s, f, d), *_analytic(g, exists, length, passes)))

        def random_query(key, g, s, f, d, miss=False):
            # A miss to an isolated sink is also known analytically.
            project = lambda r: (r, valid(g, r.path), miss and r.exists)  # noqa: E731
            reference = lambda: (bridge_exists_faithful(g, s, f, d), True, False)  # noqa: E731
            ops.append(Op(key, lambda: a.bridge_exists(g, s, f, d), project, reference))

        n = self.SIZES[self.scale]["chain"]
        family("chain.fwd", self.chain, 0, n + 1, FWD, True, n + 1, n + 1)
        family("chain.bwd", self.chain, n + 1, 0, BWD, True, n + 1, n + 1)
        rows, cols = self.SIZES[self.scale]["ladder"]
        last = rows * cols + 1
        family("ladder.fwd", self.ladder, 0, last, FWD, True, rows + cols, rows + cols)
        family("ladder.bwd", self.ladder, last, 0, BWD, True, rows + cols, rows + cols)
        m = self.SIZES[self.scale]["long_chain"]
        family("onepass.fwd", self.long, m + 1, 0, FWD, False, None, 1)
        family("onepass.bwd", self.long, 0, m + 1, BWD, False, None, 1)
        random_query("dense.hit.forward", self.dense, 0, self.targets[FWD][0], FWD)
        random_query("dense.hit.backward", self.dense, 0, self.targets[BWD][0], BWD)
        for i, sink in enumerate(self.sinks):
            random_query(f"dense.miss{i}.forward", self.dense, 0, sink, FWD, miss=True)
        random_query("dense.miss0.backward", self.dense, 0, self.sinks[0], BWD, miss=True)

        g, target = self.dense, self.targets[FWD][1]
        ops.append(Op(
            "dense.path", lambda: a.find_bridge_path(g, 0, target, FWD),
            lambda path: (path, valid(g, path)),
            lambda: (bridge_exists_faithful(g, 0, target, FWD).path, True),
        ))
        island_a, island_b = self.pair
        for d in (FWD, BWD):
            ops.append(Op(
                f"islands.between.{d.value}",
                lambda d=d: a.bridges_between_islands(self.islands_g, island_a, island_b, d),
                lambda found: tuple((s, f, p, valid(self.islands_g, p)) for s, f, p in found),
                lambda d=d: self._between_reference(island_a, island_b, d),
            ))
        for i, (u, v) in enumerate(self.same):
            ops.append(Op(
                f"islands.same{i}", lambda u=u, v=v: a.same_island(self.islands_g, u, v),
                lambda answer: answer,
                lambda u=u, v=v: self._same_reference(u, v),
            ))
        return ops

    def _between_reference(self, island_a, island_b, d):
        """The per-pair loop, on the faithful engine."""
        found = []
        for s in island_a.members:
            for f in island_b.members:
                report = bridge_exists_faithful(self.islands_g, s, f, d)
                if report.exists:
                    found.append((s, f, report.path, True))
        return tuple(found)

    def _same_reference(self, u: int, v: int) -> bool:
        islands = naive_islands(self.islands_spec)
        return island_of(islands, u) == island_of(islands, v)


class SmallAudit(Workload):
    """Per op, build one small graph with ``add_edge``, query it half built,
    finish it and run the ``takegrant check`` audit on it.  Fixed per-call
    costs and graph construction dominate; the only workload that runs the
    faithful engine and the brute-force oracle."""

    name = "small-audit"
    # Object counts cycle through 4..12; p is chosen so the expected take
    # out-degree is 1.6 at every size.  The brute-force oracle enumerates
    # simple paths, and at the check command's fixed p = 0.3 (or at degree
    # 2 and above) a few 12-object graphs per seed cost 50-600 ms where the
    # median graph costs 0.5 ms.  The cycle repeats them, so throughput
    # would measure which graphs a seed drew rather than the code.
    SIZES = {"full": 900, "tiny": 18}
    DEGREE = 1.6

    def setup(self, seed: int, tr: Tracer | None) -> None:
        self.specs = []
        for i in range(self.SIZES[self.scale]):
            objects = 4 + i % 9
            label = f"audit{i}"
            p = self.DEGREE / (objects + 2)
            g = generate(RandomGraphSpec(2, objects, p, ALL_RIGHTS, derive(seed, label)), tr)
            spec = spec_of(label, g)
            random.Random(derive(seed, label + "/order")).shuffle(spec.arcs)
            self.specs.append(spec)
        random.Random(derive(seed, "audit-order")).shuffle(self.specs)

    def provenance(self) -> dict[str, dict[str, int]]:
        totals = [spec.provenance() for spec in self.specs]
        return {f"{len(self.specs)} audit graphs": {
            key: sum(t[key] for t in totals) for key in ("vertices", "arcs", "t_arcs")
        }}

    def ops(self, tr: Tracer | None, in_process: bool) -> list[Op]:
        a = api(tr)

        def audit(spec: Spec):
            g = new_graph()
            for name, kind in spec.vertices:
                g.add_vertex(name, kind)
            half = len(spec.arcs) // 2
            add_arcs(g, spec.arcs[:half], tr)
            partial = (a.bridge_exists(g, 0, 1, FWD), a.bridge_exists(g, 0, 1, BWD))
            add_arcs(g, spec.arcs[half:], tr)
            checks = tuple(
                (a.bridge_exists(g, 0, 1, d), a.bridge_exists_faithful(g, 0, 1, d), a.brute_force_bridge(g, 0, 1, d))
                for d in (FWD, BWD)
            )
            return partial, checks, tuple(island.members for island in a.compute_islands(g))

        def project(spec: Spec, answer):
            partial, checks, islands = answer
            g = build(spec)
            return (
                partial,
                tuple(fast for fast, _, _ in checks),
                tuple(slow for _, slow, _ in checks),
                tuple(brute.length if brute else None for _, _, brute in checks),
                all(valid(g, fast.path) and valid(g, brute) for fast, _, brute in checks),
                islands,
            )

        def reference(spec: Spec):
            half = Spec(spec.name, spec.vertices, spec.arcs[: len(spec.arcs) // 2])
            partial_g, g = build(half), build(spec)
            partial = tuple(bridge_exists_faithful(partial_g, 0, 1, d) for d in (FWD, BWD))
            full = tuple(bridge_exists_faithful(g, 0, 1, d) for d in (FWD, BWD))
            shortest = tuple(r.path.length if r.path else None for r in full)
            return partial, full, full, shortest, True, naive_islands(spec)

        return [
            Op(spec.name, lambda s=spec: audit(s), lambda ans, s=spec: project(s, ans), lambda s=spec: reference(s))
            for spec in self.specs
        ]


WORKLOADS = {w.name: w for w in (CliLarge, QueryDeep, SmallAudit)}


# ---- traced-run extras ---------------------------------------------------

def probe(tr: Tracer, seed: int, root: Path, workdir: Path, scale: str) -> None:
    """Call every measured package function a few times on a small seeded
    corpus, each call an ``op`` span, so that every per-layer metric has a
    value on every workload.  A metric whose function the workload's own
    loop calls is taken from the loop instead."""
    a = api(tr)
    step = lambda: tr.span("op")  # noqa: E731
    with step():
        g = _cli_graph(6, 54, 0.06, derive(seed, "probe"), tr)
        text = a.serialize_graph(g)
    path = workdir / "probe.tgg"
    path.write_text(text, encoding="utf-8")
    spec = spec_of("probe", g)
    argvs = _cli_mix(str(path), spec)
    chain = build(inputs.chain(300 if scale == "full" else DEEP_PASSES, 1))
    small = generate(RandomGraphSpec(2, 6, 0.3, ALL_RIGHTS, derive(seed, "probe-small")), None)
    islands = compute_islands(g)
    a0, a1, sink = spec.vid("a0"), spec.vid("a1"), spec.vid("sink")
    island_a, island_b = (islands[island_of(naive_islands(spec), v)] for v in (a0, a1))
    end = chain.vertex_count - 1
    with instrumented_cli(tr):
        for _ in range(3):
            for argv in argvs:
                with step():
                    cli_in_process(argv, tr)
    for _ in range(3):
        for call in (
            lambda: a.compute_islands(g),
            lambda: a.same_island(g, 0, 1),
            lambda: a.report_to_jsonable(g, a.bridge_exists(g, a0, a1, FWD)),
            lambda: a.validate_path(g, bridge_exists(g, a0, a1, FWD).path),
            lambda: a.bridge_exists(g, 0, sink, BWD),
            lambda: a.bridges_between_islands(g, island_a, island_b, FWD),
            lambda: a.bridge_exists(chain, 0, end, FWD),
            lambda: a.bridge_exists(chain, end, 0, FWD),
            lambda: a.bridge_exists_faithful(chain, 0, end, FWD),
            lambda: a.brute_force_bridge(small, 0, 1, FWD),
        ):
            with step():
                call()
    for _ in range(5):
        with step(), tr.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c", "import takegrant.cli"],
                cwd=root, env=child_env(root), check=True,
            )


def deep_growth(scale: str) -> dict[str, float]:
    """Time at 2n over time at n on the chain family, per engine.

    The frontier engine is linear in arcs, so its ratio should be near 2;
    the faithful engine re-scans the reached set every pass, near 4.
    """
    sizes = {"full": {"frontier": (1000, 5), "faithful": (150, 3)},
             "tiny": {"frontier": (20, 3), "faithful": (10, 3)}}[scale]
    engines = {"frontier": bridge_exists, "faithful": bridge_exists_faithful}
    ratios = {}
    for name, (n, reps) in sizes.items():
        medians = []
        for m in (n, 2 * n):
            g = build(inputs.chain(m, 1))
            times = []
            for _ in range(reps):
                start = time.perf_counter_ns()
                engines[name](g, 0, m + 1, FWD)
                times.append(time.perf_counter_ns() - start)
            medians.append(statistics.median(times))
        ratios[name] = medians[1] / medians[0]
    return ratios
