"""Command-line front end.

Exit codes are the scripting contract: 0 success (for queries: bridge
found), 1 query answered negative, 2 usage or input error (including
input that is not UTF-8), 3 internal invariant violation or any other
unexpected failure.  A crash must never exit 1, which would read as
"no bridge".  Every subcommand that reads a graph accepts a file path
or ``-`` for stdin, which is decoded as a file is (strict UTF-8,
universal newlines).  A closed standard input (for a graph read from
``-``) or a closed standard output (for every subcommand but
``gen -o FILE``) exits 2 with one ``error:`` line; a closed standard
output is caught before any work is done.  For every subcommand and
for ``--help``, a standard output that is closed, full or a broken pipe
exits 2, whatever the buffering, and no call exits 120 (Python's code
for a failed flush at exit): ``entry`` flushes both standard streams
itself while it can still choose the code.  A diagnostic that cannot be
written to standard error is dropped and never changes the exit code.

``entry`` (the console script and ``python -m takegrant.cli``) then ends
the process with ``os._exit``, skipping interpreter teardown (module
finalization and the final garbage collection), which is a fixed cost
of every call.  So ``atexit`` handlers registered by other code do not
run; this package registers none.  ``main`` returns its code and is the
function to call from inside a Python process.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path
from typing import NoReturn, Sequence, TextIO

from .bridges import (
    Direction,
    bridge_exists,
    bridges_between_islands,
    report_to_jsonable,
    validate_path,
)
from .errors import (
    EmptySpecError,
    InvariantViolationError,
    ParseError,
    SameIslandError,
    SameVertexError,
    UnknownVertexError,
)
from .graph import ProtectionGraph, Right, VertexKind, parse_graph, serialize_graph
from .islands import compute_islands

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_graph(path: str) -> ProtectionGraph:
    if path != "-":
        return parse_graph(Path(path).read_text(encoding="utf-8"))
    stdin = sys.stdin
    if stdin is None:  # the process was started with file descriptor 0 closed
        raise OSError("cannot read the graph from stdin: standard input is closed")
    if isinstance(stdin, io.TextIOWrapper):
        # A byte stream: decode it as a file is decoded (strict UTF-8,
        # universal newlines); under the C locale it would otherwise pass
        # bad bytes through as surrogate escapes.  A stream of str, such
        # as io.StringIO, has nothing to decode.
        stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
    return parse_graph(stdin.read())


def _direction(args: argparse.Namespace) -> Direction:
    return Direction.BACKWARD if args.backward else Direction.FORWARD


def _stdout() -> TextIO:
    # Python sets sys.stdout to None when it starts with fd 1 closed, and
    # print() then drops the output silently.
    if sys.stdout is None:
        raise OSError("cannot write the output to stdout: standard output is closed")
    return sys.stdout


def _diagnose(line: str) -> None:
    """Print *line* on stderr, or drop it if stderr is closed or fails."""
    try:
        if sys.stderr is not None:  # None: the process started with fd 2 closed
            print(line, file=sys.stderr)
    except OSError:
        sys.stderr = None  # drop the failed stream: no later line or flush retries it


def _usage_error(message: str) -> int:
    _diagnose(f"error: {message}")
    return EXIT_USAGE


def _cmd_islands(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    for island in compute_islands(g):
        names = " ".join(g.vertex_name(v) for v in island.members)
        print(f"island {island.index}: {names}")
    return EXIT_FOUND


def _cmd_bridge(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    s = g.vertex_id(args.source)
    f = g.vertex_id(args.target)
    direction = _direction(args)
    report = bridge_exists(g, s, f, direction)
    if report.path is not None:
        validate_path(g, report.path)
        if (
            report.path.length == 1
            and g.vertex_kind(s) is VertexKind.SUBJECT
            and g.vertex_kind(f) is VertexKind.SUBJECT
        ):
            _diagnose(
                f"warning: {args.source} and {args.target} share a direct t arc, "
                "so they sit in the same island; this is not an inter-island bridge"
            )
    if args.json:
        import json  # here only: most calls print no JSON, and importing it costs start-up time

        print(json.dumps(report_to_jsonable(g, report)))
    else:
        arrow = "t->*" if direction is Direction.FORWARD else "t<-*"
        head = f"bridge {arrow} {args.source} ~> {args.target}:"
        if report.exists:
            print(f"{head} FOUND (length {report.path.length}, passes {report.passes})")
            if args.path:
                print("path: " + " ".join(g.vertex_name(v) for v in report.path.vertices))
        else:
            print(f"{head} NOT FOUND (passes {report.passes})")
    return EXIT_FOUND if report.exists else EXIT_NOT_FOUND


def _cmd_bridges(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    islands = compute_islands(g)
    for index in (args.island_a, args.island_b):
        if not 0 <= index < len(islands):
            return _usage_error(f"island index {index} out of range; graph has {len(islands)} islands")
    if args.island_a == args.island_b:
        return _usage_error("island indices must differ")
    found = bridges_between_islands(
        g, islands[args.island_a], islands[args.island_b], _direction(args)
    )
    for s, f, path in found:
        names = " ".join(g.vertex_name(v) for v in path.vertices)
        print(f"{g.vertex_name(s)} ~> {g.vertex_name(f)}: {names}")
    return EXIT_FOUND if found else EXIT_NOT_FOUND


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 0:
        return _usage_error("--trials must be >= 0")
    if not 0.0 <= args.p <= 1.0:
        return _usage_error("--p must be in [0, 1]")
    if args.subjects < 2:
        return _usage_error("check needs at least 2 subjects for its query endpoints")
    if args.objects < 0:
        return _usage_error("--objects must be >= 0")
    # Here, not at the top: the queries never need the oracle module.
    from .oracle import RandomGraphSpec, bridge_exists_faithful, brute_force_bridge, random_graph

    # Rights beyond t are generated as noise: a correct search never
    # reacts to them, so disagreement flags label-filtering bugs too.
    pool = frozenset(Right)
    agree = 0
    named = False
    for trial in range(args.trials):
        seed = args.seed + trial
        g = random_graph(RandomGraphSpec(args.subjects, args.objects, args.p, pool, seed))
        s, f = 0, 1  # the first two subjects
        ok = True
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            fast = bridge_exists(g, s, f, direction)
            slow = bridge_exists_faithful(g, s, f, direction)
            witness = brute_force_bridge(g, s, f, direction)
            if fast != slow:
                pair = "frontier vs faithful"
            elif (witness and witness.length) != (fast.path and fast.path.length) or (
                witness is not None and witness.vertices > fast.path.vertices
            ):
                # Both return a shortest path, so the lengths agree too, and
                # the oracle's is the smallest id sequence of that length.
                pair = "frontier vs brute force"
            else:
                continue
            ok = False
            if not named:
                # The same spec with --rights tgrw makes gen write this graph.
                _diagnose(
                    f"first disagreement: seed {seed}, {direction.value}, {pair}; replay: "
                    f"takegrant gen --subjects {args.subjects} --objects {args.objects} "
                    f"--p {args.p} --rights tgrw --seed {seed}"
                )
                named = True
        if ok:
            agree += 1
    print(f"{agree}/{args.trials} agree")
    return EXIT_FOUND if agree == args.trials else EXIT_INTERNAL


def _cmd_gen(args: argparse.Namespace) -> int:
    if not 0.0 <= args.p <= 1.0:
        return _usage_error("--p must be in [0, 1]")
    if args.subjects < 0 or args.objects < 0:
        return _usage_error("vertex counts must be >= 0")
    from .oracle import RandomGraphSpec, random_graph

    spec = RandomGraphSpec(args.subjects, args.objects, args.p, frozenset(args.rights), args.seed)
    text = serialize_graph(random_graph(spec))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return EXIT_FOUND


def _rights_arg(text: str) -> tuple[Right, ...]:
    try:
        return tuple(Right(ch) for ch in text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rights must be letters from 'tgrw', got {text!r}")


def _add_graph_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subjects", type=int, default=2, help="number of subject vertices")
    parser.add_argument("--objects", type=int, default=4, help="number of object vertices")
    parser.add_argument("--p", type=float, default=0.3, help="per-(pair, right) arc probability")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer drops a failed write; this one lets it
        # reach main's OSError clause, as any other output does.
        (file or _stdout()).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="takegrant",
        description="Island and t-bridge analysis for Take-Grant protection graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("islands", help="list maximal tg-connected subject groups")
    p.add_argument("file", help="TGG graph file, or - for stdin")
    p.set_defaults(func=_cmd_islands)

    p = sub.add_parser("bridge", help="search one s ~> f bridge")
    p.add_argument("file", help="TGG graph file, or - for stdin")
    p.add_argument("source", help="start vertex name")
    p.add_argument("target", help="final vertex name")
    p.add_argument("--backward", action="store_true", help="walk t arcs against their direction (t<-*)")
    p.add_argument("--json", action="store_true", help="emit the full search report as JSON")
    p.add_argument("--path", action="store_true", help="also print the witness path")
    p.set_defaults(func=_cmd_bridge)

    p = sub.add_parser("bridges", help="enumerate bridges between two islands")
    p.add_argument("file", help="TGG graph file, or - for stdin")
    p.add_argument("island_a", type=int, help="index of the start island")
    p.add_argument("island_b", type=int, help="index of the final island")
    p.add_argument("--backward", action="store_true", help="walk t arcs against their direction (t<-*)")
    p.set_defaults(func=_cmd_bridges)

    p = sub.add_parser("check", help="audit the search engines against the brute-force oracle")
    _add_graph_spec_flags(p)
    p.add_argument("--trials", type=int, default=1000, help="number of random graphs to audit")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a random TGG graph file")
    _add_graph_spec_flags(p)
    p.add_argument("--rights", type=_rights_arg, default=(Right.T, Right.G), help="rights pool, e.g. tg")
    p.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Fail early on a closed stdout; gen -o FILE is the one
        # subcommand that need not write to it.
        if getattr(args, "output", "-") == "-":
            _stdout()
        return args.func(args)
    except (
        ParseError, UnknownVertexError, SameVertexError, SameIslandError, EmptySpecError, OSError
    ) as exc:
        return _usage_error(str(exc))
    except UnicodeDecodeError as exc:
        return _usage_error(f"input is not valid UTF-8: {exc}")
    except InvariantViolationError as exc:
        _diagnose(f"internal error: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # any other crash must still not exit 1
        _diagnose(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entry() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code."""
    try:
        code = main()
    except SystemExit as exc:  # argparse exits by itself for --help and usage errors
        code = exc.code
    # Buffered output may still be pending; a write that fails here must
    # still reach the exit code.  Codes 2 and 3 already name a failure.
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = max(code, _usage_error(str(exc)))
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # a lost diagnostic never changes the exit code
    os._exit(code)


if __name__ == "__main__":
    entry()
