"""Golden differential digests: today's outputs, pinned bit for bit.

The three-way agreement tests catch an engine that disagrees with the
other two; they cannot catch a change that moves all three together, or
one that only changes formatting.  This file hashes what the package
hands out -- both engines' reports, islands, inter-island bridges, TGG
text, report JSON and CLI bytes and exit codes -- over a corpus built
only from pinned generators, and compares each part with the digest
recorded in ``GOLDEN``.

Each part is a list of records, one per input, each a JSON string of
plain values (no set or frozenset reprs, so nothing depends on
``PYTHONHASHSEED``).  A part's digest is the sha256 of its records;
beside it ``GOLDEN`` keeps one 8-hex-digit digest per block of
``_BLOCK`` records (one per record for the CLI calls), so a failure
names the part that moved and the first block of inputs that differs.

After a deliberate change of output, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change
log which parts moved and why.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

import takegrant.cli as cli
from takegrant import (
    Direction,
    ProtectionGraph,
    RandomGraphSpec,
    Right,
    VertexKind,
    bridge_exists,
    bridge_exists_faithful,
    bridges_between_islands,
    compute_islands,
    enumerate_t_arc_graphs,
    random_graph,
    report_to_jsonable,
    serialize_graph,
)

from helpers import LENGTH2_BRIDGE_TGG, SplitMix64

BOTH = (Direction.FORWARD, Direction.BACKWARD)

# Records per block digest in the graph parts, and hex digits kept of
# each block digest.
_BLOCK = 64
_HEX = 8

# Interleaved kinds, so id order and kind order differ.
_FOUR = [
    ("s0", VertexKind.SUBJECT),
    ("o0", VertexKind.OBJECT),
    ("s1", VertexKind.SUBJECT),
    ("o1", VertexKind.OBJECT),
]


def _record(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


@functools.cache
def _t_arc4() -> list[tuple[str, ProtectionGraph]]:
    """All 4,096 t-arc graphs over ``_FOUR``."""
    return [(f"t-arc graph #{k}", g) for k, g in enumerate(enumerate_t_arc_graphs(_FOUR))]


@functools.cache
def _mixed() -> list[tuple[str, ProtectionGraph]]:
    """300 seeded graphs with all four rights, 1-4 subjects and 0-5 objects."""
    corpus = []
    for i in range(300):
        spec = RandomGraphSpec(1 + i % 4, i % 6, (0.15, 0.3, 0.5)[i % 3], frozenset(Right),
                               seed=110_000 + i)
        corpus.append((f"mixed graph seed {spec.seed}", random_graph(spec)))
    return corpus


@functools.cache
def _feeders() -> list[tuple[str, ProtectionGraph]]:
    """40 seeded graphs of three islands of 2-3 subjects, each island a
    g chain, with objects declared between them.  Every ordered pair
    that is not two subjects carries a t arc with probability 0.4, so a
    goal of a multi-goal search is often fed by several vertices of one
    pass, and only the smallest of them may claim it."""
    corpus = []
    for i in range(40):
        rng = SplitMix64(120_000 + i)
        g = ProtectionGraph()
        ids = []
        for k, size in enumerate((2 + i % 2, 2 + i // 2 % 2, 2)):
            members = [g.add_vertex(f"s{k}_{j}", VertexKind.SUBJECT) for j in range(size)]
            for a, b in zip(members, members[1:]):
                g.add_edge(a, b, {Right.G})
            ids += members
            ids += [g.add_vertex(f"o{k}_{j}", VertexKind.OBJECT) for j in range(1 + (i + k) % 3)]
        for a in ids:
            for b in ids:
                both_subjects = g.vertex_kind(a) is g.vertex_kind(b) is VertexKind.SUBJECT
                if a != b and not both_subjects and rng.next_unit() < 0.4:
                    g.add_edge(a, b, {Right.T})
        corpus.append((f"feeder graph seed {120_000 + i}", g))
    return corpus


def _both() -> list[tuple[str, ProtectionGraph]]:
    return _t_arc4() + _mixed()


def _pairs(g: ProtectionGraph):
    n = g.vertex_count
    return [(s, f, d) for d in BOTH for s in range(n) for f in range(n) if s != f]


def _report(r) -> list:
    path = None if r.path is None else [r.path.vertices, r.path.direction.value]
    return [r.exists, r.direction.value, path, r.passes, r.frontier_trace]


def _reports(engine, corpus):
    return [
        (label, _record([_report(engine(g, s, f, d)) for s, f, d in _pairs(g)]))
        for label, g in corpus
    ]


def _islands(corpus):
    return [
        (label, _record([[i.index, i.members] for i in compute_islands(g)]))
        for label, g in corpus
    ]


def _between(corpus):
    records = []
    for label, g in corpus:
        islands = compute_islands(g)
        found = [
            [a.index, b.index, d.value, [[s, f, p.vertices] for s, f, p in
                                         bridges_between_islands(g, a, b, d)]]
            for d in BOTH for a in islands for b in islands if a.index != b.index
        ]
        records.append((label, _record(found)))
    return records


def _json(corpus):
    return [
        (label, _record([json.dumps(report_to_jsonable(g, bridge_exists(g, s, f, d)))
                         for s, f, d in _pairs(g)]))
        for label, g in corpus
    ]


_DIRECT_ARC_TGG = "tgg 1\nsubject s\nsubject f\nedge s f t\n"

# (argv, stdin text) for each in-process main() call.
_CLI_CALLS = [
    (["islands", "-"], LENGTH2_BRIDGE_TGG),
    (["islands", "-"], "mixed"),
    (["islands", "-"], "tgg 1\nsubject s\nedge s x t\n"),
    (["islands", "no/such/dir/graph.tgg"], ""),
    (["bridge", "-", "s", "f"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "f", "--path"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "f", "--json"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "f", "--backward"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "f", "--backward", "--json"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "f", "s", "--backward", "--path"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "f", "--path"], _DIRECT_ARC_TGG),
    (["bridge", "-", "s0", "s3", "--json"], "mixed"),
    (["bridge", "-", "s3", "s1", "--backward", "--path"], "mixed"),
    (["bridge", "-", "s", "s"], LENGTH2_BRIDGE_TGG),
    (["bridge", "-", "s", "nobody"], LENGTH2_BRIDGE_TGG),
    (["bridges", "-", "0", "1"], LENGTH2_BRIDGE_TGG),
    (["bridges", "-", "0", "1", "--backward"], LENGTH2_BRIDGE_TGG),
    (["bridges", "-", "0", "1"], "mixed"),
    (["bridges", "-", "1", "0", "--backward"], "mixed"),
    (["bridges", "-", "0", "0"], LENGTH2_BRIDGE_TGG),
    (["bridges", "-", "0", "9"], LENGTH2_BRIDGE_TGG),
    (["check", "--trials", "40", "--seed", "5"], ""),
    (["check", "--subjects", "1"], ""),
    (["gen", "--subjects", "3", "--objects", "5", "--p", "0.2", "--rights", "tgrw", "--seed", "11"], ""),
    (["gen", "--p", "2"], ""),
    (["gen", "--rights", "xyz"], ""),
    ([], ""),
    (["bridge", "--help"], ""),
]


def _cli_mixed_text() -> str:
    return serialize_graph(random_graph(RandomGraphSpec(4, 8, 0.12, frozenset(Right), seed=22)))


def _cli():
    records = []
    # argparse wraps usage and help text to $COLUMNS.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv, text in _CLI_CALLS:
            stdin = io.StringIO(_cli_mixed_text() if text == "mixed" else text)
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's --help and usage errors
                    code = exc.code
            records.append((f"cli: takegrant {' '.join(argv)}", _record([code, out.getvalue(), err.getvalue()])))
    return records


# Part name -> (records builder, records per block digest).
PARTS = {
    "reports.frontier.t_arc4": (lambda: _reports(bridge_exists, _t_arc4()), _BLOCK),
    "reports.faithful.t_arc4": (lambda: _reports(bridge_exists_faithful, _t_arc4()), _BLOCK),
    "reports.frontier.mixed": (lambda: _reports(bridge_exists, _mixed()), _BLOCK),
    "reports.faithful.mixed": (lambda: _reports(bridge_exists_faithful, _mixed()), _BLOCK),
    "islands": (lambda: _islands(_both()), _BLOCK),
    "bridges_between_islands": (lambda: _between(_both()), _BLOCK),
    "bridges_between_islands.feeders": (lambda: _between(_feeders()), 1),
    "serialize_graph": (lambda: [(label, serialize_graph(g)) for label, g in _both()], _BLOCK),
    "report_json.mixed": (lambda: _json(_mixed()), _BLOCK),
    "cli": (_cli, 1),
}


def _digests(records: list[tuple[str, str]], block: int) -> tuple[str, str]:
    """The part's sha256 and its block digests, concatenated."""
    whole = hashlib.sha256()
    blocks = []
    for lo in range(0, len(records), block):
        h = hashlib.sha256()
        for _, record in records[lo:lo + block]:
            data = record.encode() + b"\n"
            whole.update(data)
            h.update(data)
        blocks.append(h.hexdigest()[:_HEX])
    return whole.hexdigest(), "".join(blocks)


@pytest.mark.parametrize("part", PARTS)
def test_golden_digest(part):
    build, block = PARTS[part]
    records = build()
    digest, blocks = _digests(records, block)
    want_digest, want_blocks = GOLDEN[part]
    if digest == want_digest:
        return
    got = [blocks[i:i + _HEX] for i in range(0, len(blocks), _HEX)]
    want = [want_blocks[i:i + _HEX] for i in range(0, len(want_blocks), _HEX)]
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            lo, hi = k * block, min((k + 1) * block, len(records)) - 1
            where = (
                f"input #{lo}, {records[lo][0]}" if lo == hi
                else f"block of inputs #{lo}..#{hi}, {records[lo][0]} .. {records[hi][0]}"
            )
            pytest.fail(f"golden part {part!r} moved; first difference in {where}")
    pytest.fail(f"golden part {part!r} moved: {len(got)} blocks of inputs, {len(want)} recorded")


# Recorded at the commit before "t_successors"/"t_predecessors" replaced
# the any-right neighbour queries; that change left every part as it was.
# "bridges_between_islands.feeders" was added later, recorded at the
# commit before add_edge gained its frozenset lookup.
GOLDEN: dict[str, tuple[str, str]] = {
    "reports.frontier.t_arc4": (
        "2b7ec480b8e3b4fce2c29cb89efcf32f1581081dd7caa00d110b14461843171c",
        "dc29e9b20dfe7575f72359636266124be872c9b5c882ca0bc0c48bfa4b79d135966f83fc"
        "b4c0173db671b60d98ecf3df7142d4dfa677484607e98ceb0e6844f78b098284820df803"
        "7942528198c3a66b687183d14eafc58978de9b760f1963851d0a86c2c354f2517bca6eb8"
        "a3d525e5a974f90cca517653e70a2ded42f4f37345a0b0ab5b8c93adf21c1033da8574e1"
        "d2047cfdc52745df1415ffceaee2f48cd8f4a15a6c301403e91435102497bc68a8834958"
        "1bcc29255a9acd9408e44d4608f4d82d9ce9cba04dabd1e94e25f1a67ddac2d12f598061"
        "fecbc57a30cbf175a65b35a75dda16021e56b7d3fef78e936dfb66e2e4869a6441518821"
        "aa38e64c",
    ),
    "reports.faithful.t_arc4": (
        "2b7ec480b8e3b4fce2c29cb89efcf32f1581081dd7caa00d110b14461843171c",
        "dc29e9b20dfe7575f72359636266124be872c9b5c882ca0bc0c48bfa4b79d135966f83fc"
        "b4c0173db671b60d98ecf3df7142d4dfa677484607e98ceb0e6844f78b098284820df803"
        "7942528198c3a66b687183d14eafc58978de9b760f1963851d0a86c2c354f2517bca6eb8"
        "a3d525e5a974f90cca517653e70a2ded42f4f37345a0b0ab5b8c93adf21c1033da8574e1"
        "d2047cfdc52745df1415ffceaee2f48cd8f4a15a6c301403e91435102497bc68a8834958"
        "1bcc29255a9acd9408e44d4608f4d82d9ce9cba04dabd1e94e25f1a67ddac2d12f598061"
        "fecbc57a30cbf175a65b35a75dda16021e56b7d3fef78e936dfb66e2e4869a6441518821"
        "aa38e64c",
    ),
    "reports.frontier.mixed": (
        "3fdafa8534480a82fe3b6e37e2c6b66e56d1779241bf04bc77927a936167c86a",
        "d23c47138d935b068c9b0597e620ee9cc3c11452",
    ),
    "reports.faithful.mixed": (
        "3fdafa8534480a82fe3b6e37e2c6b66e56d1779241bf04bc77927a936167c86a",
        "d23c47138d935b068c9b0597e620ee9cc3c11452",
    ),
    "islands": (
        "8a773cca97825db03c02118012a1f6bcb39aab9d1da43071f46b6f47e4300254",
        "a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd6"
        "6de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07"
        "a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd6"
        "6de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07"
        "a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd6"
        "6de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07"
        "a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd66de01a07a45e0bd6"
        "6de01a074fc50dee25ec50b7e0cf1f1acd9b7b5b0b7672f0",
    ),
    "bridges_between_islands": (
        "48ee4647c78b25506a04c1eb79ef9e86238ce529d1c41a5647a14b109a1113e1",
        "d358e04df9c39711c4b16ea7f9c39711d358e04df9c39711c4b16ea7f9c39711d358e04d"
        "f9c39711d038fd94f9c39711a5e562e5f9c3971190762478f9c397118d7dc10df9c39711"
        "b45fa666f9c397110baa6609f9c39711b45fa666f9c397118d7dc10df9c3971104851fe2"
        "f9c397117beb29eaf9c39711381a1ddff9c39711bf3ce8def9c397115cf47d93f9c39711"
        "bf3ce8def9c397115cf47d93f9c39711bf3ce8def9c39711e91669bbf9c397118a805aae"
        "f9c39711ed40e704f9c39711bf3ce8def9c397115cf47d93f9c39711d3f2539cf9c39711"
        "5cf47d93f9c39711bf3ce8def9c39711e91669bbf9c397118a805aaef9c39711ed40e704"
        "f9c39711bc9d84a36e18c2ac76ca7e2f8ea2ef3ee6e8e251",
    ),
    "bridges_between_islands.feeders": (
        "10d24278b10d240fce7ba8d6b0a147055341924d877d5ad52315b125ceaa199c",
        "3c959892894c1a4eccee6ec478a08d7e7c345ae05accc5e127561d10b56675859665eb82"
        "227bbaf8fcd5b1aeedca404b41bd36a3aea96e7d3c2d13688caff544b9f49ba6b72befa9"
        "4d157c0ccaa642814c2f44f1dcae43c1b1a3a441012b45bed91b1894155bdaaf5f246c53"
        "b22c0a8b98addacea75afb377cbc2528812f70c62c8cbdc6de6e3375bb88807d146fa0fe"
        "680d7ed3f97432ceae18e76d1945b442",
    ),
    "serialize_graph": (
        "ba59d7f9ff38ccbeae6bc6e2a5985d6dbad9deb10afd357d914454f42ceafeea",
        "336b3d3c60046c9310758191feadb55890dc7c1e49d915626e219d3ba4ec8caf2ae3fbad"
        "94e77382e5b50ec6157eefe2f82240016244ee1e4a866d35aa5668c047d3d5aa6af3865b"
        "8fc153fa71909104995c67b75b506b8ae8cd8a0835f1161098d6048734334e5685e24369"
        "3d3a55ea96885b2e6801870ded739e6c07c910752083a181cc5862c9279603a99037bee0"
        "dd1759ab7988eef1b6b9c3a7ff6c033c6d5a32f1d539b86c636e29ef6627df496c2569a7"
        "362cad892bcfdf566ae5c0fbffb8a04f2fd084d237fb979a81cda7190d86287d997923a8"
        "9427615475a124692e47d91613999a341aead838ed0b6815ca1e4d12fa7a0dc070154c22"
        "f0e03c585315d7c22e6c31854ac534e424573b3f251e8255",
    ),
    "report_json.mixed": (
        "b6068ad55f7732dcb5339cf3e7c05bea7d9ebccef16d63e1e8a15888fa579367",
        "04eb3e90a53815aaeb95308c13b0c0a6af317359",
    ),
    "cli": (
        "146072a06c3e55d2e17bb4b4bdfeae911888bc6bb11abcfaeb5d0e0969bc2e62",
        "6b7b130f318a9be6d8d26c92ff6bb801d9521d0c724df0bd0a9aaf87a59b9561e18a3ba3"
        "8ead5fcc84ae33f357c7a85e8c2e5581f14aa4e27951dd4f0d77df50d6ea72039a1c02e7"
        "02be7088e6ec185fd3a35c04561c79f23c6668ea761eaea0f44862ff54126105ba22b1bc"
        "027a0ddb",
    ),
}


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[str, str]] = {")
    for name, (build, block) in PARTS.items():
        digest, blocks = _digests(build(), block)
        lines = [blocks[i:i + 72] for i in range(0, len(blocks), 72)]
        print(f'    "{name}": (\n        "{digest}",')
        print("\n".join(f'        "{line}"' for line in lines) + ",\n    ),")
    print("}")
