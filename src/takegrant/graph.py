"""Protection-graph data model and its text format.

A protection graph is a directed graph whose vertices are subjects or
objects and whose arcs carry a non-empty set of rights.  Between any
ordered vertex pair there is at most one arc: declaring the same pair
twice unions the rights, because every query in this package only cares
whether a given right is present on the pair.  Self-loops are legal and
harmless (no search can re-reach an already reached vertex).

Graphs are exchanged in the TGG text format::

    tgg 1
    # comment lines and blank lines are ignored
    subject alice
    object mailbox
    subject bob
    edge alice mailbox t
    edge mailbox bob tg

UTF-8, LF line endings, one statement per line, and the ``tgg 1``
header on the first line.  Vertex names match ``[A-Za-z0-9_.-]+`` and
must be declared before any edge uses them.  Rights strings are
non-empty words over ``t g r w``; repeated letters are ignored.
``serialize_graph`` always emits the canonical form (vertices in id
order, edges sorted by endpoint ids, rights in ``tgrw`` order), so
serialize -> parse -> serialize is byte-identical.

Input hygiene: CRLF line endings are accepted and parse to the same
graph as LF, because a carriage return is whitespace to the tokenizer.
A UTF-8 byte-order mark is not stripped, so such a file fails with
``expected header 'tgg 1'`` on line 1 (the CLI exits 2).

Vertex ids are dense integers in declaration order.  They are an
internal handle: every external format speaks vertex names.

Each arc is stored once, as a 4-bit rights mask in its source's dict,
one bit per right in ``RIGHT_ORDER`` (t=1, g=2, r=4, w=8); ``Right``
values appear only at the API and text-format boundary.  Arcs come in
through two writers: ``add_edge`` one at a time, and ``_insert_row`` a
run out of one source at a time; ``parse_graph`` hands it each stretch
of consecutive edge lines with the same source.  The take arcs, which
every bridge search walks, are also kept as per-vertex successor and
predecessor lists, appended to when an arc first gains ``t``.  The
graph's only neighbour queries, ``t_successors`` and ``t_predecessors``,
return sorted copies of them.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress
from typing import Iterable

from ._value import Value
from .errors import (
    DuplicateNameError,
    EmptyRightsError,
    InvalidNameError,
    InvalidRightError,
    ParseError,
    UnknownVertexError,
)

VertexId = int

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

TGG_HEADER = "tgg 1"


class VertexKind(Enum):
    """Active (subject) versus passive (object) vertex."""

    SUBJECT = "subject"
    OBJECT = "object"


# Read once here: a VertexKind.X lookup per vertex costs more than the
# comparison it feeds.
_SUBJECT = VertexKind.SUBJECT
_OBJECT = VertexKind.OBJECT


class Right(Enum):
    """Arc label.  Take and grant drive every algorithm here; read and
    write are stored for model completeness only."""

    T = "t"
    G = "g"
    R = "r"
    W = "w"


# Canonical order for rights strings in the text format.
RIGHT_ORDER = (Right.T, Right.G, Right.R, Right.W)

# Rights mask bits, in RIGHT_ORDER.
_BIT = {right: 1 << i for i, right in enumerate(RIGHT_ORDER)}
_T = _BIT[Right.T]
_TG = _T | _BIT[Right.G]
_LETTER_BIT = {right.value: bit for right, bit in _BIT.items()}

# Mask -> rights and mask -> canonical letters, for all 16 masks.
_RIGHTS = tuple(
    frozenset(right for right, bit in _BIT.items() if mask & bit) for mask in range(16)
)
_LETTERS = tuple("".join(right.value for right in RIGHT_ORDER if right in rs) for rs in _RIGHTS)
# Rights frozenset -> mask, for the 15 non-empty ones: add_edge maps
# these objects, the ones edges() hands out, in one lookup.
_MASK_OF = {rs: mask for mask, rs in enumerate(_RIGHTS) if mask}
# Mask -> its t bit, as a bytes.translate table over a row of masks.
_T_FLAG = bytes(mask & _T for mask in range(256))

# _insert_row takes a run of this many arcs or more out of a source with
# no arcs yet in one dict.update.  Measured on Python 3.11, that path and
# the per-arc loop cost about the same on 7 to 11 arcs; the loop is
# cheaper on fewer, the bulk path on more (0.6x the loop's time at 64).
_BULK_ROW = 8


class Edge(Value):
    """One merged arc: all rights the ordered pair (src, dst) carries."""

    __slots__ = ("src", "dst", "rights")
    src: VertexId
    dst: VertexId
    rights: frozenset[Right]


class ProtectionGraph:
    """Directed rights-labelled graph over named subject/object vertices.

    Arcs live in one store, ``_out``: a rights-mask dict per vertex, keyed
    by the arc's target.  Two methods write arcs, to the same effect:
    ``add_edge``, checked, one arc per call, for callers, and
    ``_insert_row``, unchecked, a run of arcs out of one source per call,
    for ``parse_graph`` and the generators.  The only index over the store
    is the t-lists, the per-vertex t-successor and t-predecessor lists,
    kept up to date, with a t-arc count, by ``add_vertex`` and both arc
    writers, so a query never writes arcs or t-lists: a fully built graph
    may be shared across threads for reading, while mutation needs
    exclusive access.  A query may fill two derived caches: the bit rows
    of ``_bit_rows``, which the next query after a mutation discards, and
    the island forest ``_island_forest``, which every writer drops.

    Kind has one record, ``_subject_id``: a vertex's own id for a
    subject, ``None`` for an object, so the frontier engine can copy it
    as its predecessor list with only objects unclaimed.  Id 0 is a
    subject's id too: kind tests read ``is None``, never truthiness.

    Inside the package, the frontier engine reads the t-lists, their
    counters and ``_subject_id`` directly, and the islands code reads
    ``_out`` and ``_subject_id`` and keeps ``_island_forest``.  The two
    reference engines in ``oracle`` read each far endpoint's kind in
    ``_subject_id``: the brute-force oracle reads the t-lists through
    ``t_successors``/``t_predecessors``, and the faithful engine
    re-scans ``_out`` (for backward walks, a flipped copy of its take
    arcs that ``oracle`` builds).  Nothing outside the package should.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._subject_id: list[VertexId | None] = []
        self._ids: dict[str, VertexId] = {}
        # The one arc store: _out[src][dst] is the rights mask of src -> dst.
        self._out: list[dict[VertexId, int]] = []
        # Per vertex, the other end of each t arc, in the order the t
        # bit first appeared on the pair (unsorted).
        self._t_succ: list[list[VertexId]] = []
        self._t_pred: list[list[VertexId]] = []
        # Objects that some t arc enters, and objects that some t arc leaves.
        self._t_entered_objects = 0
        self._t_left_objects = 0
        # Take arcs: every pair whose arc carries t, counted once.
        self._t_arcs = 0
        # The bit rows queries fill (see _bit_rows), or None before the first.
        self._row_cache: tuple | None = None
        # The union-find parents islands queries fill (see islands._forest),
        # or None before the first query after a write: every writer drops it.
        self._island_forest: list[VertexId] | None = None

    # ---- construction ------------------------------------------------

    def add_vertex(self, name: str, kind: VertexKind) -> VertexId:
        """Declare a vertex; returns its dense id (0, 1, 2, ...).

        A name that is not a ``str`` raises ``InvalidNameError`` and a kind
        that is not a ``VertexKind`` raises ``TypeError``, leaving the
        graph unchanged.
        """
        if not isinstance(name, str):
            raise InvalidNameError(f"vertex name must be a str, got {name!r}")
        # Any other kind would be neither subject nor object.
        if kind.__class__ is not VertexKind:
            raise TypeError(f"kind must be a VertexKind, got {kind!r}")
        if not _NAME_RE.match(name):
            raise InvalidNameError(
                f"vertex name must match [A-Za-z0-9_.-]+, got {name!r}"
            )
        if name in self._ids:
            raise DuplicateNameError(f"vertex {name!r} already declared")
        vid = len(self._names)
        self._names.append(name)
        self._subject_id.append(None if kind is _OBJECT else vid)
        self._ids[name] = vid
        self._out.append({})
        self._t_succ.append([])
        self._t_pred.append([])
        self._island_forest = None
        return vid

    def add_edge(self, src: VertexId, dst: VertexId, rights: Iterable[Right]) -> None:
        """Add an arc src -> dst; rights union with any existing arc on the pair.

        Every item of *rights* must be a ``Right``; otherwise
        ``InvalidRightError`` names the first bad item and the graph is
        left unchanged.  The frozensets ``edges()`` and ``rights_between``
        hand out are mapped to their masks in one dict lookup; any other
        iterable, an equal frozenset too, is read item by item.
        """
        n = len(self._names)
        # The checks _require makes, inlined for the common case of two
        # valid plain-int ids; _require names the bad one and passes any
        # other int subclass but bool.
        if not (src.__class__ is int and dst.__class__ is int and 0 <= src < n and 0 <= dst < n):
            self._require(src)
            self._require(dst)
        # Only edges()' own frozensets skip the loop: a set is unhashable,
        # and an equal frozenset may hold a non-Right that compares equal.
        mask = _MASK_OF.get(rights, 0) if rights.__class__ is frozenset else 0
        if not mask or _RIGHTS[mask] is not rights:
            mask = 0
            for right in rights:
                # A class check and a lookup by letter: hashing the member
                # itself would call the Python-level Enum.__hash__.
                if right.__class__ is not Right:
                    raise InvalidRightError(
                        f"arc {self._names[src]} -> {self._names[dst]}: {right!r} is not a Right"
                    )
                mask |= _LETTER_BIT[right._value_]
            if not mask:
                raise EmptyRightsError(f"arc {self._names[src]} -> {self._names[dst]} has no rights")
        # The same write as _insert_row's, per arc; keep the two alike.
        self._island_forest = None
        out = self._out[src]
        old = out.get(dst, 0)
        merged = out[dst] = old | mask
        if (merged ^ old) & _T:
            self._t_arcs += 1
            succ = self._t_succ[src]
            if not succ and self._subject_id[src] is None:
                self._t_left_objects += 1
            succ.append(dst)
            pred = self._t_pred[dst]
            if not pred and self._subject_id[dst] is None:
                self._t_entered_objects += 1
            pred.append(src)

    def _insert_row(self, src: VertexId, dsts: Iterable[VertexId], masks: bytes) -> None:
        """Union ``masks[i]`` into the arc src -> d, for the i-th target d
        that *dsts* yields, in order; ids already checked.

        The unchecked writer for ``parse_graph`` and the oracle's
        generators, called once per run of arcs out of one source.  A run
        of at least ``_BULK_ROW`` arcs out of a source with none yet goes
        into ``_out`` in one ``dict.update`` and has its t arcs picked out
        in C; any other run, and one that repeats a target, is unioned arc
        by arc.  Either way the graph ends up as ``add_edge`` called on
        each arc in order leaves it.
        """
        self._island_forest = None
        out = self._out[src]
        subject_id = self._subject_id
        t_pred = self._t_pred
        succ = self._t_succ[src]
        if not out and len(masks) >= _BULK_ROW:
            dsts = list(dsts)  # read again below
            out.update(zip(dsts, masks))
            if len(out) == len(dsts):
                fresh = list(compress(dsts, masks.translate(_T_FLAG)))
                if fresh:
                    # No arcs out of src yet, so no t-successors either.
                    if subject_id[src] is None:
                        self._t_left_objects += 1
                    self._t_arcs += len(fresh)
                    succ += fresh
                    entered = 0
                    for dst in fresh:
                        pred = t_pred[dst]
                        if not pred and subject_id[dst] is None:
                            entered += 1
                        pred.append(src)
                    self._t_entered_objects += entered
                return
            # A repeated target kept its last mask, not the union.
            out.clear()
        had = len(succ)
        for dst, mask in zip(dsts, masks):
            old = out.get(dst, 0)
            merged = out[dst] = old | mask
            if (merged ^ old) & _T:
                if not succ and subject_id[src] is None:
                    self._t_left_objects += 1
                succ.append(dst)
                pred = t_pred[dst]
                if not pred and subject_id[dst] is None:
                    self._t_entered_objects += 1
                pred.append(src)
        self._t_arcs += len(succ) - had

    # ---- vertex queries ----------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._out)

    def vertex_name(self, v: VertexId) -> str:
        self._require(v)
        return self._names[v]

    def vertex_kind(self, v: VertexId) -> VertexKind:
        self._require(v)
        return _OBJECT if self._subject_id[v] is None else _SUBJECT

    def vertex_id(self, name: str) -> VertexId:
        """Id of the named vertex; raises UnknownVertexError if absent."""
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownVertexError(f"no vertex named {name!r}") from None

    def subjects(self) -> list[VertexId]:
        return [v for v in self._subject_id if v is not None]

    def objects(self) -> list[VertexId]:
        return [v for v, sid in enumerate(self._subject_id) if sid is None]

    # ---- arc queries ---------------------------------------------------

    def rights_between(self, src: VertexId, dst: VertexId) -> frozenset[Right]:
        """Rights on the arc src -> dst; empty frozenset when there is none."""
        self._require(src)
        self._require(dst)
        return _RIGHTS[self._out[src].get(dst, 0)]

    def t_successors(self, v: VertexId) -> list[VertexId]:
        """Targets of the t arcs v -> w, in ascending id order."""
        # _require's checks, inlined for a plain in-range int as in add_edge.
        if not (v.__class__ is int and 0 <= v < len(self._names)):
            self._require(v)
        return sorted(self._t_succ[v])

    def t_predecessors(self, v: VertexId) -> list[VertexId]:
        """Sources of the t arcs w -> v, in ascending id order."""
        if not (v.__class__ is int and 0 <= v < len(self._names)):
            self._require(v)
        return sorted(self._t_pred[v])

    def _bit_rows(self, forward: bool) -> tuple[int, list[VertexId], list[int | None]]:
        """The objects as one int (bit v set for each object v), the ids
        0 to n - 1 as one shared list, and one walk direction's row
        cache, for the bit-row pass in ``bridges``.

        Row v of the forward (backward) cache, once a query fills it, has
        bit w set for each t arc v -> w (w -> v): v's t-list as one int.
        Arcs are never removed, so the t-arc count and the vertex count
        pin the t-lists; the first call after either changes starts empty
        caches, and the writers never touch them.  Two queries running at
        once may both fill a row, with the same value; arcs and t-lists
        are never written.
        """
        key = (self._t_arcs, len(self._names))
        cache = self._row_cache
        if cache is None or cache[0] != key:
            n = key[1]
            # A "1" per object, highest id first, read as a binary numeral.
            objects = int(bytes([49 if sid is None else 48 for sid in reversed(self._subject_id)]), 2)
            cache = self._row_cache = (key, objects, list(range(n)), [None] * n, [None] * n)
        return cache[1], cache[2], cache[3 if forward else 4]

    def edges(self) -> list[Edge]:
        """Every merged arc, sorted by (src, dst)."""
        return [
            Edge(src, dst, _RIGHTS[mask])
            for src, adj in enumerate(self._out)
            for dst, mask in sorted(adj.items())
        ]

    def _without_arcs(self) -> ProtectionGraph:
        """New graph with copies of this graph's vertex tables and no arcs."""
        n = len(self._names)
        g = ProtectionGraph()
        g._names = self._names.copy()
        g._subject_id = self._subject_id.copy()
        g._ids = self._ids.copy()
        g._out = [{} for _ in range(n)]
        g._t_succ = [[] for _ in range(n)]
        g._t_pred = [[] for _ in range(n)]
        return g

    # ---- dunder ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: named vertices in order, merged arc sets."""
        if not isinstance(other, ProtectionGraph):
            return NotImplemented
        return (
            self._names == other._names
            and self._subject_id == other._subject_id
            and self._out == other._out
        )

    def __repr__(self) -> str:
        return f"ProtectionGraph(vertices={self.vertex_count}, edges={self.edge_count})"

    def _require(self, v: VertexId) -> None:
        # bool is an int subclass, but True is no vertex id.
        if not isinstance(v, int) or v.__class__ is bool or not 0 <= v < len(self._names):
            raise UnknownVertexError(f"vertex id {v!r} is not in this graph")


def new_graph() -> ProtectionGraph:
    """Empty graph."""
    return ProtectionGraph()


def parse_graph(text: str) -> ProtectionGraph:
    """Build a graph from TGG text; raises ParseError with a line number."""
    lines = text.split("\n")
    if not lines or lines[0].split() != TGG_HEADER.split():
        raise ParseError(1, f"expected header {TGG_HEADER!r}")
    g = ProtectionGraph()
    ids = g._ids
    write = g._insert_row
    # Consecutive edge lines out of one source, written as one row when
    # the source changes or the text ends.
    row_src = None
    row_dsts: list[VertexId] = []
    row_masks = bytearray()
    # Mask of each rights word seen so far in this text.  A word with a
    # bad letter raises before it is stored, so it fails on every line.
    masks: dict[str, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        # Well-formed edge lines first: they are almost every line.
        if len(tokens) == 4 and tokens[0] == "edge":
            _, src_name, dst_name, rights_word = tokens
            src = ids.get(src_name)
            if src is None:
                raise ParseError(lineno, f"unknown vertex {src_name!r}")
            dst = ids.get(dst_name)
            if dst is None:
                raise ParseError(lineno, f"unknown vertex {dst_name!r}")
            mask = masks.get(rights_word)
            if mask is None:
                mask = 0
                for ch in rights_word:
                    bit = _LETTER_BIT.get(ch)
                    if bit is None:
                        raise ParseError(lineno, f"bad right letter {ch!r}")
                    mask |= bit
                masks[rights_word] = mask
            if src != row_src:
                if row_dsts:
                    write(row_src, row_dsts, row_masks)
                    row_dsts = []
                    row_masks = bytearray()
                row_src = src
            row_dsts.append(dst)
            row_masks.append(mask)
            continue
        if not tokens or tokens[0].startswith("#"):
            continue
        keyword = tokens[0]
        if keyword == "edge":
            raise ParseError(lineno, "expected 'edge <from> <to> <rights>'")
        elif keyword in ("subject", "object"):
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected '{keyword} <name>'")
            name = tokens[1]
            if not _NAME_RE.match(name):
                raise ParseError(lineno, f"bad vertex name {name!r}")
            if name in ids:
                raise ParseError(lineno, f"duplicate vertex {name!r}")
            g.add_vertex(name, _SUBJECT if keyword == "subject" else _OBJECT)
        else:
            raise ParseError(lineno, f"unknown keyword {keyword!r}")
    if row_dsts:
        write(row_src, row_dsts, row_masks)
    return g


def serialize_graph(g: ProtectionGraph) -> str:
    """Canonical TGG text for *g*; parse_graph(serialize_graph(g)) == g."""
    names = g._names
    out = [TGG_HEADER]
    for name, sid in zip(names, g._subject_id):
        out.append(f"object {name}" if sid is None else f"subject {name}")
    for src, adj in enumerate(g._out):
        for dst, mask in sorted(adj.items()):
            out.append(f"edge {names[src]} {names[dst]} {_LETTERS[mask]}")
    return "\n".join(out) + "\n"
