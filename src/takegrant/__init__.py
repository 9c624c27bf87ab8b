"""Take-Grant protection-graph analysis.

Model an access-control state as a directed graph of subjects and
objects whose arcs carry take/grant/read/write rights, compute islands
(maximal tg-connected subject groups), and decide whether two vertices
are linked by a t-bridge: a simple path through object vertices whose
arcs all carry take, walked with or against arc direction.  Two
reference engines (a re-scanning one and a brute-force oracle) and
deterministic generators back the test suite; they live in ``oracle``,
which loads on first use.  The ``takegrant`` CLI fronts the library.
"""

from .bridges import (
    BridgePath,
    Direction,
    SearchReport,
    bridge_exists,
    bridges_between_islands,
    find_bridge_path,
    report_to_jsonable,
    validate_path,
)
from .errors import (
    DuplicateNameError,
    EmptyRightsError,
    EmptySpecError,
    InvalidNameError,
    InvalidRightError,
    InvariantViolationError,
    NotASubjectError,
    ParseError,
    SameIslandError,
    SameVertexError,
    TakeGrantError,
    TooLargeError,
    UnknownVertexError,
)
from .graph import (
    RIGHT_ORDER,
    Edge,
    ProtectionGraph,
    Right,
    VertexId,
    VertexKind,
    new_graph,
    parse_graph,
    serialize_graph,
)
from .islands import Island, compute_islands, same_island

__version__ = "0.1.0"

# The two reference engines and the generators serve the tests and the
# `check` and `gen` commands; they load on first use (PEP 562), so a
# query never compiles or imports them.
_ORACLE_NAMES = frozenset({
    "RandomGraphSpec", "SplitMix64", "bridge_exists_faithful", "brute_force_bridge",
    "enumerate_t_arc_graphs", "random_graph",
})


def __getattr__(name: str) -> object:
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})


__all__ = [
    "BridgePath",
    "Direction",
    "DuplicateNameError",
    "Edge",
    "EmptyRightsError",
    "EmptySpecError",
    "InvalidNameError",
    "InvalidRightError",
    "InvariantViolationError",
    "Island",
    "NotASubjectError",
    "ParseError",
    "ProtectionGraph",
    "RIGHT_ORDER",
    "RandomGraphSpec",
    "Right",
    "SameIslandError",
    "SameVertexError",
    "SearchReport",
    "SplitMix64",
    "TakeGrantError",
    "TooLargeError",
    "UnknownVertexError",
    "VertexId",
    "VertexKind",
    "bridge_exists",
    "bridge_exists_faithful",
    "bridges_between_islands",
    "brute_force_bridge",
    "compute_islands",
    "enumerate_t_arc_graphs",
    "find_bridge_path",
    "new_graph",
    "parse_graph",
    "random_graph",
    "report_to_jsonable",
    "same_island",
    "serialize_graph",
    "validate_path",
]
