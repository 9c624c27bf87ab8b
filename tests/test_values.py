"""The contract of the package's immutable records.

``Edge``, ``BridgePath``, ``SearchReport``, ``Island`` and
``RandomGraphSpec`` were frozen dataclasses; they are slotted classes
now, and must still construct, compare, hash, print, refuse writes and
copy the way those did.  The expected reprs are literals taken from the
dataclass versions.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from takegrant import BridgePath, Direction, Edge, Island, RandomGraphSpec, Right, SearchReport

FWD, BWD = Direction.FORWARD, Direction.BACKWARD
T_ONLY = frozenset({Right.T})

# (class, positional args, keyword args equal to them, repr of the parent's dataclass)
CASES = [
    (
        Edge,
        (0, 1, T_ONLY),
        dict(src=0, dst=1, rights=T_ONLY),
        "Edge(src=0, dst=1, rights=frozenset({<Right.T: 't'>}))",
    ),
    (
        BridgePath,
        ((0, 2, 1), FWD),
        dict(vertices=(0, 2, 1), direction=FWD),
        "BridgePath(vertices=(0, 2, 1), direction=<Direction.FORWARD: 'forward'>)",
    ),
    (
        SearchReport,
        (True, BWD, BridgePath((0, 1), BWD), 1, ((1, (1,)),)),
        dict(exists=True, direction=BWD, path=BridgePath((0, 1), BWD), passes=1,
             frontier_trace=((1, (1,)),)),
        "SearchReport(exists=True, direction=<Direction.BACKWARD: 'backward'>, "
        "path=BridgePath(vertices=(0, 1), direction=<Direction.BACKWARD: 'backward'>), "
        "passes=1, frontier_trace=((1, (1,)),))",
    ),
    (
        SearchReport,
        (False, FWD, None, 1, ((1, ()),)),
        dict(exists=False, direction=FWD, path=None, passes=1, frontier_trace=((1, ()),)),
        "SearchReport(exists=False, direction=<Direction.FORWARD: 'forward'>, path=None, "
        "passes=1, frontier_trace=((1, ()),))",
    ),
    (
        Island,
        (2, (3, 5)),
        dict(index=2, members=(3, 5)),
        "Island(index=2, members=(3, 5))",
    ),
    (
        RandomGraphSpec,
        (2, 4, 0.5, frozenset({Right.G}), 7),
        dict(n_subjects=2, n_objects=4, arc_probability=0.5, rights_pool=frozenset({Right.G}),
             seed=7),
        "RandomGraphSpec(n_subjects=2, n_objects=4, arc_probability=0.5, "
        "rights_pool=frozenset({<Right.G: 'g'>}), seed=7)",
    ),
]

MATCH_ARGS = {
    Edge: ("src", "dst", "rights"),
    BridgePath: ("vertices", "direction"),
    SearchReport: ("exists", "direction", "path", "passes", "frontier_trace"),
    Island: ("index", "members"),
    RandomGraphSpec: ("n_subjects", "n_objects", "arc_probability", "rights_pool", "seed"),
}

IDS = ["edge", "path", "report_found", "report_not_found", "island", "spec"]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_positional_and_keyword_construction_agree(case):
    cls, args, kwargs, _ = case
    a, b = cls(*args), cls(**kwargs)
    assert a == b
    assert tuple(getattr(a, name) for name in MATCH_ARGS[cls]) == args
    # Keywords in reverse order, and a positional head with a keyword tail.
    assert cls(**dict(reversed(kwargs.items()))) == a
    assert cls(args[0], **{name: kwargs[name] for name in MATCH_ARGS[cls][1:]}) == a


def test_constructor_parameters_are_the_fields(case):
    # The generated __init__ names one parameter after each field, in order.
    cls, _, _, _ = case
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__slots__ == MATCH_ARGS[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    defaults = {name: p.default for name, p in parameters.items() if p.default is not p.empty}
    assert defaults == ({"rights_pool": T_ONLY, "seed": 0} if cls is RandomGraphSpec else {})


def test_missing_or_extra_argument_raises(case):
    cls, args, kwargs, _ = case
    first = MATCH_ARGS[cls][0]
    with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__\\(\\) missing"):
        cls(*args[:1])
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**{name: value for name, value in kwargs.items() if name != first})
    with pytest.raises(TypeError, match=r"positional arguments but \d+ were given"):
        cls(*args, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*args[:1], **kwargs)


def test_repr_matches_the_dataclass_repr(case):
    cls, args, _, expected = case
    assert repr(cls(*args)) == expected


def test_equality_and_hash(case):
    cls, args, _, _ = case
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(args)  # the frozen dataclass hash: that of the field tuple
    other = cls(*args[:-1], "different")
    assert a != other and not a == other
    # A plain tuple of the same fields is not the record.
    assert a != args and not a == args
    assert args != a


def test_other_class_with_same_field_values_is_unequal():
    island = Island(0, (1, 2))
    path = BridgePath(0, (1, 2))  # the same two field values, another record class
    assert island != path and not island == path
    assert path != island


def test_assignment_and_deletion_raise(case):
    cls, args, _, _ = case
    value = cls(*args)
    for name in MATCH_ARGS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


def test_records_are_not_tuples(case):
    cls, args, _, _ = case
    value = cls(*args)
    assert not isinstance(value, tuple)
    with pytest.raises(TypeError):
        iter(value)
    with pytest.raises(TypeError):
        value[0]
    fields = tuple(getattr(value, name) for name in MATCH_ARGS[cls])
    assert value != fields and not value == fields
    assert fields != value


def test_slot_setters_are_not_fields(case):
    # Each class binds its slots' __set__ once, under a name that is no
    # field: it stays out of the slots, the match args and the repr.
    cls, args, _, _ = case
    assert len(cls._setters) == len(cls.__slots__)
    assert "_setters" not in cls.__slots__ + cls.__match_args__
    assert "setter" not in repr(cls(*args))


def test_match_args(case):
    cls, _, _, _ = case
    assert cls.__match_args__ == MATCH_ARGS[cls]


def test_class_patterns_bind_fields_in_order():
    match SearchReport(False, FWD, None, 1, ((1, ()),)):
        case SearchReport(exists, direction, path, passes, trace):
            assert (exists, direction, path, passes, trace) == (False, FWD, None, 1, ((1, ()),))
        case _:
            pytest.fail("SearchReport pattern did not match")
    match Edge(0, 1, T_ONLY):
        case Island():
            pytest.fail("an Edge matched the Island pattern")
        case Edge(src, dst, rights=rights):
            assert (src, dst, rights) == (0, 1, T_ONLY)
        case _:
            pytest.fail("Edge pattern did not match")


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_come_back_equal(case, clone):
    cls, args, _, _ = case
    value = cls(*args)
    twin = clone(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


def test_random_graph_spec_defaults():
    spec = RandomGraphSpec(2, 4, 0.3)
    assert spec.rights_pool == frozenset({Right.T})
    assert spec.seed == 0
    assert spec == RandomGraphSpec(2, 4, 0.3, frozenset({Right.T}), 0)
    assert repr(spec) == (
        "RandomGraphSpec(n_subjects=2, n_objects=4, arc_probability=0.3, "
        "rights_pool=frozenset({<Right.T: 't'>}), seed=0)"
    )
    # Either default may be given alone, by keyword or by position.
    assert RandomGraphSpec(2, 4, 0.3, seed=5) == RandomGraphSpec(2, 4, 0.3, T_ONLY, 5)
    assert RandomGraphSpec(2, 4, 0.3, frozenset(Right)).seed == 0


def test_bridge_path_length():
    assert BridgePath((0, 2, 1), FWD).length == 2
