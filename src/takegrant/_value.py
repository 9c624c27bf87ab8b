"""The base of the package's immutable records (``Edge``, ``BridgePath``,
``SearchReport``, ``Island``, ``RandomGraphSpec``).

They are not dataclasses because importing ``dataclasses`` pulls in
``inspect`` and runs generated code for every class, a start-up cost
every CLI call would pay.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable record whose fields are its ``__slots__``, in order.

    A subclass lists at least two fields in ``__slots__`` and fills them
    in an explicit ``__init__`` through ``_setters``: the ``__set__`` of
    each field's slot descriptor, in field order, bound once per class.
    Calling one stores straight into the slot, past the raising
    ``__setattr__`` and without a lookup by name.  Equality, hash and
    repr are those of a frozen dataclass; assigning or deleting any
    attribute raises ``AttributeError``; copy and pickle go through the
    constructor.  A record is no tuple: it cannot be iterated or
    indexed, and it never equals a tuple of its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__
        # With two or more names, attrgetter returns the field tuple.
        cls._fields = attrgetter(*cls.__slots__)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._fields(self)
