"""The base of the package's immutable records (``Edge``, ``BridgePath``,
``SearchReport``, ``Island``, ``RandomGraphSpec``).

They are not dataclasses because importing ``dataclasses`` pulls in
``inspect`` and runs generated code for every class, a start-up cost
every CLI call would pay.
"""

from __future__ import annotations

from operator import attrgetter

# Fills one slot from a subclass ``__init__``, past the raising __setattr__.
set_slot = object.__setattr__


class Value:
    """Immutable record whose fields are its ``__slots__``, in order.

    A subclass lists at least two fields in ``__slots__`` and fills each
    in an explicit ``__init__`` with ``set_slot``.  Equality, hash and
    repr are those of a frozen dataclass; assigning or deleting any
    attribute raises ``AttributeError``; copy and pickle go through the
    constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__
        # With two or more names, attrgetter returns the field tuple.
        cls._fields = attrgetter(*cls.__slots__)

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
