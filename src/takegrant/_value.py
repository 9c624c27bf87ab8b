"""The base of the package's immutable records (``Edge``, ``BridgePath``,
``SearchReport``, ``Island``, ``RandomGraphSpec``).

They are not dataclasses because every CLI call would pay for the
import: ``dataclasses`` pulls in ``inspect``, and the two took 6-10 ms
to import (Python 3.11.7, standard library bytecode cached), against
about 0.4 ms for ``Value`` to generate all five constructors.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable record whose fields are its ``__slots__``, in order.

    A subclass lists at least two fields in ``__slots__`` and, if some
    have defaults, the defaults of the last ones in ``_defaults``.  Its
    ``__init__`` is generated: one parameter per field, named after it,
    each stored through ``_setters``, the ``__set__`` of its field's slot
    descriptor, bound once per class.  Calling one stores straight into
    the slot, past the raising ``__setattr__`` and without a lookup by
    name.  Equality, hash and repr are those of a frozen dataclass;
    assigning or deleting any attribute raises ``AttributeError``; copy
    and pickle go through the constructor.  A record is no tuple: it
    cannot be iterated or indexed, and it never equals a tuple of its
    fields.
    """

    __slots__ = ()
    _defaults: tuple[object, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__match_args__ = cls.__slots__
        # With two or more names, attrgetter returns the field tuple.
        cls._fields = attrgetter(*fields)
        cls._setters = tuple(vars(cls)[name].__set__ for name in fields)
        # Only slot names, which Python requires to be identifiers, reach exec.
        setters = {f"_set_{name}": setter for name, setter in zip(fields, cls._setters)}
        stores = "".join(f"\n _set_{name}(self, {name})" for name in fields)
        exec(f"def __init__(self, {', '.join(fields)}):{stores}", setters)
        init = setters["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

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
