"""Plain value classes: ``repr`` and equality over a per-class tuple of fields.

The package's value types subclass these, with an explicit ``__init__``
each, so that a cold command-line call neither imports ``inspect`` nor
compiles generated methods while it imports the package.
"""

from __future__ import annotations


class Record:
    """``repr`` and ``==`` over the attributes named in ``_fields``, in order.

    ``==`` is ``NotImplemented`` against any other class, subclasses included.
    A record is mutable, so it is unhashable.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record, hashed over its fields.

    ``__init__`` stores the fields straight into the instance dict,
    ``vars(self)``; assigning or deleting an attribute raises
    ``AttributeError``.
    """

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
