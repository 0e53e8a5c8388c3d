"""Plain value classes and the package's integer check.

The package's value types subclass these.  ``Record``'s constructor binds
the arguments to ``_fields`` as a signature listing them would; a class
writes its own ``__init__`` only where it converts, validates, defaults or
derives a field.  Nothing here imports ``inspect`` or compiles generated
methods, so a cold command-line call does neither while it imports the
package.
"""

from __future__ import annotations

import operator


def _integer(value: int, name: str) -> int:
    """``value`` as a Python int; a count or order such as ``name`` must be
    an integer, and a bool or a float is not one."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    # a bool is an int to operator.index, but not a count
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


class Record:
    """``repr`` and ``==`` over the attributes named in ``_fields``, in order.

    The constructor takes one argument per field, positionally or by
    keyword, and raises ``TypeError`` on a missing, extra, unknown or
    repeated one.  ``==`` is ``NotImplemented`` against any other class,
    subclasses included.  A record is mutable, so it is unhashable.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from a call that is not one positional
        argument per field; the errors are those of a Python signature."""
        fields, name = cls._fields, f"{cls.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(
                f"{name} takes {len(fields)} positional arguments but {len(args)} were given"
            )
        bound = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
        bound.update(kwargs)
        missing = [key for key in fields if key not in bound]
        if missing:
            raise TypeError(f"{name} missing required arguments: {', '.join(missing)}")
        return [bound[key] for key in fields]

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

    The constructor stores the fields straight into the instance dict,
    ``vars(self)``; assigning or deleting an attribute raises
    ``AttributeError``.
    """

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
