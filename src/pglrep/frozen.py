"""`Frozen`, the base of every immutable value class in pglrep.

It lives apart from the layers so that a layer which needs only the base
class, such as `poincare` or `classify`, loads nothing else with it.
"""

from __future__ import annotations


class Frozen:
    """Base of the immutable value classes, in the manner of a frozen dataclass:
    equality (only with the same class), hash and a `Name(field=value, ...)`
    repr, all over the fields named in `_fields`, and no assignment or
    deletion.  A subclass lists its attributes in `__slots__` and sets each
    one once, in `__init__`, with `object.__setattr__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, whose parameters are _fields
        return type(self), self._values()
