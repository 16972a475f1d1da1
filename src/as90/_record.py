"""Value-class plumbing for the package's small record types.

The records need only equality and a readable repr, so they are plain
``__slots__`` classes over this base rather than dataclasses, which
would pull ``inspect`` (and with it ``ast`` and ``dis``) into every
process that imports the package.
"""

from __future__ import annotations


class Record:
    """Equality and repr over the fields named in ``_fields``.

    Two records are equal when they are of the same class and their
    ``_fields`` values are equal; the repr lists those fields as
    ``Name(field=value, ...)``.  A slot outside ``_fields`` (a cache)
    takes part in neither.  Records are unhashable unless a subclass
    defines ``__hash__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
