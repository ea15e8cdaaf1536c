"""The shared base of the package's immutable value records.

A subclass names its compared fields, in order, in ``_fields``.
``Record.__init__`` takes one value per field, by position only, stores
them in the instance ``__dict__`` and raises ``TypeError``, naming the
class, on a wrong count.  A subclass writes its own only for checks,
caches, defaults or extra state, and it too writes into ``__dict__``.
Equality, hash and repr read the tuple of ``_fields`` values alone;
comparing with another class gives ``NotImplemented``.  Assigning or
deleting any attribute raises ``AttributeError``.  An instance pickles by
its ``__dict__``, which loading restores without ``__setattr__``.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # ``_values(record)`` is the field tuple, read in C: a Python loop over
        # ``_fields`` made ``Mode`` equality four times slower.  attrgetter
        # returns a lone field bare, so a one-field record wraps it.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {self._fields}, got {len(values)} values")
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        args = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
