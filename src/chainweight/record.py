"""Immutable value records, written by hand instead of by `@dataclass`.

`@dataclass` builds each class's methods by exec'ing generated source on
every import, which a one-query CLI process pays for every class it loads.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable value whose fields `_fields` names, in constructor order.

    Equal only to a record of the same type with equal fields, hashed by its
    fields, and repr'd as `Type(field=value, ...)`.  Assignment and deletion
    raise AttributeError, so each subclass's own `__init__` stores its fields
    straight into `self.__dict__`, which is also faster than
    `object.__setattr__`.  That dict holds the fields and values computed
    from them in `__init__`, nothing cached later: equality compares dicts.
    """

    _fields: tuple[str, ...] = ()
    # A record without fields equals every record of its type.
    _key = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            key = cls._key = attrgetter(*cls._fields)
            # Reading the getter from a closure, not from the instance, keeps
            # a conflict-cache hit as fast as it was with the dataclass hash.
            cls.__hash__ = lambda self: hash(key(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        # The fields alone, as a dataclass hashes: hashing the type too
        # would cost every conflict-cache hit one more tuple.  Subclasses
        # with fields replace this with the closure above.
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
