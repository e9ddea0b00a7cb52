"""The shared base of the package's immutable value objects."""

from __future__ import annotations

from collections.abc import Mapping

__all__ = ["Frozen", "FrozenMapping"]


class Frozen:
    """An immutable record over the attribute names in ``_fields``.

    A subclass names its fields in ``_fields`` and in ``__slots__``, and
    its ``__init__`` validates the arguments and stores each field with
    ``object.__setattr__``.  Two instances are equal when they are of
    the same class and their field tuples are equal; the hash is the
    hash of the field tuple.  Slots outside ``_fields`` are caches: they
    take no part in ``==``, hash, ``repr`` or pickling.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the default reduction would restore
        # the slots through __setattr__, which refuses
        return self.__class__, self._values()


class FrozenMapping(Mapping):
    """A copy of a mapping, for a field of a ``Frozen`` record, read-only
    through the ``Mapping`` interface (no item assignment or deletion).

    It prints as a dict, equals any mapping with the same items and
    hashes as the frozenset of its items, so a record holding it stays
    hashable."""

    __slots__ = ("_items",)

    def __init__(self, items: Mapping):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __repr__(self):
        return repr(self._items)

    def __hash__(self):
        return hash(frozenset(self._items.items()))

    def __reduce__(self):
        return self.__class__, (self._items,)
