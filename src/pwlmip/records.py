"""Value types with named fields: the one record base of the package.

A record class lists its fields once, as ``__slots__ = _fields = (...)``,
and writes its own ``__init__``.  :class:`Record` compares and prints by
those fields; :class:`Frozen` also hashes by them and refuses assignment
and deletion.  Each class reads its fields through one
``operator.attrgetter`` built when the class is made, so equality and
hashing never loop over names in Python.  A slot may stay out of
``_fields``: it is then neither compared, hashed nor printed.

This module imports nothing from the package, so every layer may use it.
"""

from operator import attrgetter


class Record:
    """A mutable record: equal to another of its own class with equal
    fields, printed as ``Class(field=value, ...)``, and unhashable."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class Frozen(Record):
    """An immutable record, hashed by its fields.  Its ``__init__`` sets
    each field with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value}) for a slotted object
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
