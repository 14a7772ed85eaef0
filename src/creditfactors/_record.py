"""Base of the package's frozen record classes.

A record lists its fields in `__slots__`, checks its arguments in a hand-written
`__init__`, and stores them once with `_set`; assignment and deletion fail after
that. Records compare equal, hash and print by their fields in slot order, as
frozen dataclasses do, without building those methods on every import.
"""

import numpy as np


def readonly(value, dtype=float) -> np.ndarray:
    """A read-only copy of value as an array of dtype."""
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


class Record:
    __slots__ = ()
    _shown = None  # the fields equality, hashing and repr see, when not every slot

    def __init_subclass__(cls):
        # each slot's own setter, which __setattr__ below does not reach
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values):
        """Store one value per slot, in slot order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown or self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._shown or self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, which checks again
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
