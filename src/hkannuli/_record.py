"""Immutable value records, defined without generated code.

A record's fields are its base's, then the names annotated in its class
body, in order; a value assigned to one in the body is that field's
default.  Each field is a slot.  Records are built positionally or by
keyword, run ``__post_init__`` on every construction, refuse to set or
delete attributes, compare equal only to a record of the same class with
an equal ``_key()`` (the tuple of the fields unless the class overrides
it), hash as that key and print as ``Name(field=value, ...)``.  A class
may write its own ``__init__``, which must call ``__post_init__``.
"""

from __future__ import annotations


class _RecordType(type):
    """Reads a record class's fields once, when the class is made."""

    def __new__(mcs, name: str, bases: tuple, namespace: dict):
        inherited = next((base._fields for base in bases if isinstance(base, _RecordType)), ())
        own = tuple(field for field in namespace.get("__annotations__", ())
                    if field not in inherited)
        defaults = {field: namespace.pop(field) for field in own if field in namespace}
        namespace["__slots__"] = own
        cls = super().__new__(mcs, name, bases, namespace)
        cls._fields = inherited + own
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        # each slot's own setter: Record refuses setattr, and a setter
        # skips the per-name lookup object.__setattr__ would make
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls._fields)
        return cls


class Record(metaclass=_RecordType):
    """Base of the value records; see the module docstring."""

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value in order: ``args``, then keywords or defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        for name in kwargs:
            reason = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {reason} argument {name!r}")
        return values

    def __post_init__(self) -> None:
        """Check a new instance; a record with invariants overrides this."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _astuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle build anew, checks included
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
