"""Record bases: dataclasses whose methods are written once, here.

`@dataclass` writes each class's `__init__`, `__repr__`, `__eq__`, `__hash__`
and frozen `__setattr__`/`__delattr__` as source and compiles it with `exec`
whenever its module is imported; for the package's records that was most of
`import advbundle.cli`. A record subclasses one of three bases instead:

- `Record`: mutable, compares and hashes by identity
- `FrozenRecord`: a field cannot be assigned or deleted (`FrozenInstanceError`);
  compares and hashes by identity
- `ValueRecord`: frozen, compares and hashes by its field values, in order

Each subclass is still a dataclass. `Record.__init_subclass__` applies
`dataclasses.dataclass(cls, init=False, repr=False, eq=False)`, which reads the
annotations and defaults into `fields()` and writes no method, so `fields`,
`replace`, `is_dataclass`, `default_factory` and `__match_args__` work as they
do for any dataclass. The bases' `__init__` binds its arguments to the fields
as the generated one did, then calls `__post_init__`; `__repr__` is
`Name(field=value, ...)`. `inspect.signature` of a record class lists its
fields, built when asked for. A record's `__dataclass_params__` holds the
arguments above, not the base's behaviour.
"""

from __future__ import annotations

import dataclasses
import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError


class _Factory:
    """The default a signature shows for a field with a default_factory."""

    def __repr__(self) -> str:
        return "<factory>"


class _Signature:
    """A record class's `__signature__`: its fields as parameters, as the
    generated `__init__` had them, built on each request."""

    def __get__(self, obj, cls):
        if obj is not None:  # an instance is not callable
            raise AttributeError("__signature__")
        params = []
        for f in cls._record_fields.values():  # AttributeError on a base: inspect reads __init__
            default = (f.default if f.default is not MISSING else
                       _Factory() if f.default_factory is not MISSING else inspect.Parameter.empty)
            params.append(inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                            default=default, annotation=f.type))
        return inspect.Signature(params, return_annotation=None)


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """Field name -> value, in field order, for a call cls(*args, **kwargs);
    TypeError for a call the generated `__init__` would refuse."""
    fields = cls._record_fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values[name] = value
    missing = []
    for name, f in fields.items():
        if name in values:
            continue
        if f.default is not MISSING:
            values[name] = f.default
        elif f.default_factory is not MISSING:
            values[name] = f.default_factory()
        else:
            missing.append(repr(name))
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing {len(missing)} required "
                        f"argument{'s' * (len(missing) > 1)}: {', '.join(missing)}")
    return {name: values[name] for name in fields}


class Record:
    """Base of a mutable record that compares and hashes by identity."""

    __signature__ = _Signature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__module__ == __name__:  # the bases below
            return
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        cls._record_fields = {f.name: f for f in dataclasses.fields(cls)}

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(self._record_fields):  # every field, in order
            self.__dict__.update(zip(self._record_fields, args))
        else:
            self.__dict__.update(_bind(type(self), args, kwargs))
        self.__post_init__()

    def __post_init__(self):
        """Check and normalise the fields; a record that needs it overrides this."""

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """Base of a record whose fields cannot be assigned or deleted; it compares
    and hashes by identity. `__post_init__` sets a field with `object.__setattr__`."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ValueRecord(FrozenRecord):
    """Base of a frozen record that compares and hashes by its field values."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._record_fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
