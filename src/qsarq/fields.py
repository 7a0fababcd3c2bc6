"""One type rule for the fields of the config dataclasses.

A dataclass's annotations are its type table: `check_fields` holds every
field of an instance to its annotation, and `from_mapping` builds an
instance from a mapping such as a YAML section. ``str`` takes a string,
``bool`` true or false, ``dict`` a mapping, ``int`` an integer that is not
a bool, and ``float`` a finite number that is not a bool (NaN, +-inf and
integers too large for a float are not numbers). ``X | None`` also takes
None; any other class takes its instances. Values are checked, not
converted, so a report echoes them as written.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from collections.abc import Mapping
from numbers import Integral, Real

_WHAT = {str: "a string", bool: "true or false", dict: "a mapping", int: "an integer",
         float: "a finite number"}

@functools.cache
def _schema(cls) -> list[tuple[str, type, bool]]:
    """(name, type, takes None) of each field of dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    schema = []
    for f in dataclasses.fields(cls):
        kind, optional = hints[f.name], False
        args = typing.get_args(kind)
        if type(None) in args:  # X | None
            (kind,), optional = [a for a in args if a is not type(None)], True
        schema.append((f.name, typing.get_origin(kind) or kind, optional))
    return schema


def _accepts(kind: type, value) -> bool:
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, Integral)
    if kind is float:  # the test is false for NaN, +-inf and huge ints
        return isinstance(value, Real) and abs(value) <= sys.float_info.max
    return isinstance(value, Mapping if kind is dict else kind)


def check_fields(obj, where: str) -> None:
    """Raise a ValueError naming the first field of `obj` its annotation refuses."""
    for name, kind, optional in _schema(type(obj)):
        value = getattr(obj, name)
        if not (optional and value is None or _accepts(kind, value)):
            what = _WHAT.get(kind, f"a {kind.__name__}")
            raise ValueError(f"{where}: {name} must be {what}, got {value!r}")


def from_mapping(cls, d, where: str):
    """Build dataclass `cls` from the mapping `d`.

    A required field that `d` lacks is passed as None, so that the field's
    own check refuses it by name.
    """
    if not isinstance(d, Mapping):
        raise ValueError(f"{where} must be a mapping, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {sorted(unknown, key=str)}")
    required = [f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    return cls(**{**dict.fromkeys(required), **d})
