"""One value rule for every setting.

An annotation says what a setting takes. ``str`` takes a string, ``bool``
true or false, ``dict`` a mapping, ``int`` an integer that is not a bool,
and ``float`` a finite number that is not a bool (NaN, +-inf and integers
too large for a float are not numbers). ``Literal["a", "b"]`` takes a string
that is one of its values, and refuses another string as ``{name} must be
one of ['a', 'b'], got {value!r}``. ``X | None`` also takes None; any
other class takes its instances. ``Annotated[X, op, limit]`` also bounds X,
and ``Annotated[X, op, limit, op, limit]`` bounds it on two sides, each op
one of ">", ">=", "<" and "<=": a number that fails a comparison (NaN fails
every one) is refused for the first side it fails, as ``{name} must be {op}
{limit}, got {value!r}``. `SEED` and `SPLIT` are two such annotations. A
numpy number is tested as the Python number it equals.
Values are checked, not converted, so a report echoes them as written. The
refusal of a string such as '1e-3' for a float, which YAML reads as a
string (its floats need a dot and a signed exponent), says how to write
the number.

A message names the setting alone; the layer that knows where the value
came from names that once: `pipeline.load_experiment_config` the config
file, `pipeline.ModelEntry` the row, `artifact.load` the file.

`check_fields` holds every field of a dataclass instance to its annotation,
every bound and choice included: the config rows (`pipeline.ModelEntry`,
once per row), `pipeline.DataConfig` and `pipeline.ExperimentConfig`,
`kernels.KernelConfig`, `feature_maps.FeatureMapSpec` and the solver
settings `svm.SvmConfig`, `regression.AnnealSchedule` and
`regression.BasisSpec`. `check_value` holds one value: ``ridge`` and
``threshold`` of both regression fits, the ``seed`` of `fit_annealing`, the
``fraction`` and ``seed`` of `split_indices`, ``qsarq run --seed``, and each
scalar of an artifact's header (`artifact.SCHEMAS`). `accepts`, the type
test alone, checks ``--cutoff`` and `pec50`'s EC50. `from_mapping` builds a
dataclass instance from a mapping such as a YAML section.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
import typing
from collections.abc import Mapping
from numbers import Integral, Real
from typing import Annotated, Literal

import numpy as np

_WHAT = {str: "a string", bool: "true or false", dict: "a mapping", int: "an integer",
         float: "a finite number"}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

SEED = Annotated[int, ">=", 0]  # a seed numpy's generators take
SPLIT = Annotated[float, ">", 0, "<", 1]  # the training share of a split


@functools.cache
def _setting(hint) -> tuple[type, bool, tuple, tuple]:
    """(type, takes None, its (op, limit) pairs, its choices) of annotation `hint`."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:  # X | None
        (hint,) = [a for a in args if a is not type(None)]
    bound = ()
    if typing.get_origin(hint) is Annotated:
        hint, meta = hint.__origin__, hint.__metadata__
        bound = tuple(zip(meta[::2], meta[1::2]))
    if typing.get_origin(hint) is Literal:
        return str, optional, bound, typing.get_args(hint)
    return typing.get_origin(hint) or hint, optional, bound, ()


@functools.cache
def _schema(cls) -> list[tuple[str, object]]:
    """(name, annotation) of each field of dataclass `cls`."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def accepts(kind: type, value) -> bool:
    """Whether the rule takes `value` as a `kind` (module docstring)."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, Integral)
    if kind is float:  # the test is false for NaN, +-inf and huge ints
        return isinstance(value, Real) and abs(_plain(value)) <= sys.float_info.max
    return isinstance(value, Mapping if kind is dict else kind)


def _plain(value):
    """A numpy number as the Python number it equals, any other value as itself.
    numpy compares a float32 with a Python float in float32, to which the largest
    float overflows, and the absolute value of the least int64 overflows too."""
    return value.item() if isinstance(value, np.number) else value


def check_value(value, setting, name: str) -> None:
    """Raise a ValueError naming `name` unless annotation `setting` takes `value`."""
    kind, optional, bound, choices = _setting(setting)
    if optional and value is None:
        return
    if bound and isinstance(value, Real) and not isinstance(value, bool):
        for op, limit in bound:
            if not _COMPARE[op](_plain(value), limit):
                raise ValueError(f"{name} must be {op} {limit}, got {value!r}")
    if not accepts(kind, value):
        raise ValueError(f"{name} must be {_WHAT.get(kind, f'a {kind.__name__}')}, "
                         f"got {value!r}{_exponent_hint(kind, value)}")
    if choices and value not in choices:
        raise ValueError(f"{name} must be one of {list(choices)}, got {value!r}")


def _exponent_hint(kind: type, value) -> str:
    """How to write the number a float setting's string `value` spells with an
    exponent, in a form YAML reads as a float; "" for any other value."""
    if kind is not float or not isinstance(value, str) or "e" not in value.lower():
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    if not accepts(float, number):  # NaN or +-inf
        return ""
    mantissa, _, exponent = repr(number).partition("e")  # repr signs an exponent
    if exponent and "." not in mantissa:
        mantissa += ".0"
    spelled = f"{mantissa}e{exponent}" if exponent else mantissa
    return (f" (to YAML, a number with an exponent needs a dot and a signed exponent: "
            f"write {spelled})")


def check_fields(obj) -> None:
    """Raise a ValueError naming the first field of `obj` its annotation refuses."""
    for name, setting in _schema(type(obj)):
        check_value(getattr(obj, name), setting, name)


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
