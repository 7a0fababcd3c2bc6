"""One value rule for every setting.

An annotation says what a setting takes. ``str`` takes a string, ``bool``
true or false, ``dict`` a mapping, ``int`` an integer that is not a bool,
and ``float`` a finite number that is not a bool (NaN, +-inf and integers
too large for a float are not numbers). ``X | None`` also takes None; any
other class takes its instances. ``Annotated[X, op, limit]`` also bounds X,
and ``Annotated[X, op, limit, op, limit]`` bounds it on two sides, each op
one of ">", ">=", "<" and "<=": a number that fails a comparison (NaN fails
every one) is refused for the first side it fails, as ``{name} must be {op}
{limit}, got {value!r}``. `SEED` and `SPLIT` are two such annotations.
Values are checked, not converted, so a report echoes them as written.

A message names the setting alone; the layer that knows where the value
came from names that once: `pipeline.load_experiment_config` the config
file, `pipeline.ModelEntry` the row, `artifact.load` the file.

`check_fields` holds every field of a dataclass instance to its annotation,
every bound included: the config rows (`pipeline.ModelEntry`, once per row),
`pipeline.DataConfig` and `pipeline.ExperimentConfig`, `kernels.KernelConfig`,
`feature_maps.FeatureMapSpec` and the solver settings `svm.SvmConfig`,
`regression.AnnealSchedule` and `regression.BasisSpec`. `check_value` holds
one value: ``ridge`` and ``threshold`` of both regression fits, the ``seed``
of `fit_annealing`, the ``fraction`` and ``seed`` of `split_indices`, and
``qsarq run --seed``. `accepts`, the type test alone, checks ``--cutoff``
and `pec50`'s EC50. `from_mapping` builds a dataclass instance from a
mapping such as a YAML section.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
import typing
from collections.abc import Mapping
from numbers import Integral, Real
from typing import Annotated

_WHAT = {str: "a string", bool: "true or false", dict: "a mapping", int: "an integer",
         float: "a finite number"}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

SEED = Annotated[int, ">=", 0]  # a seed numpy's generators take
SPLIT = Annotated[float, ">", 0, "<", 1]  # the training share of a split


@functools.cache
def _setting(hint) -> tuple[type, bool, tuple]:
    """(type, takes None, its (op, limit) pairs) of annotation `hint`."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:  # X | None
        (hint,) = [a for a in args if a is not type(None)]
    bound = ()
    if typing.get_origin(hint) is Annotated:
        hint, meta = hint.__origin__, hint.__metadata__
        bound = tuple(zip(meta[::2], meta[1::2]))
    return typing.get_origin(hint) or hint, optional, bound


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
        return isinstance(value, Real) and abs(value) <= sys.float_info.max
    return isinstance(value, Mapping if kind is dict else kind)


def check_value(value, setting, name: str) -> None:
    """Raise a ValueError naming `name` unless annotation `setting` takes `value`."""
    kind, optional, bound = _setting(setting)
    if optional and value is None:
        return
    if bound and isinstance(value, Real) and not isinstance(value, bool):
        for op, limit in bound:
            if not _COMPARE[op](value, limit):
                raise ValueError(f"{name} must be {op} {limit}, got {value!r}")
    if not accepts(kind, value):
        raise ValueError(f"{name} must be {_WHAT.get(kind, f'a {kind.__name__}')}, "
                         f"got {value!r}")


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
