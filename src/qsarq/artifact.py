"""The one file format of saved artifacts: a versioned JSON envelope.

A Gram matrix or a model is saved as one JSON object, ``{"format":
"qsarq", "version": 1, "type": <type>, ...}``, with the fields of its
type (n, d and m are lengths shared within a file):

- ``gram``: ``entries`` (n x n), ``kernel_config`` (as `KernelConfig.to_dict`),
  ``dataset_digest`` (of the n feature rows) and ``jitter`` (on the diagonal).
- ``svm``: ``alphas`` (n), ``labels`` (n, each +1 or -1), ``bias``,
  ``converged``, ``kernel_config`` and ``training_features`` (n x d; d = 0
  when the model keeps no rows).
- ``reg``: ``basis`` and ``n_features`` (the `BasisSpec`), ``coefficients``
  (m, the basis size) and ``threshold``.

Keys are sorted and numbers written in Python's repr, which reads back
to the same float; non-finite numbers are refused. A 2-D array is one
row per line, so the writer holds one row's text at a time. Reading
checks the format, version, type, key set, value types and array shapes,
and any violation raises a ValueError that names the file.
"""

from __future__ import annotations

import json
from functools import partial
from numbers import Integral, Real

import numpy as np

GRAM, SVM, REG = "gram", "svm", "reg"
VERSION = 1
# the type of each field, or the names of an array's dimensions
SCHEMAS = {
    GRAM: {"dataset_digest": str, "entries": ("n", "n"), "jitter": Real,
           "kernel_config": dict},
    SVM: {"alphas": ("n",), "bias": Real, "converged": bool, "kernel_config": dict,
          "labels": ("n",), "training_features": ("n", "d")},
    REG: {"basis": str, "coefficients": ("m",), "n_features": Integral, "threshold": Real},
}
_dumps = partial(json.dumps, allow_nan=False, sort_keys=True, separators=(",", ":"))


def save(path, type_: str, fields: dict) -> None:
    """Write the fields of a `type_` artifact; numpy arrays become lists."""
    for key, value in fields.items():
        rows = np.atleast_2d(value) if isinstance(value, (Real, np.ndarray)) else []
        if not all(np.all(np.isfinite(row)) for row in rows):  # a row at a time
            raise ValueError(f"{path}: {key} holds non-finite values")
    record = {**fields, "format": "qsarq", "type": type_, "version": VERSION}
    with open(path, "w", encoding="utf-8") as fh:
        for n, key in enumerate(sorted(record)):
            value = record[key]
            fh.write(("{\n" if n == 0 else ",\n") + _dumps(key) + ": ")
            if isinstance(value, np.ndarray) and value.ndim == 2:
                for i, row in enumerate(value):  # one row's text at a time
                    fh.write(("[\n" if i == 0 else ",\n") + _dumps(row.tolist()))
                fh.write("\n]" if len(value) else "[]")
            else:
                fh.write(_dumps(value.tolist() if isinstance(value, np.ndarray) else value))
        fh.write("\n}\n")


def load(path, builders: dict):
    """Build the artifact at `path` with the builder of its type.

    `builders` maps each type the caller accepts to a function of the
    checked fields, arrays given as float64 arrays. A fault of the file,
    or a ValueError of the builder, raises a ValueError naming `path`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh, parse_constant=_refuse)
        if not isinstance(record, dict) or record.get("format") != "qsarq":
            raise ValueError("not a qsarq artifact")
        if type(record.get("version")) is not int or record["version"] != VERSION:
            raise ValueError(f"artifact version {record.get('version')!r}, not {VERSION}")
        type_ = record.get("type")
        if not isinstance(type_, str) or type_ not in builders:
            raise ValueError(f"holds a {type_!r} artifact, expected "
                             f"{' or '.join(map(repr, builders))}")
        keys = {*SCHEMAS[type_], "format", "type", "version"}
        if set(record) != keys:
            raise ValueError(f"{type_} artifact with missing key(s) {sorted(keys - set(record))}"
                             f" and unknown key(s) {sorted(set(record) - keys)}")
        lengths: dict = {}
        return builders[type_]({key: _checked(key, record[key], kind, lengths)
                                for key, kind in SCHEMAS[type_].items()})
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a qsarq artifact: {exc}") from exc
    except ValueError as exc:  # UTF-8 decoding errors included
        raise ValueError(f"{path}: {exc}") from exc


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a finite number")


def _checked(key: str, value, kind, lengths: dict):
    """`value` if it has the type `kind`; an array as float64 if it has its shape."""
    if not isinstance(kind, tuple):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
        return value
    arr = np.asarray(value)  # a ragged list raises ValueError
    if arr.ndim != len(kind) or arr.dtype.kind not in "iuf":
        raise ValueError(f"{key} must be a {len(kind)}-D array of numbers")
    expected = tuple(lengths.setdefault(name, length) for name, length in zip(kind, arr.shape))
    if arr.shape != expected:
        raise ValueError(f"{key} has shape {arr.shape}, expected {expected}")
    return arr.astype(np.float64, copy=False)
