"""The one file format of saved artifacts: a versioned JSON envelope.

A Gram matrix or a model is saved as one JSON object, ``{"format":
"qsarq", "version": 2, "type": <type>, ...}``, with the fields of its
type (n, d and m are lengths shared within a file):

- ``gram``: ``entries`` (n x n), ``kernel_config`` (as `KernelConfig.to_dict`),
  ``dataset_digest`` (of the n feature rows) and ``jitter`` (on the diagonal).
- ``svm``: ``alphas`` (n), ``labels`` (n, each +1 or -1), ``bias``,
  ``converged``, ``kernel_config`` and ``training_features`` (n x d; d = 0
  when the model keeps no rows).
- ``reg``: ``basis`` and ``n_features`` (the `BasisSpec`), ``coefficients``
  (m, the basis size) and ``threshold``.

Every array, of every type, is stored as base64 of its little-endian
float64 bytes (``"<f8"``): a 1-D array is one JSON string, a 2-D array a
list of one string per row, one row per line, so the writer holds one
row's payload at a time. Raw bytes read back bit for bit (-0.0 and
subnormals included) and are written and parsed several times faster
than 17-digit decimal text, which version 1 used; version 1 files are
refused and are rewritten by rerunning the command that made them.
Scalars stay JSON, keys are sorted, and non-finite numbers are refused
on writing and, after decoding, on reading, as is a number too large for
a float. Reading checks the format, version, type, key set, value types,
payload lengths and array shapes, and any violation raises a ValueError
that names the file.
"""

from __future__ import annotations

import base64
import json
import sys
from functools import partial
from numbers import Integral, Real

import numpy as np

GRAM, SVM, REG = "gram", "svm", "reg"
VERSION = 2
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
    """Write the fields of a `type_` artifact; numpy arrays become base64 payloads."""
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
                for i, row in enumerate(value):  # base64 needs no JSON escaping
                    fh.write(("[\n" if i == 0 else ",\n") + f'"{_payload(row)}"')
                fh.write("\n]" if len(value) else "[]")
            else:
                fh.write(_dumps(_payload(value) if isinstance(value, np.ndarray) else value))
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


def _payload(array: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of `array`."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a finite number")


def _checked(key: str, value, kind, lengths: dict):
    """`value` if it has the type `kind`; an array decoded if it has its shape."""
    if not isinstance(kind, tuple):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
        if kind is Real and not abs(value) <= sys.float_info.max:  # 1e400 parses as inf
            raise ValueError(f"{key} is too large for a float")
        return value
    arr = _decoded(key, value, len(kind))
    expected = tuple(lengths.setdefault(name, length) for name, length in zip(kind, arr.shape))
    if arr.shape != expected:
        raise ValueError(f"{key} has shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{key} holds non-finite values")
    return arr


def _decoded(key: str, value, ndim: int) -> np.ndarray:
    """The float64 array of a payload: one base64 string (1-D) or a list of them (2-D)."""
    rows = [value] if ndim == 1 else value
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise ValueError(f"{key} must be a {ndim}-D array as base64 "
                         f"{'string' if ndim == 1 else 'strings, one per row'}")
    arr = np.empty((0, 0))
    for i, row in enumerate(rows):
        try:
            raw = base64.b64decode(row, validate=True)
        except ValueError as exc:  # binascii.Error and non-ASCII text
            raise ValueError(f"{key} is not base64: {exc}") from exc
        if i == 0:
            if len(raw) % 8:
                raise ValueError(f"{key} has a payload of {len(raw)} bytes, "
                                 "not a multiple of 8")
            width = len(raw) // 8
            arr = np.empty((width,) if ndim == 1 else (len(rows), width))
        elif len(raw) != 8 * width:
            raise ValueError(f"{key} has rows of unequal length")
        np.atleast_2d(arr)[i] = np.frombuffer(raw, dtype="<f8")  # copied into arr
    return arr
