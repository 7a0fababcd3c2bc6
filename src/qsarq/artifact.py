"""The one file format of saved artifacts: a JSON header line, then raw float64 bytes.

A Gram matrix or a model is saved as one file. Its first line is compact
JSON, ``{"format":"qsarq","version":4,"type":<type>,...}``, holding the
fields of its type, each scalar as itself and each array as its shape, a
list of lengths (n, d and m are lengths shared within a file):

- ``gram``: ``entries`` (n x n, symmetric, stored as its upper triangle),
  ``kernel_config`` (as `KernelConfig.to_dict`) and ``rows`` (n x d, the
  feature rows the matrix was built over, which ``qsarq train --gram``
  compares with its data): the kernel over its rows, with no solver
  setting. Gram files that hold a ``dataset_digest`` in place of ``rows``,
  or a ``jitter``, are refused by the key-set check and are rewritten by
  rerunning ``qsarq gram``.
- ``svm``: ``support_vectors`` (m x d, the training rows with a nonzero
  multiplier, in training order), ``dual_coef`` (m, multiplier times
  label), ``bias``, ``converged`` and ``kernel_config``. Svm files that
  hold every training row (``alphas``, ``labels``, ``training_features``)
  are refused by the key-set check and are rewritten by rerunning
  ``qsarq train``.
- ``reg``: ``basis`` and ``n_features`` (the `BasisSpec`), ``coefficients``
  (m, the basis size) and ``threshold``.

The arrays' little-endian float64 bytes (``"<f8"``) follow the newline,
row-major, in the sorted order of their keys; a symmetric array (`Upper` in
`SCHEMAS`) keeps only the rows [i, i:] of its upper triangle, so writing
refuses one that is not bitwise symmetric and reading mirrors each row into
place. Raw bytes read back bit for bit, -0.0 and subnormals included, and
are written and read at memory speed: version 3 held them as base64 text,
whose decoding was most of a Gram file's load. Reading checks the format,
version, type and key set, each scalar's type (by `qsarq.fields`, as a
setting's: a float must be finite), that the shapes are lists of lengths
that agree, and that the file holds exactly the bytes they imply, all
before any array is allocated; then that every array value is finite.
Writing makes the same checks of its fields (each array field must be a
numpy array) before it opens the file, so it writes no file that reading
refuses. Files of versions 1 to 3 (one JSON object over many
lines) are refused by their version and are rewritten by rerunning the
command that made them (``qsarq gram`` or ``qsarq train``). Any violation
raises a ValueError that names the file.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import accumulate

import numpy as np

from .fields import check_value

GRAM, SVM, REG = "gram", "svm", "reg"
VERSION = 4


class Upper(tuple):
    """The dimension names (n, n) of a symmetric array stored as its upper
    triangle: the rows [i, i:] back to back."""


# the type of each field, or the names of an array's dimensions
SCHEMAS = {
    GRAM: {"entries": Upper(("n", "n")), "kernel_config": dict, "rows": ("n", "d")},
    SVM: {"bias": float, "converged": bool, "dual_coef": ("m",), "kernel_config": dict,
          "support_vectors": ("m", "d")},
    REG: {"basis": str, "coefficients": ("m",), "n_features": int, "threshold": float},
}
_dumps = partial(json.dumps, allow_nan=False, sort_keys=True, separators=(",", ":"))


def save(path, type_: str, fields: dict) -> None:
    """Write the fields of a `type_` artifact: the header line, then the arrays' bytes.

    The fields are checked as `load` checks them before the file is opened, so
    every file written loads; a fault raises a ValueError naming `path`.
    """
    schema = SCHEMAS[type_]
    arrays = {key: np.ascontiguousarray(value, dtype="<f8")
              for key, value in fields.items() if isinstance(value, np.ndarray)}
    header = {**fields, **{key: list(a.shape) for key, a in arrays.items()},
              "format": "qsarq", "type": type_, "version": VERSION}
    try:
        for key, value in fields.items():
            if isinstance(schema.get(key), tuple) and key not in arrays:
                raise ValueError(f"{key} must be a numpy array, got {value!r}")
            if key in arrays and not _finite(arrays[key]):
                raise ValueError(f"{key} holds non-finite values")
            if isinstance(schema.get(key), Upper):  # its lower triangle is not written
                bits = arrays[key].view("<i8")  # so that -0.0 != 0.0
                if bits.ndim != 2 or not np.array_equal(bits, bits.T):
                    raise ValueError(f"{key} is not symmetric")
        _checked_fields(type_, header)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with open(path, "wb", buffering=1 << 20) as fh:  # few writes of many small rows
        fh.write(_dumps(header).encode("ascii") + b"\n")
        for key in sorted(arrays):
            if isinstance(schema[key], Upper):
                fh.writelines(row[i:] for i, row in enumerate(arrays[key]))
            else:
                fh.write(arrays[key])


def load(path, builders: dict):
    """Build the artifact at `path` with the builder of its type.

    `builders` maps each type the caller accepts to a function of the
    checked fields, arrays given as float64 arrays. A fault of the file,
    or a ValueError of the builder, raises a ValueError naming `path`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.find(b"\n")
        if end < 0:
            raise ValueError("not a qsarq artifact: no newline ends its header")
        if data[:end] == b"{":  # versions 1 to 3: one JSON object over many lines
            end = len(data)
        record = json.loads(data[:end], parse_constant=_refuse)
        if not isinstance(record, dict) or record.get("format") != "qsarq":
            raise ValueError("not a qsarq artifact")
        if type(record.get("version")) is not int or record["version"] != VERSION:
            raise ValueError(f"artifact version {record.get('version')!r}, not {VERSION}")
        type_ = record.get("type")
        if not isinstance(type_, str) or type_ not in builders:
            raise ValueError(f"holds a {type_!r} artifact, expected "
                             f"{' or '.join(map(repr, builders))}")
        fields = _checked_fields(type_, record)
        return builders[type_]({**fields, **_arrays(memoryview(data)[end + 1:], fields,
                                                    SCHEMAS[type_])})
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a qsarq artifact: {exc}") from exc
    except ValueError as exc:  # UTF-8 decoding errors included
        raise ValueError(f"{path}: {exc}") from exc


def _finite(value) -> bool:
    """True if the array `value` holds no NaN or +-inf, which carry through min
    and max: they allocate no temporary."""
    return all(np.isfinite(extreme(value, initial=0.0)) for extreme in (np.min, np.max))


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a finite number")


def _checked_fields(type_: str, record: dict) -> dict:
    """The fields of a `type_` header `record`, as `_checked` gives them, if its
    keys are those of the type and the envelope (format, type and version)."""
    keys = {*SCHEMAS[type_], "format", "type", "version"}
    if set(record) != keys:
        raise ValueError(f"{type_} artifact with missing key(s) {sorted(keys - set(record))}"
                         f" and unknown key(s) {sorted(set(record) - keys)}")
    lengths: dict = {}
    return {key: _checked(key, record[key], kind, lengths)
            for key, kind in SCHEMAS[type_].items()}


def _checked(key: str, value, kind, lengths: dict):
    """`value` if the rule (`fields`) takes it as a `kind`; for an array, its shape as
    a tuple, if the header gives one whose lengths agree with the others in `lengths`."""
    if not isinstance(kind, tuple):
        check_value(value, kind, key)
        return value
    if not isinstance(value, list) or len(value) != len(kind) or not all(
            type(length) is int and length >= 0 for length in value):
        raise ValueError(f"{key} must be the shape of a {len(kind)}-D array, "
                         f"a list of {len(kind)} lengths")
    expected = tuple(lengths.setdefault(name, length) for name, length in zip(kind, value))
    if tuple(value) != expected:
        raise ValueError(f"{key} has shape {tuple(value)}, expected {expected}")
    return expected


def _arrays(payload: memoryview, shapes: dict, schema: dict) -> dict:
    """The float64 arrays that `payload` holds for the array fields of `schema`, of
    the `shapes` given; its length is checked before anything is allocated."""
    keys = sorted(key for key, kind in schema.items() if isinstance(kind, tuple))
    sizes = [shapes[key][0] * (shapes[key][0] + 1) // 2 if isinstance(schema[key], Upper)
             else math.prod(shapes[key]) for key in keys]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"holds {len(payload)} bytes of arrays, not the "
                         f"{8 * sum(sizes)} that its shapes need")
    arrays = {}
    for key, part in zip(keys, np.split(np.frombuffer(payload, dtype="<f8"),
                                        np.cumsum(sizes)[:-1])):
        if not _finite(part):
            raise ValueError(f"{key} holds non-finite values")
        if isinstance(schema[key], Upper):  # row i is the entries [i, i:], mirrored
            arrays[key] = arr = np.empty(shapes[key])
            for i, start in enumerate(accumulate(range(len(arr), 1, -1), initial=0)):
                arr[i, i:] = arr[i:, i] = part[start:start + len(arr) - i]
        else:
            arrays[key] = part.reshape(shapes[key]).astype(np.float64)
    return arrays
