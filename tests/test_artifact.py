"""The artifact envelope: exact round trips and strict loading, for every type."""

import base64
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qsarq import artifact

from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import QUANTUM_EXACT, QUANTUM_SHOTS, KernelConfig, gram, load_gram, save_gram
from qsarq.pipeline import load_model, save_model
from qsarq.regression import (
    POLY2,
    BasisSpec,
    RegModel,
    fit_least_squares,
    load_reg_model,
    save_reg_model,
)
from qsarq.svm import SvmConfig, SvmModel, load_svm_model, save_svm_model, train

X = np.random.default_rng(4).random((7, 2))
Y = np.array([1, -1, 1, -1, 1, -1, 1])
SHOTS = KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("zz", 2, reps=1),
                     shots=64, rng_seed=5)
ZZ3 = FeatureMapSpec("zz", 3, reps=2, entanglement="full")

# type: (a saved object, its save and load functions)
TYPES = {
    "gram": (lambda: gram(SHOTS, X), save_gram, load_gram),
    "svm": (lambda: train(gram(SHOTS, X), Y, SvmConfig(C=2.0, jitter=0.25)),
            save_svm_model, load_svm_model),
    "reg": (lambda: fit_least_squares(X, Y, BasisSpec(POLY2, 2), ridge=0.1, threshold=0.25),
            save_reg_model, load_reg_model),
}
ARRAYS = ("entries", "rows", "support_vectors", "dual_coef", "coefficients")
SCALARS = ("kernel_config", "bias", "converged", "basis", "threshold")


@pytest.mark.parametrize("type_", TYPES)
def test_round_trip_is_exact_and_rewrites_the_same_bytes(tmp_path, type_):
    make, save, load = TYPES[type_]
    saved = make()
    save(saved, tmp_path / "first")
    loaded = load(tmp_path / "first")
    save(loaded, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == (tmp_path / "first").read_bytes()
    for name in ARRAYS:
        if hasattr(saved, name):
            assert np.array_equal(getattr(loaded, name), getattr(saved, name)), name
    for name in SCALARS:
        if hasattr(saved, name):
            assert getattr(loaded, name) == getattr(saved, name), name
    head = (tmp_path / "first").read_bytes().partition(b"\n")[0]
    record = json.loads(head, parse_constant=pytest.fail)
    assert (record["format"], record["version"], record["type"]) == ("qsarq", 4, type_)


def test_load_model_follows_the_saved_type(tmp_path):
    for type_, cls in (("svm", SvmModel), ("reg", RegModel)):
        save_model(TYPES[type_][0](), tmp_path / type_)
        assert type(load_model(tmp_path / type_)) is cls
    save_gram(TYPES["gram"][0](), tmp_path / "gram")
    with pytest.raises(ValueError, match="'gram' artifact"):
        load_model(tmp_path / "gram")


# any finite float64, with -0.0, subnormals and the largest magnitudes drawn often
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, sys.float_info.max, -sys.float_info.max])


@st.composite
def artifact_fields(draw):
    """(type, fields) of an artifact whose arrays hold arbitrary finite float64 values."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 4))

    def array(*shape):
        return draw(arrays(np.float64, shape, elements=FLOATS))

    def symmetric(n):  # the upper triangle mirrored bit for bit, -0.0 included
        square = array(n, n)
        return np.where(np.tri(n, k=-1, dtype=bool), square.T, square)

    type_ = draw(st.sampled_from(sorted(TYPES)))
    return type_, {
        "gram": lambda: {"entries": symmetric(n), "kernel_config": {"kind": "linear"},
                         "rows": array(n, d)},
        "svm": lambda: {"bias": 0.5, "converged": True, "dual_coef": array(n),
                        "kernel_config": {"kind": "linear"}, "support_vectors": array(n, d)},
        "reg": lambda: {"basis": "affine", "n_features": d, "coefficients": array(n),
                        "threshold": 0.0},
    }[type_]()


@settings(max_examples=60, deadline=None)
@given(artifact_fields())
def test_arrays_round_trip_bitwise_as_writable_float64(tmp_path_factory, drawn):
    type_, fields = drawn
    path = tmp_path_factory.mktemp("property") / "artifact"
    artifact.save(path, type_, fields)
    loaded = artifact.load(path, {type_: dict})
    for key, saved in fields.items():
        if isinstance(saved, np.ndarray):
            got = loaded[key]
            assert got.dtype == np.float64 and got.shape == saved.shape, key
            assert got.tobytes() == saved.tobytes(), key  # -0.0 keeps its sign bit
            assert got.flags.writeable and got.flags.owndata, key
        else:
            assert loaded[key] == saved, key


# (type, valid fields) that `test_save_refuses_non_finite_values_before_writing` spoils
VALID = {
    "gram": {"entries": np.eye(3), "kernel_config": {"kind": "linear"}, "rows": np.eye(3, 2)},
    "reg": {"basis": "affine", "n_features": 2, "coefficients": np.array([0.5, 1.0, -1.0]),
            "threshold": 0.0},
}


@pytest.mark.parametrize("type_, key, value, message", [
    ("gram", "entries", np.array([[1.0, 0.5, 0.0], [0.5, np.nan, 0.5], [0.0, 0.5, 1.0]]),
     "entries holds non-finite values"),
    ("reg", "coefficients", np.array([0.5, np.inf, -1.0]), "coefficients holds non-finite values"),
    ("reg", "coefficients", np.array([0.5, 1.0, -np.inf]), "coefficients holds non-finite values"),
    ("reg", "threshold", float("nan"), "threshold must be a finite number, got nan"),
], ids=["NaN in a middle row", "inf", "-inf", "NaN scalar"])
def test_save_refuses_non_finite_values_before_writing(tmp_path, type_, key, value, message):
    path = tmp_path / "artifact"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        artifact.save(path, type_, {**VALID[type_], key: value})
    assert not path.exists()


@pytest.mark.parametrize("fields, message", [
    ({**VALID["reg"], "coefficients": [0.5, 1.0, -1.0]},
     "coefficients must be a numpy array, got [0.5, 1.0, -1.0]"),
    ({**VALID["reg"], "intercept": 0.5},
     "reg artifact with missing key(s) [] and unknown key(s) ['intercept']"),
    ({**VALID["reg"], "coefficients": np.ones((3, 1))},
     "coefficients must be the shape of a 1-D array, a list of 1 lengths"),
], ids=["list for an array", "unknown key", "2-D for 1-D"])
def test_save_refuses_fields_that_load_refuses_before_writing(tmp_path, fields, message):
    path = tmp_path / "artifact"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        artifact.save(path, "reg", fields)
    assert not path.exists()


# per type, one scalar field and one array field to spoil; a gram header's one
# scalar is its kernel, a mapping, so a number in its place has the wrong type
SCALAR_OF = {"gram": "kernel_config", "svm": "bias", "reg": "threshold"}
SCALAR_MUST_BE = {"gram": "kernel_config must be a mapping", "svm": "bias must be a finite number",
                  "reg": "threshold must be a finite number"}
ARRAY_OF = {"gram": "entries", "svm": "support_vectors", "reg": "coefficients"}
# the fields saved as their upper triangle: the rows [i, i:] back to back
UPPER = {"entries"}


def scalar_refused(got):
    """Per type, the message that refuses its spoiled scalar, read as `got`."""
    return {type_: f"{must_be}, got {got}" for type_, must_be in SCALAR_MUST_BE.items()}


def triangle(array):
    """The rows [i, i:] of a 2-D array, back to back."""
    return np.concatenate([row[i:] for i, row in enumerate(array)] or [np.empty(0)])


def parsed(data):
    """The record of an artifact's bytes: the header line's fields, each array
    field's shape replaced by the array the payload holds for it."""
    head, _, payload = data.partition(b"\n")
    record, offset = json.loads(head), 0
    for key in sorted(set(record) & set(ARRAYS)):
        shape = record[key]
        count = shape[0] * (shape[0] + 1) // 2 if key in UPPER else math.prod(shape)
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        if key in UPPER:  # mirrored into place
            record[key] = np.zeros(shape)
            record[key][np.triu_indices(shape[0])] = flat
            record[key] = np.where(np.tri(shape[0], k=-1, dtype=bool), record[key].T,
                                   record[key])
        else:
            record[key] = flat.reshape(shape).copy()
    assert offset == len(payload)
    return record


def rendered(record):
    """The bytes of an artifact record: one line of compact JSON with the keys
    sorted and each numpy array replaced by its shape, then each array's
    little-endian float64 bytes in key order (a field in UPPER as `triangle`)."""
    arrays = {key: value for key, value in record.items() if isinstance(value, np.ndarray)}
    header = json.dumps({**record, **{key: list(a.shape) for key, a in arrays.items()}},
                        sort_keys=True, separators=(",", ":"))
    payload = b"".join((triangle(arrays[key]) if key in UPPER else arrays[key])
                       .astype("<f8").tobytes() for key in sorted(arrays))
    return header.replace(json.dumps(RAW_1E400), "1e400").encode() + b"\n" + payload


def envelope(record, version):
    """The bytes of `record` in the layout of version 2: one JSON object over
    many lines, one key per line, each array as base64 of its float64 rows.
    Version 1 differs in writing decimal numbers and version 3 in keeping a
    Gram's upper triangle; files of all three are refused by their version."""
    def text(value):
        if not isinstance(value, np.ndarray):
            return json.dumps(value)
        if value.ndim == 1:
            return json.dumps(base64.b64encode(value.astype("<f8").tobytes()).decode())
        return "[\n" + ",\n".join(text(row) for row in value) + "\n]"
    record = {**record, "version": version}
    return ("{\n" + ",\n".join(f"{json.dumps(key)}: {text(record[key])}"
                               for key in sorted(record)) + "\n}\n").encode()


@pytest.mark.parametrize("type_, fields", [
    ("gram", {"entries": np.array([[1.0, -0.0, 5e-324], [-0.0, 1.0, 1 / 3],
                                   [5e-324, 1 / 3, 7.0]]),
              "kernel_config": {"kind": "rbf", "gamma": 1.5},
              "rows": np.array([[-0.0, 0.5], [1e300, 5e-324], [0.25, 1.0]])}),
    ("svm", {"bias": -0.25, "converged": False, "dual_coef": np.array([0.5, -2.0]),
             "kernel_config": {"kind": "linear"},
             "support_vectors": np.array([[0.1, 0.2, 0.3], [-1e300, 0.0, 2.5]])}),
    ("svm", {"bias": 0.0, "converged": True, "dual_coef": np.empty(0),
             "kernel_config": {"kind": "linear"}, "support_vectors": np.empty((0, 3))}),
], ids=["gram", "svm", "svm without rows"])
def test_save_writes_a_json_header_line_then_raw_bytes(tmp_path, type_, fields):
    artifact.save(tmp_path / "artifact", type_, fields)
    assert (tmp_path / "artifact").read_bytes() == rendered(
        {**fields, "format": "qsarq", "type": type_, "version": 4})


def on_record(change):
    """A fault of the file's bytes: `change` applied to its record, rendered again."""
    def fault(data):
        record = parsed(data)
        change(record)
        return rendered(record)
    return fault


def on_array(change, field=None):
    """A fault of the file's bytes: array `field` (default: the type's) replaced
    by `change` of it."""
    def fault(rec):
        name = field or ARRAY_OF[rec["type"]]
        rec[name] = change(rec[name].copy())
    return on_record(fault)


def wrong_shape(array):
    """A valid array in a shape the field of its type cannot have."""
    if array.ndim == 1:
        return array[None, :]  # coefficients with a second axis
    if array.shape[0] == array.shape[1]:
        return array[:, :-1]  # entries not square
    return array[:-1]  # one support vector fewer than dual coefficients


def nan_first(array):
    array.flat[0] = np.nan
    return array


# a string value that `rendered` writes as the bare JSON number 1e400, which
# Python's json module reads as inf
RAW_1E400 = "<raw 1e400>"


def spoiled(tmp_path, type_, fault):
    """Path of a saved artifact of `type_` after `fault` changed its bytes."""
    path = tmp_path / "artifact"
    TYPES[type_][1](TYPES[type_][0](), path)
    path.write_bytes(fault(path.read_bytes()))
    return path


# (name, malformed change to a saved file's bytes, pattern of the error message,
# or a mapping of each type to its pattern)
FAULTS = [
    ("wrong type", on_record(lambda rec: rec.update(type={"gram": "svm", "svm": "reg",
                                                          "reg": "gram"}[rec["type"]])),
     "artifact, expected"),
    ("wrong version", on_record(lambda rec: rec.update(version=1)), "artifact version 1, not 4"),
    ("version true", on_record(lambda rec: rec.update(version=True)), "artifact version True"),
    ("version 3 file", lambda data: envelope(parsed(data), 3), "artifact version 3, not 4"),
    ("other format", on_record(lambda rec: rec.update(format="qsarq-svm v1")),
     "not a qsarq artifact"),
    ("missing key", on_record(lambda rec: rec.pop(SCALAR_OF[rec["type"]])), "missing key"),
    ("unknown key", on_record(lambda rec: rec.update(extra=1)), "unknown key"),
    ("wrong-shaped array", on_array(wrong_shape),
     r"has shape \(7, 6\), expected \(7, 7\)|shape of a 1-D array|has shape \(6, 2\), "
     r"expected \(7, 2\)"),
    ("array as numbers", on_array(lambda array: array.tolist()),
     "must be the shape of a [12]-D array, a list of [12] lengths"),
    ("non-finite number", on_record(lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]],
                                                                float("nan"))),
     "not a finite number"),
    ("overflowing number", on_record(lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]],
                                                                 RAW_1E400)),
     scalar_refused("inf")),
    ("huge integer", on_record(lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], 10**400)),
     scalar_refused(str(10**400))),
    ("number as a string", on_record(lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], "0.5")),
     scalar_refused("'0.5'")),
    ("payload not a multiple of 8", lambda data: data[:-1], r"holds \d+ bytes of arrays, not"),
    ("truncated payload", lambda data: data[:-8], r"holds \d+ bytes of arrays, not"),
    ("trailing bytes", lambda data: data + bytes(8), r"holds \d+ bytes of arrays, not"),
    ("header with no newline", lambda data: data.partition(b"\n")[0],
     "not a qsarq artifact: no newline ends its header"),
    ("NaN bits", on_array(nan_first), "non-finite"),
]


@pytest.mark.parametrize("name, fault, message", FAULTS, ids=[name for name, *_ in FAULTS])
@pytest.mark.parametrize("type_", TYPES)
def test_malformed_artifact_raises_naming_the_file(tmp_path, type_, name, fault, message):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        TYPES[type_][2](path)
    assert re.search(message[type_] if isinstance(message, dict) else message, str(info.value))


def row_end(data, array, row):
    """The offset in `data` of the byte after row `row` of array field `array`
    (of its triangle row, for a field in UPPER)."""
    record = parsed(data)
    keys = sorted(set(record) & set(ARRAYS))
    entries = sum(record[key].size for key in keys[:keys.index(array)])
    shape = record[array].shape
    if array in UPPER:
        entries += sum(shape[0] - i for i in range(row + 1))
    else:
        entries += (row + 1) * math.prod(shape[1:])
    return len(data.partition(b"\n")[0]) + 1 + 8 * entries


@pytest.mark.parametrize("type_, row", [("gram", 1), ("svm", 0)], ids=["gram", "svm"])
def test_ragged_rows_raise_naming_the_file(tmp_path, type_, row):
    def ragged(data):  # rows are not delimited: the file ends 8 bytes short
        end = row_end(data, ARRAY_OF[type_], row)
        return data[:end - 8] + data[end:]
    path = spoiled(tmp_path, type_, ragged)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + r"holds \d+ bytes of "
                                         r"arrays, not the \d+ that its shapes need"):
        TYPES[type_][2](path)


@pytest.mark.parametrize("type_, fault", [
    ("gram", on_record(lambda rec: rec["kernel_config"].update(gamma=1.0))),
    ("svm", on_record(lambda rec: rec["kernel_config"]["feature_map"].update(rep=1))),
    ("reg", on_array(lambda coefficients: coefficients[:-1], "coefficients")),
    ("reg", on_record(lambda rec: rec.update(n_features=True))),
], ids=["kernel key", "feature map key", "coefficient count", "n_features"])
def test_fields_that_build_no_object_raise_naming_the_file(tmp_path, type_, fault):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        TYPES[type_][2](path)


@pytest.mark.parametrize("type_", TYPES)
def test_header_claiming_more_bytes_than_the_file_holds_is_refused_before_allocating(
        tmp_path, type_):
    def claiming(data):  # the last length of the array field 10^5: 10^10 entries for a gram
        head, _, payload = data.partition(b"\n")
        header = json.loads(head)
        name = ARRAY_OF[type_]
        header[name] = [100_000] * len(header[name]) if name in UPPER else [
            *header[name][:-1], 100_000]
        if name in UPPER:  # a Gram's rows share its n
            header["rows"][0] = 100_000
        return json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
    path = spoiled(tmp_path, type_, claiming)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: holds ") + r"\d+ bytes of "
                                             r"arrays, not the \d{6,} that its shapes need"):
            TYPES[type_][2](path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("cfg", [SHOTS, KernelConfig(kind=QUANTUM_EXACT, feature_map=ZZ3)],
                         ids=["shots", "exact"])
def test_gram_file_holds_the_upper_triangle_and_loads_exactly_symmetric(tmp_path, cfg):
    saved = gram(cfg, np.random.default_rng(6).random((9, cfg.feature_map.n_qubits)))
    save_gram(saved, tmp_path / "kernel.gram")
    head, _, payload = (tmp_path / "kernel.gram").read_bytes().partition(b"\n")
    assert (json.loads(head)["entries"], json.loads(head)["rows"]) == (
        [9, 9], [9, cfg.feature_map.n_qubits])
    assert payload == b"".join(saved.entries[i, i:].tobytes() for i in range(9)) + \
        saved.rows.tobytes()
    loaded = load_gram(tmp_path / "kernel.gram").entries
    assert loaded.tobytes() == saved.entries.tobytes()
    assert loaded.tobytes() == np.ascontiguousarray(loaded.T).tobytes()


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("change", [-1, 1], ids=["one short", "one over"])
def test_triangle_row_of_the_wrong_length_is_refused_naming_the_file(tmp_path, row, change):
    def fault(data):  # an entry cut from or added to the end of the row
        end = row_end(data, "entries", row)
        return data[:end + 8 * min(change, 0)] + bytes(8 * max(change, 0)) + data[end:]
    path = spoiled(tmp_path, "gram", fault)
    # 224 bytes of the 7-row triangle, then 112 of the 7 x 2 rows
    with pytest.raises(ValueError, match=re.escape(f"{path}: holds {336 + 8 * change} bytes "
                                                   "of arrays, not the 336 that")):
        load_gram(path)


def test_square_gram_file_of_version_2_is_refused_naming_the_file(tmp_path):
    # the layout of version 2: every row whole, each off-diagonal entry twice
    saved = gram(SHOTS, X)
    record = {"entries": saved.entries, "format": "qsarq",
              "kernel_config": SHOTS.to_dict(), "rows": X, "type": "gram"}
    path = tmp_path / "square.gram"
    path.write_bytes(envelope(record, 2))
    with pytest.raises(ValueError, match=re.escape(f"{path}: artifact version 2, not 4")):
        load_gram(path)
    # and square rows are no triangle, whatever the version says: 49 entries, not 28
    header, _, _ = rendered({**record, "version": 4}).partition(b"\n")
    path.write_bytes(header + b"\n" + saved.entries.tobytes() + X.tobytes())
    with pytest.raises(ValueError, match=re.escape(f"{path}: holds 504 bytes of arrays, "
                                                   "not the 336 that its shapes need")):
        load_gram(path)


@pytest.mark.parametrize("entries", [
    np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]]),
    np.array([[1.0, -0.0], [0.0, 1.0]]),
    np.ones((2, 3)),
    np.ones(2),
], ids=["one ulp", "signed zero", "not square", "1-D"])
def test_save_refuses_an_asymmetric_gram_before_writing(tmp_path, entries):
    path = tmp_path / "artifact"
    with pytest.raises(ValueError, match=re.escape(f"{path}: entries is not symmetric")):
        artifact.save(path, "gram", {**VALID["gram"], "entries": entries})
    assert not path.exists()
