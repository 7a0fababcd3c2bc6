"""The artifact envelope: exact round trips and strict loading, for every type."""

import base64
import json
import re
import sys

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
    "gram": (lambda: gram(SHOTS, X, jitter=0.25), save_gram, load_gram),
    "svm": (lambda: train(gram(SHOTS, X, jitter=0.25), Y, SvmConfig(C=2.0), features=X),
            save_svm_model, load_svm_model),
    "reg": (lambda: fit_least_squares(X, Y, BasisSpec(POLY2, 2), ridge=0.1, threshold=0.25),
            save_reg_model, load_reg_model),
}
ARRAYS = ("entries", "support_vectors", "dual_coef", "coefficients")
SCALARS = ("kernel_config", "dataset_digest", "jitter", "bias", "converged", "basis",
           "threshold")


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
    record = json.loads((tmp_path / "first").read_text(), parse_constant=pytest.fail)
    assert (record["format"], record["version"], record["type"]) == ("qsarq", 3, type_)


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
                         "dataset_digest": "0", "jitter": 0.0},
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
    "gram": {"entries": np.eye(3), "kernel_config": {"kind": "linear"}, "dataset_digest": "0",
             "jitter": 0.0},
    "reg": {"basis": "affine", "n_features": 2, "coefficients": np.array([0.5, 1.0, -1.0]),
            "threshold": 0.0},
}


@pytest.mark.parametrize("type_, key, value", [
    ("gram", "entries", np.array([[1.0, 0.5, 0.0], [0.5, np.nan, 0.5], [0.0, 0.5, 1.0]])),
    ("reg", "coefficients", np.array([0.5, np.inf, -1.0])),
    ("reg", "coefficients", np.array([0.5, 1.0, -np.inf])),
    ("gram", "jitter", float("nan")),
], ids=["NaN in a middle row", "inf", "-inf", "NaN scalar"])
def test_save_refuses_non_finite_values_before_writing(tmp_path, type_, key, value):
    path = tmp_path / "artifact"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {key} holds non-finite values")):
        artifact.save(path, type_, {**VALID[type_], key: value})
    assert not path.exists()


# per type, one scalar field and one array field to spoil
SCALAR_OF = {"gram": "jitter", "svm": "bias", "reg": "threshold"}
ARRAY_OF = {"gram": "entries", "svm": "support_vectors", "reg": "coefficients"}
# the fields saved as their upper triangle: row i holds the entries [i, i:]
UPPER = {"entries"}


def decoded(payload, upper=False):
    """The float64 array of a saved array field: base64 of little-endian float64
    bytes, a row (or, if `upper`, a row from the diagonal on, mirrored) per string."""
    if isinstance(payload, str):
        return np.frombuffer(base64.b64decode(payload), dtype="<f8")
    if not upper:
        return np.array([decoded(row) for row in payload])
    array = np.empty((len(payload), len(payload)))
    for i, row in enumerate(payload):
        array[i, i:] = array[i:, i] = decoded(row)
    return array


def encoded(array, upper=False):
    """The saved form of `array`: one base64 string, or one per row of a 2-D
    array (if `upper`, of the row from the diagonal on)."""
    if array.ndim == 1:
        return base64.b64encode(array.astype("<f8").tobytes()).decode("ascii")
    return [encoded(row[i:] if upper else row) for i, row in enumerate(array)]


def rendered(type_, fields):
    """The text of an artifact, rendered with `json.dumps` field by field and row by row."""
    record = {**fields, "format": "qsarq", "type": type_, "version": 3}
    lines = []
    for key in sorted(record):
        value = record[key]
        if isinstance(value, np.ndarray) and value.ndim == 2:
            rows = ",\n".join(json.dumps(row) for row in encoded(value, key in UPPER))
            text = "[\n" + rows + "\n]" if len(value) else "[]"
        elif isinstance(value, np.ndarray):
            text = json.dumps(encoded(value))
        else:
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append(json.dumps(key) + ": " + text)
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.mark.parametrize("type_, fields", [
    ("gram", {"entries": np.array([[1.0, -0.0, 5e-324], [-0.0, 1.0, 1 / 3],
                                   [5e-324, 1 / 3, 7.0]]),
              "kernel_config": {"kind": "rbf", "gamma": 1.5}, "dataset_digest": "ab",
              "jitter": 0.125}),
    ("svm", {"bias": -0.25, "converged": False, "dual_coef": np.array([0.5, -2.0]),
             "kernel_config": {"kind": "linear"},
             "support_vectors": np.array([[0.1, 0.2, 0.3], [-1e300, 0.0, 2.5]])}),
    ("svm", {"bias": 0.0, "converged": True, "dual_coef": np.empty(0),
             "kernel_config": {"kind": "linear"}, "support_vectors": np.empty((0, 3))}),
], ids=["gram", "svm", "svm without rows"])
def test_save_writes_each_row_payload_as_a_json_string(tmp_path, type_, fields):
    artifact.save(tmp_path / "artifact", type_, fields)
    assert (tmp_path / "artifact").read_text(encoding="utf-8") == rendered(type_, fields)


def respoiled(change, field=None):
    """A record fault re-encoding array `field` (default: the type's) after `change`."""
    def fault(rec):
        name = field or ARRAY_OF[rec["type"]]
        rec[name] = encoded(change(decoded(rec[name], name in UPPER).copy()), name in UPPER)
    return fault


def first_row(change):
    """A record fault applying `change` to the first payload string of the array field."""
    def fault(rec):
        name = ARRAY_OF[rec["type"]]
        if isinstance(rec[name], str):
            rec[name] = change(rec[name])
        else:
            rec[name][0] = change(rec[name][0])
    return fault


def wrong_shape(array):
    """A valid array in a shape the field of its type cannot have."""
    if array.ndim == 1:
        return array[None, :]  # coefficients with a second axis
    if array.shape[0] == array.shape[1]:
        return array[:, :-1]  # entries not square: the first triangle row is one short
    return array[:-1]  # one support vector fewer than dual coefficients


def nan_first(array):
    array.flat[0] = np.nan
    return array


def one_byte_short(text):
    return base64.b64encode(base64.b64decode(text)[:-1]).decode("ascii")


# a string value that `spoiled` writes as the bare JSON number 1e400, which
# Python's json module reads as inf
RAW_1E400 = "<raw 1e400>"


def spoiled(tmp_path, type_, fault):
    """Path of a saved artifact of `type_` after `fault` changed its record."""
    path = tmp_path / "artifact"
    TYPES[type_][1](TYPES[type_][0](), path)
    record = json.loads(path.read_text())
    fault(record)
    text = json.dumps(record).replace(json.dumps(RAW_1E400), "1e400")
    path.write_text(text, encoding="utf-8")
    return path


# (name, malformed change to a saved record, pattern of the error message)
FAULTS = [
    ("wrong type", lambda rec: rec.update(type={"gram": "svm", "svm": "reg",
                                                "reg": "gram"}[rec["type"]]), "artifact, expected"),
    ("wrong version", lambda rec: rec.update(version=1), "artifact version 1, not 3"),
    ("version true", lambda rec: rec.update(version=True), "artifact version True"),
    ("other format", lambda rec: rec.update(format="qsarq-svm v1"), "not a qsarq artifact"),
    ("missing key", lambda rec: rec.pop(SCALAR_OF[rec["type"]]), "missing key"),
    ("unknown key", lambda rec: rec.update(extra=1), "unknown key"),
    ("wrong-shaped array", respoiled(wrong_shape),
     "has shape|1-D array as base64|not an upper triangle: 7 rows, the first of 6 entries"),
    ("array as numbers", lambda rec: rec.__setitem__(
        ARRAY_OF[rec["type"]], decoded(rec[ARRAY_OF[rec["type"]]], rec["type"] == "gram")
        .tolist()), "base64"),
    ("non-finite number", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], float("nan")),
     "not a finite number"),
    ("overflowing number", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], RAW_1E400),
     "too large for a float"),
    ("huge integer", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], 10**400),
     "too large for a float"),
    ("number as a string", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], "0.5"),
     "must be of type"),
    ("non-base64 character", first_row(lambda text: "!" + text[1:]), "not base64"),
    ("payload not a multiple of 8", first_row(one_byte_short), "not a multiple of 8"),
    ("NaN bits", respoiled(nan_first), "non-finite"),
]


@pytest.mark.parametrize("name, fault, message", FAULTS, ids=[name for name, *_ in FAULTS])
@pytest.mark.parametrize("type_", TYPES)
def test_malformed_artifact_raises_naming_the_file(tmp_path, type_, name, fault, message):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        TYPES[type_][2](path)
    assert re.search(message, str(info.value))


@pytest.mark.parametrize("type_, row, message", [
    ("gram", 1, "not an upper triangle: row 1 has 40 bytes, not 48"),
    ("svm", 0, "unequal length"),
], ids=["gram", "svm"])
def test_ragged_rows_raise_naming_the_file(tmp_path, type_, row, message):
    def ragged(rec):  # one entry short of the shape the other rows set
        rows = rec[ARRAY_OF[type_]]
        rows[row] = encoded(decoded(rows[row])[:-1])
    path = spoiled(tmp_path, type_, ragged)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
        TYPES[type_][2](path)


@pytest.mark.parametrize("type_, fault", [
    ("gram", lambda rec: rec["kernel_config"].update(gamma=1.0)),
    ("svm", lambda rec: rec["kernel_config"]["feature_map"].update(rep=1)),
    ("reg", respoiled(lambda coefficients: coefficients[:-1], "coefficients")),
    ("reg", lambda rec: rec.update(n_features=True)),
], ids=["kernel key", "feature map key", "coefficient count", "n_features"])
def test_fields_that_build_no_object_raise_naming_the_file(tmp_path, type_, fault):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        TYPES[type_][2](path)


@pytest.mark.parametrize("cfg", [SHOTS, KernelConfig(kind=QUANTUM_EXACT, feature_map=ZZ3)],
                         ids=["shots", "exact"])
def test_gram_file_holds_the_upper_triangle_and_loads_exactly_symmetric(tmp_path, cfg):
    saved = gram(cfg, np.random.default_rng(6).random((9, cfg.feature_map.n_qubits)))
    save_gram(saved, tmp_path / "kernel.gram")
    rows = json.loads((tmp_path / "kernel.gram").read_text())["entries"]
    assert [decoded(row).tobytes() for row in rows] == [
        saved.entries[i, i:].tobytes() for i in range(9)]
    loaded = load_gram(tmp_path / "kernel.gram").entries
    assert loaded.tobytes() == saved.entries.tobytes()
    assert loaded.tobytes() == np.ascontiguousarray(loaded.T).tobytes()


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("change", [-1, 1], ids=["one short", "one over"])
def test_triangle_row_of_the_wrong_length_is_refused_naming_the_file(tmp_path, row, change):
    def fault(rec):
        entries = decoded(rec["entries"][row])
        rec["entries"][row] = encoded(np.resize(entries, len(entries) + change))
    path = spoiled(tmp_path, "gram", fault)
    with pytest.raises(ValueError, match=re.escape(f"{path}: entries is not an upper triangle")):
        load_gram(path)


def test_square_gram_file_of_version_2_is_refused_naming_the_file(tmp_path):
    # the layout of version 2: every row whole, each off-diagonal entry twice
    saved = gram(SHOTS, X, jitter=0.25)
    record = {"dataset_digest": saved.dataset_digest, "entries": encoded(saved.entries),
              "format": "qsarq", "jitter": 0.25, "kernel_config": SHOTS.to_dict(),
              "type": "gram", "version": 2}
    path = tmp_path / "square.gram"
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: artifact version 2, not 3")):
        load_gram(path)
    # and square rows are no triangle, whatever the version says
    path.write_text(json.dumps({**record, "version": 3}), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: entries is not an upper "
                                                   "triangle: row 1 has 56 bytes, not 48")):
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
