"""The artifact envelope: exact round trips and strict loading, for every type."""

import json
import re

import numpy as np
import pytest

from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import QUANTUM_SHOTS, KernelConfig, gram, load_gram, save_gram
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

# type: (a saved object, its save and load functions)
TYPES = {
    "gram": (lambda: gram(SHOTS, X, jitter=0.25), save_gram, load_gram),
    "svm": (lambda: train(gram(SHOTS, X, jitter=0.25), Y, SvmConfig(C=2.0), features=X),
            save_svm_model, load_svm_model),
    "reg": (lambda: fit_least_squares(X, Y, BasisSpec(POLY2, 2), ridge=0.1, threshold=0.25),
            save_reg_model, load_reg_model),
}
ARRAYS = ("entries", "alphas", "labels", "training_features", "coefficients")
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
    assert (record["format"], record["version"], record["type"]) == ("qsarq", 1, type_)


def test_load_model_follows_the_saved_type(tmp_path):
    for type_, cls in (("svm", SvmModel), ("reg", RegModel)):
        save_model(TYPES[type_][0](), tmp_path / type_)
        assert type(load_model(tmp_path / type_)) is cls
    save_gram(TYPES["gram"][0](), tmp_path / "gram")
    with pytest.raises(ValueError, match="'gram' artifact"):
        load_model(tmp_path / "gram")


# per type, one scalar field and one array field to spoil
SCALAR_OF = {"gram": "jitter", "svm": "bias", "reg": "threshold"}
ARRAY_OF = {"gram": "entries", "svm": "training_features", "reg": "coefficients"}


def wrong_shape(rec):
    """The array field of `rec` in a shape its type cannot have."""
    array = rec[ARRAY_OF[rec["type"]]]
    if rec["type"] == "gram":
        return [row[:-1] for row in array]  # not square
    if rec["type"] == "svm":
        return array[:-1]  # one training row fewer than alphas
    return [array]  # coefficients with a second axis


def spoiled(tmp_path, type_, fault):
    """Path of a saved artifact of `type_` after `fault` changed its record."""
    path = tmp_path / "artifact"
    TYPES[type_][1](TYPES[type_][0](), path)
    record = json.loads(path.read_text())
    fault(record)
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


# (name, malformed change to a saved record)
FAULTS = [
    ("wrong type", lambda rec: rec.update(type={"gram": "svm", "svm": "reg",
                                                "reg": "gram"}[rec["type"]])),
    ("wrong version", lambda rec: rec.update(version=2)),
    ("version true", lambda rec: rec.update(version=True)),
    ("other format", lambda rec: rec.update(format="qsarq-svm v1")),
    ("missing key", lambda rec: rec.pop(SCALAR_OF[rec["type"]])),
    ("unknown key", lambda rec: rec.update(extra=1)),
    ("wrong-shaped array", lambda rec: rec.__setitem__(ARRAY_OF[rec["type"]],
                                                       wrong_shape(rec))),
    ("array of strings", lambda rec: rec.__setitem__(
        ARRAY_OF[rec["type"]], np.asarray(rec[ARRAY_OF[rec["type"]]]).astype(str).tolist())),
    ("non-finite number", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], float("nan"))),
    ("number as a string", lambda rec: rec.__setitem__(SCALAR_OF[rec["type"]], "0.5")),
]


@pytest.mark.parametrize("name, fault", FAULTS, ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("type_", TYPES)
def test_malformed_artifact_raises_naming_the_file(tmp_path, type_, name, fault):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        TYPES[type_][2](path)


@pytest.mark.parametrize("type_, fault", [
    ("gram", lambda rec: rec["kernel_config"].update(gamma=1.0)),
    ("svm", lambda rec: rec["kernel_config"]["feature_map"].update(rep=1)),
    ("svm", lambda rec: rec["labels"].__setitem__(0, 0)),
    ("reg", lambda rec: rec.update(coefficients=rec["coefficients"][:-1])),
    ("reg", lambda rec: rec.update(n_features=True)),
], ids=["kernel key", "feature map key", "label 0", "coefficient count", "n_features"])
def test_fields_that_build_no_object_raise_naming_the_file(tmp_path, type_, fault):
    path = spoiled(tmp_path, type_, fault)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        TYPES[type_][2](path)
