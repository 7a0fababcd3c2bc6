"""End-to-end tests of the `qsarq` subcommands, driven through `cli.main`."""

import json
import math
import re

import numpy as np
import pytest
import yaml

from qsarq.cli import main
from qsarq.errors import InternalConsistencyError
from qsarq.feature_maps import MAX_REPS
from qsarq.pipeline import fit_entry, load_experiment_config, prepare_features
from qsarq.regression import MAX_ANNEAL_ITERS, load_reg_model

CUTOFF = 6.0
COLUMNS = ("n_donors", "n_acceptors", "rotatable_bonds", "mol_weight", "logp")
MODELS = [
    {"name": "qsvm", "kind": "svm", "C": 4.0,
     "kernel": {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": 1}}},
    {"name": "rbf", "kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}},
    {"name": "ls", "kind": "reg_ls", "ridge": 0.01},
    {"name": "ls_activity", "kind": "reg_ls", "ridge": 0.01, "target": "activity"},
    {"name": "anneal", "kind": "reg_anneal", "iterations": 300, "anneal_seed": 2},
]


def write_csv(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform([0, 0, 0, 200, -1], [6, 10, 8, 550, 6], size=(n, len(COLUMNS)))
    activity = 4.5 + 0.3 * X[:, 0] + 0.004 * X[:, 3] - 0.3 * X[:, 4]
    lines = [",".join(("compound_id", *COLUMNS, "pec50"))]
    lines += [",".join((f"c{i}", *(f"{v:.4f}" for v in X[i]), f"{activity[i]:.4f}"))
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_config(path, csv_name="data.csv", **overrides):
    config = {"input": csv_name, "seed": 3, "split": 0.7, "activity_cutoff": CUTOFF,
              "models": MODELS, **overrides}
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


@pytest.fixture
def config(tmp_path):
    write_csv(tmp_path / "data.csv")
    return write_config(tmp_path / "exp.yaml")


@pytest.fixture
def qsarq(capsys):
    def run(*args):
        code = main([str(a) for a in args])
        out, err = capsys.readouterr()
        return code, out, err
    return run


def test_run_twice_is_byte_identical(tmp_path, config, qsarq):
    for out in ("a", "b"):
        assert qsarq("run", "--config", config, "--out", tmp_path / out, "--quiet")[0] == 0
    for name in ("report.txt", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_rows_share_one_form(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    models = [{**m, "note": "the paper's kernel"} if m["name"] == "qsvm"
              else {**m, "tag": "q/sa"} if m["name"] == "anneal" else m for m in MODELS]
    config = write_config(tmp_path / "exp.yaml", models=models)
    assert qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")[0] == 0
    lines = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
    rows = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["rows"]
    assert [row["name"] for row in rows] == [m["name"] for m in MODELS]

    columns = ("model", "type", "acc", "execution", "kernel")
    offsets = [lines[0].index(h) for h in columns]
    assert lines[0].split() == list(columns) and offsets[0] == 0
    for line, row in zip(lines[2:2 + len(rows)], rows):
        for offset in offsets[1:]:  # each column starts at its header's offset
            assert line[offset - 2:offset] == "  " and line[offset] != " "
        cells = [line[a:b].strip() for a, b in zip(offsets, offsets[1:] + [None])]
        assert cells == [row["name"], row["type"], f"{row['accuracy']:.4f}",
                         row["execution"], row["kernel"]]
    assert lines[2 + len(rows)] == ""
    assert [row["type"] for row in rows] == ["c/q", "c", "c", "c", "q/sa"]
    assert [line for line in lines if line.startswith("note ")] == [
        "note qsvm: the paper's kernel"]

    regression = {"basis", "target", "ridge", "train_loss"}
    anneal = {"t0": 1.0, "cooling": 0.999, "iterations": 300, "anneal_seed": 2}
    for row in rows:
        assert set(row) == {"name", "type", "accuracy", "execution", "kernel", "note",
                            "detail"}
        assert row["note"] == ("the paper's kernel" if row["name"] == "qsvm" else None)
    assert set(rows[0]["detail"]) == set(rows[1]["detail"]) == {
        "C", "converged", "n_support", "kernel_config"}
    assert set(rows[2]["detail"]) == set(rows[3]["detail"]) == regression
    assert set(rows[4]["detail"]) == regression | set(anneal)
    assert {k: rows[4]["detail"][k] for k in anneal} == anneal


@pytest.mark.parametrize("model", ["qsvm", "ls"])
def test_eval_on_preprocessed_csv_reproduces_training_accuracy(tmp_path, config, qsarq,
                                                               model):
    assert qsarq("preprocess", tmp_path / "data.csv", "--cutoff", CUTOFF,
                 "--out", tmp_path / "pre", "--quiet")[0] == 0
    code, out, _ = qsarq("train", "--config", config, "--model", model,
                         "--out", tmp_path / "models")
    assert code == 0
    train_acc = out.split("training accuracy ")[1][:6]
    assert qsarq("eval", tmp_path / "models" / f"{model}.model",
                 tmp_path / "pre" / "normalized.csv", "--out", tmp_path / "ev",
                 "--quiet")[0] == 0
    metrics = dict(line.split() for line in (tmp_path / "ev" / "metrics.txt").read_text()
                   .splitlines())
    assert f"{float(metrics['accuracy']):.4f}" == train_acc
    assert metrics["n"] == "30"


def test_train_activity_target_fits_pec50_at_the_cutoff(tmp_path, config, qsarq):
    assert qsarq("train", "--config", config, "--model", "ls_activity",
                 "--out", tmp_path, "--quiet")[0] == 0
    saved = load_reg_model(tmp_path / "ls_activity.model")
    assert saved.threshold == CUTOFF

    cfg = load_experiment_config(config)
    X, X_test, y, _, info = prepare_features(cfg, split=False)
    assert X_test.shape == (0, X.shape[1]) and len(y) == 30
    entry = next(e for e in cfg.models if e.name == "ls_activity")
    model = fit_entry(entry, X, y, info["table"].activity, cfg.activity_cutoff)
    np.testing.assert_array_equal(saved.coefficients, model.coefficients)
    # independently: ridge least squares of pEC50 on [1, x]
    phi = np.hstack([np.ones((len(X), 1)), X])
    pec50 = info["table"].activity
    a = np.vstack([phi, np.sqrt(entry.ridge) * np.eye(phi.shape[1])])
    q = np.linalg.lstsq(a, np.concatenate([pec50, np.zeros(phi.shape[1])]), rcond=None)[0]
    np.testing.assert_allclose(saved.coefficients, q, rtol=1e-9, atol=1e-9)


def test_train_reuses_a_saved_gram_matrix(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path / "g",
                 "--quiet")[0] == 0
    assert qsarq("train", "--config", config, "--model", "qsvm", "--out", tmp_path / "a",
                 "--quiet")[0] == 0
    assert qsarq("train", "--config", config, "--model", "qsvm", "--out", tmp_path / "b",
                 "--gram", tmp_path / "g" / "qsvm.gram", "--quiet")[0] == 0
    assert ((tmp_path / "a" / "qsvm.model").read_bytes()
            == (tmp_path / "b" / "qsvm.model").read_bytes())


def test_gram_of_another_dataset_exits_2(tmp_path, config, qsarq):
    write_csv(tmp_path / "other.csv", seed=1)
    other = write_config(tmp_path / "other.yaml", csv_name="other.csv")
    assert qsarq("gram", "--config", other, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "qsvm",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and "digest" in err


def test_gram_of_another_kernel_exits_2(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "rbf",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert code == 2
    assert "q | zz linear r1" in err and "c | rbf gamma=1.5" in err
    assert not (tmp_path / "rbf.model").exists()


def test_gram_of_another_jitter_exits_2(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    kernel = {"kind": "quantum_shots", "shots": 64, "rng_seed": 1,
              "feature_map": {"family": "zz", "reps": 1}}
    for name, jitter in (("a.yaml", 0.5), ("b.yaml", 0.0)):
        write_config(tmp_path / name,
                     models=[{"name": "q", "kind": "svm", "jitter": jitter, "kernel": kernel}])
    assert qsarq("gram", "--config", tmp_path / "a.yaml", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", tmp_path / "b.yaml", "--gram",
                         tmp_path / "q.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and "jitter 0.5" in err and "0.0" in err
    assert not (tmp_path / "q.model").exists()


# a Gram file and a model file in the text formats written before the JSON envelope
TEXT_GRAM = """2
1 0.5
0.5 1
digest=0 config={"gamma": 1.5, "kind": "rbf"}
"""
TEXT_MODEL = """qsarq-reg v1
basis {"kind": "affine", "n_features": 5}
threshold 0
coefficients 0 1 0 0 0 0
"""


@pytest.mark.parametrize("text", [TEXT_GRAM, '{"format": "qsarq", "version": 1'],
                         ids=["text format", "truncated envelope"])
def test_unreadable_gram_file_exits_2_naming_it(tmp_path, config, qsarq, text):
    path = tmp_path / "old.gram"
    path.write_text(text, encoding="utf-8")
    code, _, err = qsarq("train", "--config", config, "--model", "rbf", "--gram", path,
                         "--out", tmp_path, "--quiet")
    assert code == 2 and f"error: {path}: not a qsarq artifact" in err


@pytest.mark.parametrize("text", [TEXT_MODEL, "{}"], ids=["text format", "empty envelope"])
def test_unreadable_model_file_exits_2_naming_it(tmp_path, config, qsarq, text):
    path = tmp_path / "old.model"
    path.write_text(text, encoding="utf-8")
    code, _, err = qsarq("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF,
                         "--out", tmp_path, "--quiet")
    assert code == 2 and f"error: {path}: not a qsarq artifact" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_version_1_artifact_exits_2_naming_it(tmp_path, config, qsarq, command):
    maker, saved = ("gram", "qsvm.gram") if command == "train" else ("train", "qsvm.model")
    assert qsarq(maker, "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    path = tmp_path / "v1"
    text = (tmp_path / saved).read_text(encoding="utf-8")
    path.write_text(text.replace('"version": 2', '"version": 1'), encoding="utf-8")
    if command == "train":
        args = ("train", "--config", config, "--model", "qsvm", "--gram", path)
    else:
        args = ("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF)
    code, _, err = qsarq(*args, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: artifact version 1, not 2" in err


@pytest.mark.parametrize("model, key, number", [("qsvm", "bias", "1e400"),
                                                ("ls", "threshold", str(10**400))],
                         ids=["svm bias 1e400", "reg threshold 10**400"])
def test_model_number_too_large_for_a_float_exits_2_naming_it(tmp_path, config, qsarq,
                                                              model, key, number):
    assert qsarq("train", "--config", config, "--model", model, "--out", tmp_path,
                 "--quiet")[0] == 0
    path = tmp_path / "huge.model"
    text = (tmp_path / f"{model}.model").read_text(encoding="utf-8")
    path.write_text(re.sub(f'"{key}": [^,\\n]+', f'"{key}": {number}', text),
                    encoding="utf-8")
    code, _, err = qsarq("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF,
                         "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: {key} is too large for a float" in err


def test_gram_on_a_regression_row_exits_2(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "ls",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and "--gram" in err


@pytest.mark.parametrize("command", ["run", "train", "gram"])
def test_csv_row_with_surplus_fields_exits_2(tmp_path, config, qsarq, command):
    path = tmp_path / "data.csv"
    path.write_text(path.read_text() + "extra,1,2,3,300,1,6.5,99\n", encoding="utf-8")
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2 and "line 32 has 8 fields" in err


def test_svm_iteration_budget_below_one_exits_2(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    entry = {"name": "rbf", "kind": "svm", "max_iters": -5,
             "kernel": {"kind": "rbf", "gamma": 1.5}}
    config = write_config(tmp_path / "exp.yaml", models=[entry])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2 and "max_iters must be >= 1, got -5" in err


@pytest.mark.parametrize("iterations", [MAX_ANNEAL_ITERS + 1, 10**30])
def test_oversized_anneal_iterations_exit_2(tmp_path, qsarq, iterations):
    write_csv(tmp_path / "data.csv")
    entry = {"name": "anneal", "kind": "reg_anneal", "iterations": iterations}
    config = write_config(tmp_path / "exp.yaml", models=[entry])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2 and f"iteration count must be between 1 and {MAX_ANNEAL_ITERS}" in err


@pytest.mark.parametrize("reps", [MAX_REPS + 1, 10**30])
def test_oversized_feature_map_reps_exit_2(tmp_path, qsarq, reps):
    write_csv(tmp_path / "data.csv")
    kernel = {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": reps}}
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "q", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"reps must be between 1 and {MAX_REPS}, got {reps}" in err


def test_oversized_kernel_matrix_exits_2(tmp_path, qsarq):
    rows = ["compound_id,logp,pec50"] + [f"c{i},{i % 7},{5 + i % 3}" for i in range(12_000)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    kernel = {"kind": "quantum_exact", "feature_map": {"family": "zz", "n_qubits": 1}}
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "q", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq("gram", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and "12000 x 12000 kernel matrix" in err and "budget" in err


@pytest.mark.parametrize("command, latin", [("preprocess", "data.csv"), ("eval", "data.csv"),
                                            ("run", "data.csv"), ("run", "exp.yaml")])
def test_input_that_is_not_utf8_exits_2_naming_it(tmp_path, config, qsarq, command, latin):
    assert qsarq("train", "--config", config, "--model", "ls", "--out", tmp_path,
                 "--quiet")[0] == 0
    path = tmp_path / latin
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")  # a Latin-1 e-acute
    args = {"preprocess": (path,), "eval": (tmp_path / "ls.model", path, "--cutoff", CUTOFF),
            "run": ("--config", config)}[command]
    code, _, err = qsarq(command, *args, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"{path}: 'utf-8' codec can't decode byte 0xe9" in err


def test_internal_consistency_error_exits_3(tmp_path, config, qsarq, monkeypatch):
    def corrupt(*args, **kwargs):
        raise InternalConsistencyError("kernel value out of range")

    monkeypatch.setattr("qsarq.pipeline.gram", corrupt)
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 3 and "kernel value out of range" in err


SHOT_KERNEL = {"kind": "quantum_shots", "shots": 64, "rng_seed": 1,
               "feature_map": {"family": "zz", "reps": 1}}

# (key, wrongly typed value, the key the error must name)
TYPE_ERRORS = [
    ("seed", [1], "seed"),
    ("split", "most", "split"),
    ("pca_k", {"k": 2}, "pca_k"),
    ("input", ["data.csv"], "input"),
    ("models", "ls", "models"),
    ("C", "abc", "C"),
    ("max_iters", 1.5, "max_iters"),
    ("name", ["m"], "name"),
    ("kernel", {"kind": "rbf", "gamma": "x"}, "gamma"),
    ("kernel", ["linear"], "kernel"),
    ("kernel", {"kind": "quantum_exact", "feature_map": ["zz"]}, "feature_map"),
    ("kernel", {"kind": "quantum_exact", "feature_map": {}}, "family"),
    ("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "n_qubits": [5]}},
     "n_qubits"),
    ("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": [1]}},
     "reps"),
    ("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": 1.5}},
     "reps"),
    ("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": True}},
     "reps"),
    # explicit ids keep those of the cases above
    pytest.param("seed", 1.7, "seed", id="seed_float"),
    pytest.param("seed", True, "seed", id="seed_bool"),
    pytest.param("pca_k", 2.9, "pca_k", id="pca_k_float"),
    pytest.param("split", True, "split", id="split_bool"),
    pytest.param("activity_cutoff", "6", "activity_cutoff", id="activity_cutoff_string"),
    pytest.param("scaler", "false", "scaler", id="scaler_string"),
    pytest.param("lipinski_filter", "no", "lipinski_filter", id="lipinski_filter_string"),
    # NaN and +-inf are not numbers
    pytest.param("C", math.nan, "C", id="C_nan"),
    pytest.param("ridge", math.nan, "ridge", id="ridge_nan"),
    pytest.param("jitter", math.nan, "jitter", id="jitter_nan"),
    pytest.param("tol", math.inf, "tol", id="tol_inf"),
    pytest.param("t0", math.inf, "t0", id="t0_inf"),
    pytest.param("cooling", -math.inf, "cooling", id="cooling_minus_inf"),
    pytest.param("split", math.nan, "split", id="split_nan"),
    pytest.param("activity_cutoff", math.nan, "activity_cutoff", id="activity_cutoff_nan"),
    pytest.param("kernel", {"kind": "rbf", "gamma": math.nan}, "gamma", id="gamma_nan"),
    pytest.param("kernel", {"kind": "poly", "degree": 2, "offset": math.inf}, "offset",
                 id="offset_inf"),
    # shot-kernel integers outside numpy's seed and binomial-count ranges
    pytest.param("kernel", {**SHOT_KERNEL, "rng_seed": -1}, "rng_seed", id="rng_seed_negative"),
    pytest.param("kernel", {**SHOT_KERNEL, "shots": 2**63}, "shots", id="shots_over_int64"),
    # integers too large for a float are not numbers either
    pytest.param("kernel", {"kind": "rbf", "gamma": 10**400}, "gamma", id="gamma_huge_int"),
    pytest.param("kernel", {"kind": "poly", "degree": 2, "offset": 10**400}, "offset",
                 id="offset_huge_int"),
    pytest.param("kernel", {"kind": "poly", "degree": 10**400, "offset": 1.0}, "degree",
                 id="degree_huge_int"),
    pytest.param("C", 10**400, "C", id="C_huge_int"),
    pytest.param("ridge", 10**400, "ridge", id="ridge_huge_int"),
    pytest.param("split", 10**400, "split", id="split_huge_int"),
    pytest.param("activity_cutoff", 10**400, "activity_cutoff", id="activity_cutoff_huge_int"),
]


@pytest.mark.parametrize("key, value, named", TYPE_ERRORS,
                         ids=[named for _, _, named in TYPE_ERRORS])
def test_wrongly_typed_config_value_exits_2(tmp_path, qsarq, key, value, named):
    write_csv(tmp_path / "data.csv")
    entry = {"name": "m", "kind": "svm", "kernel": {"kind": "linear"}}
    overrides = {"models": [entry]}
    if key in ("seed", "split", "pca_k", "input", "models", "activity_cutoff", "scaler",
               "lipinski_filter"):
        overrides[key] = value
    else:
        entry[key] = value
    config = write_config(tmp_path / "exp.yaml", **overrides)
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2
    assert err.startswith("error: ") and f"{named} must be" in err


@pytest.mark.parametrize("key, value", [("max_passes", 10), ("eps", 1e-12)])
def test_removed_solver_key_exits_2(tmp_path, qsarq, key, value):
    write_csv(tmp_path / "data.csv")
    entry = {"name": "m", "kind": "svm", "kernel": {"kind": "linear"}, key: value}
    config = write_config(tmp_path / "exp.yaml", models=[entry])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("kernel, unknown", [
    ({"kind": "quantum_exact", "feature_map": {"family": "zz", "rep": 1}}, "rep"),
    ({"kind": "linear", "foo": 1}, "foo"),
], ids=["feature_map", "kernel"])
def test_unknown_kernel_key_exits_2(tmp_path, qsarq, kernel, unknown):
    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "m", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path, "--quiet")
    assert code == 2
    assert err.startswith("error: ") and f"unknown key(s) [{unknown!r}]" in err


@pytest.mark.parametrize("section", ["config", "kernel"])
def test_unknown_keys_of_mixed_type_exit_2(tmp_path, qsarq, section):
    write_csv(tmp_path / "data.csv")
    config = {"input": "data.csv", "seed": 3, "split": 0.7, "activity_cutoff": CUTOFF,
              "models": [{"name": "m", "kind": "svm", "kernel": {"kind": "linear"}}]}
    (config if section == "config" else config["models"][0]["kernel"]).update({1: 2, "foo": 3})
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    code, _, err = qsarq("run", "--config", path, "--out", tmp_path / "out", "--quiet")
    assert code == 2
    assert err.startswith("error: ") and "unknown key(s) [1, 'foo']" in err


@pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["preprocess", "eval"])
def test_non_finite_cutoff_exits_2(tmp_path, config, qsarq, capsys, command, cutoff):
    inputs = (tmp_path / "data.csv",)
    if command == "eval":
        assert qsarq("train", "--config", config, "--model", "ls", "--out", tmp_path,
                     "--quiet")[0] == 0
        inputs = (tmp_path / "ls.model", *inputs)
    with pytest.raises(SystemExit) as info:
        qsarq(command, *inputs, f"--cutoff={cutoff}", "--out", tmp_path / "out", "--quiet")
    assert info.value.code == 2
    assert f"--cutoff: must be a finite number, got '{cutoff}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
