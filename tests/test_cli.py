"""End-to-end tests of the `qsarq` subcommands, driven through `cli.main`."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from mpmath import mp

from qsarq import artifact
from qsarq.cli import main
from qsarq.errors import InternalConsistencyError
from qsarq.feature_maps import MAX_REPS
from qsarq.kernels import load_gram, save_gram
from qsarq.pipeline import (
    dataset_digest,
    entry_gram,
    fit_entry,
    load_experiment_config,
    load_model,
    prepare_features,
)
from qsarq.preprocess import (
    apply_lipinski_filter,
    feature_matrix,
    read_descriptor_csv,
    resolve_labels,
)
from qsarq.regression import MAX_ANNEAL_ITERS, load_reg_model
from qsarq.svm import MAX_SVM_ITERS
from test_artifact import envelope, parsed, rendered

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
SHOT_ROW = {"name": "qshots", "kind": "svm", "jitter": 0.05,
            "kernel": {"kind": "quantum_shots", "shots": 256, "rng_seed": 5,
                       "feature_map": {"family": "zz", "reps": 1}}}


def write_csv(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform([0, 0, 0, 200, -1], [6, 10, 8, 550, 6], size=(n, len(COLUMNS)))
    activity = 4.5 + 0.3 * X[:, 0] + 0.004 * X[:, 3] - 0.3 * X[:, 4]
    lines = [",".join(("compound_id", *COLUMNS, "pec50"))]
    lines += [",".join((f"c{i}", *(f"{v:.4f}" for v in X[i]), f"{activity[i]:.4f}"))
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def add_labels(path, only=None, blank_activity=False):
    """Store a label column in a `write_csv` file: each compound's class at CUTOFF,
    or `only` for every compound; `blank_activity` also blanks every pec50 cell."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    rows = [header + ",label"]
    for line in lines:
        head, pec50 = line.rsplit(",", 1)
        label = only or (1 if float(pec50) >= CUTOFF else -1)
        rows.append(f"{head},{'' if blank_activity else pec50},{label}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
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
    write_config(config, models=[*MODELS, SHOT_ROW])
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


# run in a fresh interpreter: the modules that qsarq's import and each command
# (argv lists in sys.argv[1]) load beyond numpy's, among yaml, logging, hashlib
# and base64
UNUSED_MODULES = """
import json, sys
import numpy
baseline = set(sys.modules)
from qsarq import cli

def loaded():
    new = set(sys.modules) - baseline
    tops = {name.split(".")[0] for name in new} | (new & {"numpy.random"})
    return sorted(tops & {"yaml", "logging", "hashlib", "base64", "numpy.random"})

seen = {"import": loaded()}
for label, argv in json.loads(sys.argv[1]).items():
    assert cli.main(argv) == 0, argv
    seen[label] = loaded()
print(json.dumps(seen))
"""


def test_commands_load_no_yaml_hashlib_or_logging_they_do_not_use(tmp_path, config, qsarq):
    # numpy is the baseline because numpy 1.x loads hashlib through numpy.random;
    # pytest loads logging, so the check needs its own interpreter. Modules stay
    # loaded, so each command's list includes those of the commands before it.
    # A command that draws nothing loads no numpy.random: under numpy 2 its import
    # loads OpenSSL through `secrets` and raises the peak memory by ~6 MB.
    for model in ("ls", "qsvm"):
        assert qsarq("train", "--config", config, "--model", model, "--out", tmp_path,
                     "--quiet")[0] == 0
    pre = tmp_path / "pre" / "normalized.csv"
    commands = {
        "preprocess": ["preprocess", tmp_path / "data.csv", "--cutoff", CUTOFF,
                       "--out", tmp_path / "pre", "--quiet"],
        "eval ls": ["eval", tmp_path / "ls.model", pre, "--out", tmp_path / "ev", "--quiet"],
        "eval qsvm": ["eval", tmp_path / "qsvm.model", pre, "--out", tmp_path / "ev",
                      "--quiet"],
        # an exact kernel's Gram matrix, built, saved or read, is checked against its
        # rows without hashing; PyYAML imports base64
        "train qsvm": ["train", "--config", config, "--model", "qsvm",
                       "--out", tmp_path / "again", "--quiet"],
        "gram qsvm": ["gram", "--config", config, "--model", "qsvm", "--out", tmp_path / "g",
                      "--quiet"],
        "train --gram": ["train", "--config", config, "--model", "qsvm",
                         "--gram", tmp_path / "g" / "qsvm.gram", "--out", tmp_path / "fromg",
                         "--quiet"],
    }
    src = str(Path(artifact.__file__).parents[1])  # the directory holding qsarq
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", UNUSED_MODULES,
         json.dumps({label: [str(a) for a in argv] for label, argv in commands.items()})],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": [], "preprocess": [], "eval ls": [],
                                       "eval qsvm": [], "train qsvm": ["base64", "yaml"],
                                       "gram qsvm": ["base64", "yaml"],
                                       "train --gram": ["base64", "yaml"]}


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
    write_config(config, models=[*MODELS, SHOT_ROW])
    cfg = load_experiment_config(config)
    X = prepare_features(cfg, split=False)[0]
    for entry in (m for m in cfg.models if m.kind == "svm"):
        name = entry.name
        for out in ("g", "g2"):
            assert qsarq("gram", "--config", config, "--model", name, "--out", tmp_path / out,
                         "--quiet")[0] == 0
        saved = tmp_path / "g" / f"{name}.gram"
        assert saved.read_bytes() == (tmp_path / "g2" / f"{name}.gram").read_bytes()
        assert np.array_equal(load_gram(saved).entries, entry_gram(entry, X).entries)
        assert qsarq("train", "--config", config, "--model", name, "--out", tmp_path / "a",
                     "--quiet")[0] == 0
        assert qsarq("train", "--config", config, "--model", name, "--out", tmp_path / "b",
                     "--gram", saved, "--quiet")[0] == 0
        assert ((tmp_path / "a" / f"{name}.model").read_bytes()
                == (tmp_path / "b" / f"{name}.model").read_bytes())


def test_feature_map_defaults_are_two_linear_repetitions(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    for name, fm in (("default", {"family": "zz"}),
                     ("explicit", {"family": "zz", "reps": 2, "entanglement": "linear"})):
        row = {"name": "q", "kind": "svm", "kernel": {"kind": "quantum_exact", "feature_map": fm}}
        config = write_config(tmp_path / f"{name}.yaml", models=[row])
        assert qsarq("run", "--config", config, "--out", tmp_path / name, "--quiet")[0] == 0
    assert ((tmp_path / "default" / "report.txt").read_bytes()
            == (tmp_path / "explicit" / "report.txt").read_bytes())


def test_gram_of_another_dataset_exits_2(tmp_path, config, qsarq):
    write_csv(tmp_path / "other.csv", seed=1)
    other = write_config(tmp_path / "other.yaml", csv_name="other.csv")
    assert qsarq("gram", "--config", other, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "qsvm",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert (code, err) == (2, f"error: {tmp_path / 'qsvm.gram'}: not a Gram matrix of model "
                              f"'qsvm': it holds 30 x 5 feature rows that are not the 30 x 5 "
                              f"that {tmp_path / 'data.csv'} gives\n")


def test_gram_file_whose_rows_differ_in_the_sign_of_a_zero_exits_2(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    gm = load_gram(tmp_path / "qsvm.gram")
    i, j = np.argwhere(gm.rows == 0.0)[0]  # min-max scaling puts each column's least at 0.0
    gm.rows[i, j] = -0.0  # equal as a number, not as bits
    save_gram(gm, tmp_path / "signed.gram")
    code, _, err = qsarq("train", "--config", config, "--model", "qsvm",
                         "--gram", tmp_path / "signed.gram", "--out", tmp_path, "--quiet")
    assert (code, err) == (2, f"error: {tmp_path / 'signed.gram'}: not a Gram matrix of model "
                              f"'qsvm': it holds 30 x 5 feature rows that are not the 30 x 5 "
                              f"that {tmp_path / 'data.csv'} gives\n")
    assert not (tmp_path / "qsvm.model").exists()


def test_gram_of_another_kernel_exits_2(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "rbf",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and err.startswith(f"error: {tmp_path / 'qsvm.gram'}: ")
    assert "q | zz linear r1" in err and "c | rbf gamma=1.5" in err
    assert not (tmp_path / "rbf.model").exists()


def test_gram_of_another_shot_seed_exits_2_naming_both_seeds(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    for name, seed in (("a.yaml", 1), ("b.yaml", 2)):  # one kernel tag, two streams
        kernel = {"kind": "quantum_shots", "shots": 64, "rng_seed": seed,
                  "feature_map": {"family": "zz", "reps": 1}}
        write_config(tmp_path / name, models=[{"name": "q", "kind": "svm", "kernel": kernel}])
    assert qsarq("gram", "--config", tmp_path / "a.yaml", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", tmp_path / "b.yaml", "--gram",
                         tmp_path / "q.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and err.startswith(f"error: {tmp_path / 'q.gram'}: ")
    assert "'rng_seed': 1" in err and "'rng_seed': 2" in err
    assert not (tmp_path / "q.model").exists()


def test_one_gram_file_trains_rows_of_any_jitter(tmp_path, qsarq):
    # the jitter is SMO's, not the Gram matrix's
    write_csv(tmp_path / "data.csv")
    kernel = {"kind": "quantum_shots", "shots": 64, "rng_seed": 1,
              "feature_map": {"family": "zz", "reps": 1}}
    models = {}
    for jitter in (0.5, 0.0):
        config = write_config(tmp_path / f"{jitter}.yaml", models=[
            {"name": "q", "kind": "svm", "jitter": jitter, "kernel": kernel}])
        if not models:  # the Gram file of the first row serves both
            assert qsarq("gram", "--config", config, "--out", tmp_path, "--quiet")[0] == 0
        for out, gram_args in (("with", ["--gram", tmp_path / "q.gram"]), ("without", [])):
            assert qsarq("train", "--config", config, *gram_args,
                         "--out", tmp_path / f"{jitter}{out}", "--quiet")[0] == 0
        models[jitter] = (tmp_path / f"{jitter}with" / "q.model").read_bytes()
        assert models[jitter] == (tmp_path / f"{jitter}without" / "q.model").read_bytes()
    assert models[0.5] != models[0.0]


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


def old_version_exits_2_naming_it(tmp_path, config, qsarq, command, version):
    """`command` (train --gram or eval) of a saved file rewritten as `version` wrote it."""
    maker, saved = ("gram", "qsvm.gram") if command == "train" else ("train", "qsvm.model")
    assert qsarq(maker, "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    path = tmp_path / f"v{version}"
    path.write_bytes(envelope(parsed((tmp_path / saved).read_bytes()), version))
    if command == "train":
        args = ("train", "--config", config, "--model", "qsvm", "--gram", path)
    else:
        args = ("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF)
    code, _, err = qsarq(*args, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: artifact version {version}, not 4" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_version_1_artifact_exits_2_naming_it(tmp_path, config, qsarq, command):
    old_version_exits_2_naming_it(tmp_path, config, qsarq, command, 1)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_version_3_artifact_exits_2_naming_it(tmp_path, config, qsarq, command):
    old_version_exits_2_naming_it(tmp_path, config, qsarq, command, 3)


def test_svm_model_with_every_training_row_exits_2_naming_it(tmp_path, config, qsarq):
    # the svm layout written before models kept only their support vectors
    path = tmp_path / "rows.model"
    path.write_bytes(rendered({
        "alphas": np.array([0.5, 0.0]), "bias": 0.0, "converged": True,
        "kernel_config": {"kind": "linear"}, "labels": np.array([1.0, -1.0]),
        "training_features": np.eye(2, 5), "format": "qsarq", "type": artifact.SVM,
        "version": artifact.VERSION}))
    code, _, err = qsarq("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF,
                         "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: svm artifact" in err
    assert "unknown key(s) ['alphas', 'labels', 'training_features']" in err


def test_gram_file_with_a_dataset_digest_exits_2_naming_it(tmp_path, config, qsarq):
    # the gram layout written before Gram files held their rows: their digest instead
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    record = parsed((tmp_path / "qsvm.gram").read_bytes())
    record["dataset_digest"] = dataset_digest(record.pop("rows"))
    path = tmp_path / "digest.gram"
    path.write_bytes(rendered(record))
    code, _, err = qsarq("train", "--config", config, "--model", "qsvm", "--gram", path,
                         "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: gram artifact" in err
    assert "missing key(s) ['rows'] and unknown key(s) ['dataset_digest']" in err
    assert not (tmp_path / "out").exists()


def test_model_without_support_vectors_refuses_a_csv_of_another_width(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    # every score starts at +-1, so at tol 2.5 SMO stops before its first update
    # and no training row becomes a support vector
    entry = {"name": "idle", "kind": "svm", "tol": 2.5, "kernel": {"kind": "rbf", "gamma": 1.5}}
    config = write_config(tmp_path / "exp.yaml", models=[entry])
    assert qsarq("train", "--config", config, "--out", tmp_path, "--quiet")[0] == 0
    assert load_model(tmp_path / "idle.model").support_vectors.shape == (0, len(COLUMNS))
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("compound_id,logp,mol_weight,pec50\nA,1,300,7\nB,2,310,5\n",
                      encoding="utf-8")
    path = tmp_path / "idle.model"
    code, _, err = qsarq("eval", path, narrow, "--cutoff", CUTOFF, "--out", tmp_path / "out",
                         "--quiet")
    assert (code, err) == (2, f"error: {narrow}: 2 feature columns, but the model {path} takes 5\n")


@pytest.mark.parametrize("model", ["qsvm", "ls"])
def test_eval_of_a_csv_of_another_width_names_both_files_and_widths(tmp_path, config, qsarq,
                                                                    model):
    assert qsarq("train", "--config", config, "--model", model, "--out", tmp_path,
                 "--quiet")[0] == 0
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("compound_id,logp,mol_weight,pec50\nA,1,300,7\nB,2,310,5\n",
                      encoding="utf-8")
    path = tmp_path / f"{model}.model"
    code, _, err = qsarq("eval", path, narrow, "--cutoff", CUTOFF, "--out", tmp_path / "out",
                         "--quiet")
    assert (code, err) == (2, f"error: {narrow}: 2 feature columns, but the model {path} takes 5\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "gram"])
def test_model_not_in_the_config_exits_2_naming_the_config(tmp_path, config, qsarq, command):
    code, _, err = qsarq(command, "--config", config, "--model", "nope", "--out",
                         tmp_path / "out", "--quiet")
    assert (code, err) == (2, f"error: {config}: no model named 'nope'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, key, number, read", [("qsvm", "bias", "1e400", "inf"),
                                                      ("ls", "threshold", str(10**400),
                                                       str(10**400))],
                         ids=["svm bias 1e400", "reg threshold 10**400"])
def test_model_number_too_large_for_a_float_exits_2_naming_it(tmp_path, config, qsarq,
                                                              model, key, number, read):
    assert qsarq("train", "--config", config, "--model", model, "--out", tmp_path,
                 "--quiet")[0] == 0
    path = tmp_path / "huge.model"
    head, newline, payload = (tmp_path / f"{model}.model").read_bytes().partition(b"\n")
    head = re.sub(f'"{key}":[^,}}]+'.encode(), f'"{key}":{number}'.encode(), head)
    path.write_bytes(head + newline + payload)
    code, _, err = qsarq("eval", path, tmp_path / "data.csv", "--cutoff", CUTOFF,
                         "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"error: {path}: {key} must be a finite number, got {read}\n" in err


def test_train_gram_on_a_regression_row_exits_2(tmp_path, config, qsarq):
    assert qsarq("gram", "--config", config, "--model", "qsvm", "--out", tmp_path,
                 "--quiet")[0] == 0
    code, _, err = qsarq("train", "--config", config, "--model", "ls",
                         "--gram", tmp_path / "qsvm.gram", "--out", tmp_path, "--quiet")
    assert code == 2 and "--gram" in err


def test_gram_of_a_regression_row_exits_2_naming_it(tmp_path, config, qsarq):
    code, _, err = qsarq("gram", "--config", config, "--model", "ls", "--out", tmp_path / "out",
                         "--quiet")
    assert code == 2 and err == "error: model 'ls' has no kernel (kind reg_ls)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "gram", "train"])
def test_malformed_yaml_config_exits_2_naming_it(tmp_path, config, qsarq, command):
    config.write_text("input: data.csv\nmodels: [a, b\nseed: 1\n", encoding="utf-8")
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and err.startswith(f"error: {config}: ")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


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
    assert code == 2 and f"iterations must be <= {MAX_ANNEAL_ITERS}, got {iterations}" in err


@pytest.mark.parametrize("reps", [MAX_REPS + 1, 10**30])
def test_oversized_feature_map_reps_exit_2(tmp_path, qsarq, reps):
    write_csv(tmp_path / "data.csv")
    kernel = {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": reps}}
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "q", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and f"reps must be <= {MAX_REPS}, got {reps}" in err


def test_oversized_kernel_matrix_exits_2(tmp_path, qsarq):
    rows = ["compound_id,logp,pec50"] + [f"c{i},{i % 7},{5 + i % 3}" for i in range(12_000)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    kernel = {"kind": "quantum_exact", "feature_map": {"family": "zz"}}
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "q", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq("gram", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and "12000 x 12000 kernel matrix" in err
    assert "over the budget of 1073741824 bytes" in err


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
    # three cases name reps: numbered ids keep each unique
    pytest.param("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": [1]}},
                 "reps", id="reps0"),
    pytest.param("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": 1.5}},
                 "reps", id="reps1"),
    pytest.param("kernel", {"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": True}},
                 "reps", id="reps2"),
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
    # shot-kernel integers outside numpy's seed and binomial-count ranges
    pytest.param("kernel", {**SHOT_KERNEL, "rng_seed": -1}, "rng_seed", id="rng_seed_negative"),
    pytest.param("kernel", {**SHOT_KERNEL, "shots": 2**63}, "shots", id="shots_over_int64"),
    # integers too large for a float are not numbers either
    pytest.param("kernel", {"kind": "rbf", "gamma": 10**400}, "gamma", id="gamma_huge_int"),
    pytest.param("C", 10**400, "C", id="C_huge_int"),
    pytest.param("ridge", 10**400, "ridge", id="ridge_huge_int"),
    pytest.param("split", 10**400, "split", id="split_huge_int"),
    pytest.param("activity_cutoff", 10**400, "activity_cutoff", id="activity_cutoff_huge_int"),
]


@pytest.mark.parametrize("key, value, named", TYPE_ERRORS,
                         ids=[named for _, _, named in TYPE_ERRORS])
def test_wrongly_typed_config_value_exits_2(tmp_path, qsarq, key, value, named):
    write_csv(tmp_path / "data.csv")
    entry = ({"name": "m", "kind": "reg_anneal"} if key in ("ridge", "t0", "cooling")
             else {"name": "m", "kind": "svm", "kernel": {"kind": "linear"}})
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


@pytest.mark.parametrize("command", ["run", "gram", "train"])
@pytest.mark.parametrize("entry, key", [
    ({"name": "m", "kind": "svm", "kernel": {"kind": "linear"}, "ridge": 5.0}, "ridge"),
    ({"name": "m", "kind": "reg_ls", "kernel": {"kind": "linear"}}, "kernel"),
    ({"name": "m", "kind": "reg_ls", "C": 2.0}, "C"),
    ({"name": "m", "kind": "reg_ls", "t0": 2.0}, "t0"),
    ({"name": "m", "kind": "reg_anneal", "jitter": 0.1}, "jitter"),
], ids=["svm_ridge", "reg_ls_kernel", "reg_ls_C", "reg_ls_t0", "reg_anneal_jitter"])
def test_key_of_another_model_kind_exits_2(tmp_path, qsarq, command, entry, key):
    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml", models=[entry])
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2
    assert err.startswith("error: ") and f"unknown key(s) [{key!r}]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["svm", "reg_ls", "reg_anneal"])
def test_explicit_null_tag_gets_the_kinds_default(tmp_path, kind):
    entry = {"name": "m", "kind": kind, "tag": None}
    if kind == "svm":
        entry["kernel"] = {"kind": "quantum_exact", "feature_map": {"family": "zz"}}
    config = load_experiment_config(write_config(tmp_path / "exp.yaml", models=[entry]))
    assert config.models[0].tag == {"svm": "c/q", "reg_ls": "c", "reg_anneal": "q"}[kind]


def test_report_does_not_depend_on_where_its_files_live(tmp_path, qsarq):
    for place in ("a", "b/deeper"):
        (tmp_path / place).mkdir(parents=True)
        write_csv(tmp_path / place / "data.csv")
        config = write_config(tmp_path / place / "exp.yaml")
        assert qsarq("run", "--config", config, "--out", tmp_path / place / "out",
                     "--quiet")[0] == 0
    for name in ("report.txt", "report.json"):
        assert ((tmp_path / "a" / "out" / name).read_bytes()
                == (tmp_path / "b" / "deeper" / "out" / name).read_bytes())


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


SLOW_ROW = {"name": "slow", "kind": "reg_anneal", "iterations": 200_000}


@pytest.mark.parametrize("bad, top, message", [
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}, "C": -1.0}, {}, "C must be > 0"),
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}, "tol": 0.0}, {},
     "tol must be > 0"),
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}, "max_iters": 10**9}, {},
     f"max_iters must be <= {MAX_SVM_ITERS}"),
    ({"kind": "reg_ls", "ridge": -1.0}, {}, "ridge must be >= 0"),
    ({"kind": "reg_anneal", "basis": "cubic"}, {},
     "basis must be one of ['affine', 'poly2'], got 'cubic'"),
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}, "jitter": 0.1}, {},
     "jitter must be 0"),
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": 1.5}, "jitter": -0.1}, {},
     "jitter must be >= 0"),
    ({"kind": "svm", "kernel": {"kind": "rbf", "gamma": -1.0}}, {}, "gamma must be > 0"),
    ({"kind": "reg_ls", "target": "activity"}, {}, "activity target needs activity_cutoff"),
    ({"kind": "reg_anneal", "anneal_seed": -3}, {}, "anneal_seed must be >= 0, got -3"),
    ({"kind": "svm", "kernel": {"kind": "quantum_exact",
                                "feature_map": {"family": "zz", "n_qubits": 3}}}, {},
     "kernel feature_map takes the data's width: n_qubits must be left out, got 3"),
    ({"kind": "reg_ls"}, {"seed": -1}, "seed must be >= 0, got -1"),
    ({"kind": "reg_ls"}, {"pca_k": 0}, "pca_k must be >= 1, got 0"),
    ({"kind": "reg_ls"}, {"pca_k": -1}, "pca_k must be >= 1, got -1"),
], ids=["C", "tol", "max_iters", "ridge", "basis", "jitter", "jitter_negative", "gamma",
        "activity_no_cutoff",
        "anneal_seed", "n_qubits", "seed", "pca_k_0", "pca_k_negative"])
def test_bad_row_exits_2_before_any_row_is_fitted(tmp_path, qsarq, monkeypatch, bad, top,
                                                  message):
    def never(*args, **kwargs):
        raise AssertionError("a row was fitted before the bad row was refused")

    monkeypatch.setattr("qsarq.pipeline.fit_annealing", never)
    add_labels(write_csv(tmp_path / "data.csv"))  # stored labels need no activity_cutoff
    # a bad top-level setting is refused before the input, here absent, is read
    config = write_config(tmp_path / "exp.yaml", csv_name="missing.csv" if top else "data.csv",
                          models=[SLOW_ROW, {"name": "bad_row", **bad}],
                          activity_cutoff=None, **top)
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")
    where = f"error: {config}: " if top else "model 'bad_row': "
    assert code == 2 and where + message in err
    assert not (tmp_path / "out").exists()


def test_negative_run_seed_exits_2_before_any_row_is_fitted(tmp_path, config, qsarq,
                                                            monkeypatch):
    monkeypatch.setattr("qsarq.pipeline.prepare_features", pytest.fail)  # not reached
    code, _, err = qsarq("run", "--config", config, "--seed", -1, "--out", tmp_path / "out",
                         "--quiet")
    assert code == 2 and err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "train", "gram"])
@pytest.mark.parametrize("kernel, message", [
    ({"kind": "rbf", "gamma": 0.0}, "gamma must be > 0"),
    ({"kind": "quantum_exact", "feature_map": {"family": "zz", "reps": 0}},
     "reps must be >= 1, got 0"),
    ({"kind": "quantum_exact", "feature_map": {"family": "zz", "n_qubits": 5}},
     "kernel feature_map takes the data's width: n_qubits must be left out, got 5"),
    ({"kind": "quantum_shots", "shots": 0, "rng_seed": 1, "feature_map": {"family": "zz"}},
     "shots must be >= 1, got 0"),
    ({"kind": "cosine"}, "kind must be one of ['quantum_exact', 'quantum_shots', 'linear', "
                         "'rbf'], got 'cosine'"),
    ({"kind": "poly", "degree": 2, "offset": 1.0},
     "kernel has unknown key(s) ['degree', 'offset']"),
    ({"gamma": 1.0}, "kind must be a string, got None"),
    ({"kind": "quantum_exact", "feature_map": {"family": "zz", "rep": 1}},
     "unknown key(s) ['rep']"),
], ids=["gamma", "reps", "n_qubits", "shots", "kind", "poly", "no_kind", "feature_map_key"])
def test_bad_kernel_exits_2_at_load_naming_config_and_model(tmp_path, qsarq, command, kernel,
                                                           message):
    # the input does not exist, so reading it first would fail with another error
    config = write_config(tmp_path / "exp.yaml", csv_name="missing.csv",
                          models=[{"name": "bad_row", "kind": "svm", "kernel": kernel}])
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and err.startswith(f"error: {config}: model 'bad_row': ")
    assert message in err and "missing.csv" not in err
    assert not (tmp_path / "out").exists()


REPEATED_KEY_CONFIG = """\
input: missing.csv
seed: 1
split: 0.7
models:
  - name: ls
    kind: reg_ls
  - name: q
    kind: svm
    C: 1.0
    kernel:
      kind: quantum_exact
      feature_map:
        family: zz
"""


@pytest.mark.parametrize("after, repeat, key, first", [
    ("split: 0.7", "seed: 2", "seed", 2),
    ("    C: 1.0", "    C: 50.0", "C", 9),
    ("      kind: quantum_exact", "      kind: linear", "kind", 11),
    ("        family: zz", "        family: custom", "family", 13),
], ids=["top level", "row", "kernel", "feature_map"])
def test_repeated_config_key_exits_2_naming_it_and_both_lines(tmp_path, qsarq, after, repeat,
                                                              key, first):
    # YAML's loaders let the last value of a repeated key win silently
    text = REPEATED_KEY_CONFIG.replace(f"{after}\n", f"{after}\n{repeat}\n")
    config = tmp_path / "exp.yaml"
    config.write_text(text, encoding="utf-8")
    second = text.splitlines().index(repeat) + 1
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert (code, err) == (2, f"error: {config}: key {key!r} is repeated, on lines {first} "
                              f"and {second}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "gram", "train"])
@pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "sub/m", "sub\\m"],
                         ids=["parent", "empty", "dot", "dotdot", "slash", "backslash"])
def test_model_name_that_is_not_a_file_name_exits_2_writing_nothing(tmp_path, qsarq, monkeypatch,
                                                                    command, name):
    # gram and train write <out>/<model name>.gram and .model, run a report row of the name
    def never(*args, **kwargs):
        raise AssertionError("the CSV was read before the bad name was refused")

    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml", models=[{**MODELS[0], "name": name}])
    monkeypatch.setattr("qsarq.pipeline.read_descriptor_csv", never)
    before = sorted(tmp_path.rglob("*"))
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path / "out" / "g", "--quiet")
    assert code == 2
    assert err.startswith(f"error: {config}: model {name!r}: name must be a file name: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_train_of_a_bad_row_exits_2_before_its_gram_matrix(tmp_path, qsarq, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the Gram matrix was built before the bad row was refused")

    monkeypatch.setattr("qsarq.pipeline.gram", never)
    write_csv(tmp_path / "data.csv")
    bad = {"name": "bad_row", "kind": "svm", "C": -1.0,
           "kernel": {"kind": "quantum_exact", "feature_map": {"family": "zz"}}}
    config = write_config(tmp_path / "exp.yaml", models=[bad])
    code, _, err = qsarq("train", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2
    assert f"error: {config}: model 'bad_row': C must be > 0" in err
    assert not (tmp_path / "out").exists()


def test_integer_cutoff_is_echoed_as_written_and_scores_as_its_float(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    for name, cutoff in (("int", int(CUTOFF)), ("float", CUTOFF)):
        config = write_config(tmp_path / f"{name}.yaml", activity_cutoff=cutoff)
        assert qsarq("run", "--config", config, "--out", tmp_path / name, "--quiet")[0] == 0
    report = {name: {ext: (tmp_path / name / f"report.{ext}").read_text(encoding="utf-8")
                     for ext in ("txt", "json")} for name in ("int", "float")}
    assert report["int"]["txt"] == report["float"]["txt"]
    echoed = f'"activity_cutoff": {int(CUTOFF)},'
    assert echoed in report["int"]["json"]
    assert report["int"]["json"].replace(echoed, f'"activity_cutoff": {CUTOFF},') \
        == report["float"]["json"]


def test_run_seed_option_gives_the_report_of_that_config_seed(tmp_path, config, qsarq):
    assert qsarq("run", "--config", config, "--seed", 5, "--out", tmp_path / "a",
                 "--quiet")[0] == 0
    seeded = write_config(tmp_path / "seeded.yaml", seed=5)
    assert qsarq("run", "--config", seeded, "--out", tmp_path / "b", "--quiet")[0] == 0
    for name in ("report.txt", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "train"])
def test_fit_fault_names_the_model_once(tmp_path, qsarq, command):
    add_labels(write_csv(tmp_path / "data.csv", n=20), blank_activity=True)
    config = write_config(tmp_path / "exp.yaml",
                          models=[{"name": "lsa", "kind": "reg_ls", "target": "activity"}])
    code, _, err = qsarq(command, "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and err == ("error: stage model lsa: activity-target regression needs "
                                 "pEC50 or EC50 on every training row\n")


def test_svm_fit_fault_under_train_names_the_model(tmp_path, qsarq):
    add_labels(write_csv(tmp_path / "data.csv"), only=1)
    config = write_config(tmp_path / "exp.yaml")
    code, _, err = qsarq("train", "--config", config, "--model", "rbf", "--out", tmp_path / "out",
                         "--quiet")
    assert code == 2
    assert err == "error: stage model rbf: training requires both classes to be present\n"
    assert not (tmp_path / "out").exists()


def test_preprocess_lipinski_with_one_survivor_exits_2(tmp_path, qsarq):
    path = tmp_path / "data.csv"
    path.write_text("compound_id,n_donors,n_acceptors,mol_weight,logp,label\n"
                    "kept,1,2,300,1.5,1\ndropped,8,2,650,6.5,-1\n", encoding="utf-8")
    code, _, err = qsarq("preprocess", path, "--lipinski", "--out", tmp_path / "out", "--quiet")
    assert code == 2 and "fewer than two rows survive the rule-of-five filter" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("activity, message", [
    (False, "c0: no label and no activity measurement"),
    (True, "--cutoff is required to derive labels from pEC50 (compound c0)"),
], ids=["no_activity", "no_cutoff"])
def test_preprocess_of_an_unlabeled_csv_exits_2_naming_the_compound(tmp_path, qsarq, activity,
                                                                    message):
    path = write_csv(tmp_path / "data.csv")
    if not activity:
        path.write_text("\n".join(line.rsplit(",", 1)[0] for line in
                                  path.read_text(encoding="utf-8").splitlines()) + "\n",
                        encoding="utf-8")
    code, _, err = qsarq("preprocess", path, "--out", tmp_path / "out", "--quiet")
    assert code == 2 and err == f"error: stage labels: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["preprocess", "eval", "run", "train", "gram"])
def test_missing_cutoff_is_named_as_the_command_takes_it(tmp_path, config, qsarq, command):
    # write_csv's compounds carry pEC50 and no label
    assert qsarq("train", "--config", config, "--model", "ls", "--out", tmp_path,
                 "--quiet")[0] == 0
    bare = write_config(tmp_path / "bare.yaml", activity_cutoff=None, models=MODELS[:3])
    args = {"preprocess": ("preprocess", tmp_path / "data.csv"),
            "eval": ("eval", tmp_path / "ls.model", tmp_path / "data.csv"),
            "run": ("run", "--config", bare),
            "train": ("train", "--config", bare, "--model", "ls"),
            "gram": ("gram", "--config", bare)}[command]
    code, _, err = qsarq(*args, "--out", tmp_path / "out", "--quiet")
    name = "--cutoff" if command in ("preprocess", "eval") else "activity_cutoff"
    assert code == 2 and err == (f"error: stage labels: {name} is required to derive "
                                 "labels from pEC50 (compound c0)\n")
    assert not (tmp_path / "out").exists()


def test_preprocess_lipinski_writes_the_rows_and_features_train_fits(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml", lipinski_filter=True)
    assert qsarq("preprocess", tmp_path / "data.csv", "--lipinski", "--cutoff", CUTOFF,
                 "--out", tmp_path / "pre", "--quiet")[0] == 0
    assert qsarq("train", "--config", config, "--model", "ls", "--out", tmp_path / "models",
                 "--quiet")[0] == 0
    written = read_descriptor_csv(tmp_path / "pre" / "normalized.csv")
    X_written, labels = feature_matrix(written)[0], written.label.astype(np.int64)
    cfg = load_experiment_config(config)
    X, _, y, _, info = prepare_features(cfg, split=False)
    assert 2 <= len(y) < 30  # the filter dropped some compounds
    assert written.ids.tolist() == info["table"].ids.tolist()
    assert np.array_equal(X_written, X) and np.array_equal(labels, y)
    entry = next(e for e in cfg.models if e.name == "ls")
    refit = fit_entry(entry, X_written, labels, info["table"].activity, cfg.activity_cutoff)
    saved = load_reg_model(tmp_path / "models" / "ls.model")
    np.testing.assert_array_equal(saved.coefficients, refit.coefficients)


def test_preprocess_no_scale_writes_the_filtered_raw_descriptors(tmp_path, qsarq):
    raw = write_csv(tmp_path / "data.csv")
    assert qsarq("preprocess", raw, "--lipinski", "--cutoff", CUTOFF, "--no-scale",
                 "--out", tmp_path / "pre", "--quiet")[0] == 0
    table = apply_lipinski_filter(read_descriptor_csv(raw))
    X, names = feature_matrix(table)
    written = read_descriptor_csv(tmp_path / "pre" / "normalized.csv")
    assert 2 <= len(table) < 30 and X.max() > 1.0  # filtered, and not in the unit box
    assert written.ids.tolist() == table.ids.tolist()
    assert feature_matrix(written)[1] == names
    assert feature_matrix(written)[0].tobytes() == X.tobytes()
    assert written.label.tobytes() == resolve_labels(table, CUTOFF).astype(np.float64).tobytes()


def test_pca_without_scaler_gives_the_raw_training_rows_principal_coordinates(tmp_path):
    write_csv(tmp_path / "data.csv")
    config = load_experiment_config(write_config(tmp_path / "exp.yaml", scaler=False, pca_k=2))
    X_train, X_test, _, _, info = prepare_features(config)
    X = feature_matrix(info["table"])[0]
    raw_train, raw_test = X[info["train_idx"]], X[info["test_idx"]]
    mean = raw_train.mean(axis=0)
    cov = (raw_train - mean).T @ (raw_train - mean) / (len(raw_train) - 1)
    with mp.workdps(40):  # the weight column's variance dwarfs the others'
        values, vectors = mp.eigsy(mp.matrix(cov.tolist()))
    top = np.argsort(np.array(values.tolist(), dtype=np.float64).ravel())[::-1][:2]
    vecs = np.array(vectors.tolist(), dtype=np.float64)[:, top]
    vecs *= np.where(vecs[np.abs(vecs).argmax(axis=0), [0, 1]] < 0, -1.0, 1.0)
    for got, raw in ((X_train, raw_train), (X_test, raw_test)):
        expected = (raw - mean) @ vecs
        assert got.shape == expected.shape and len(got) > 0
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.abs(expected).max()
    assert X_train.min() < 0.0 and X_train.max() > 1.0  # not rescaled into [0, 1]


def test_pca_run_reports_its_components_scaled_into_the_unit_box(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml", pca_k=2)
    for out in ("a", "b"):
        assert qsarq("run", "--config", config, "--out", tmp_path / out, "--quiet")[0] == 0
    for name in ("report.txt", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "\nfeatures: pc1, pc2\n" in (tmp_path / "a" / "report.txt").read_text()
    X_train, X_test, *_ = prepare_features(load_experiment_config(config))
    for X in (X_train, X_test):
        assert X.shape[1] == 2 and X.min() >= 0.0 and X.max() <= 1.0
    assert X_train.min(axis=0).tolist() == [0.0, 0.0] and X_train.max(axis=0).tolist() == [1.0, 1.0]


def test_pca_k_above_the_feature_count_exits_2_naming_it(tmp_path, qsarq):
    write_csv(tmp_path / "data.csv")
    config = write_config(tmp_path / "exp.yaml", pca_k=6)
    code, _, err = qsarq("run", "--config", config, "--out", tmp_path / "out", "--quiet")
    assert code == 2
    assert err == "error: stage reduce: pca_k must be <= 5, the number of features, got 6\n"
