"""End-to-end experiment orchestration.

A single YAML config describes the dataset, the preprocessing steps, and
the list of model rows to train and score; its data settings are a
`DataConfig`, under which every command reads its CSV through
`prepare_features`. Running an experiment produces a small comparison
report (aligned text plus a JSON record) whose rows mirror the
model/type/acc/execution/kernel layout used for classical-vs-quantum
comparisons. A model row takes only its kind's fields (`SvmEntry`,
`RegEntry`, `AnnealEntry`): a key of another kind is refused at load
like any unknown key. An svm row is an `SvmConfig`, an annealing row an
`AnnealSchedule`; every row is checked at load, each svm row's kernel
too, and `SvmEntry.kernel_config` binds that kernel to the data's width
(a stated `n_qubits` must match it before any row is fitted);
`fit_entry` names the row of a fault in its fit. The report echoes the
config as written, so reruns with the same config and input are
byte-identical, wherever the two files live.

That holds on one machine and BLAS library. Other BLAS kernels round
differently: on the benchmark's paper-table inputs (seeds 1-3) under five
forced OpenBLAS kernels (``OPENBLAS_CORETYPE``), `report.txt` was the same
and `report.json` differed only in `train_loss`, by at most 1.3e-15
relative.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Annotated

import numpy as np

from . import artifact
from .errors import InternalConsistencyError
from .fields import SEED, SPLIT, check_fields, check_value, from_mapping
from .kernels import (
    QUANTUM_KINDS,
    QUANTUM_SHOTS,
    GramMatrix,
    KernelConfig,
    gram,
)
from .preprocess import (
    apply_lipinski_filter,
    feature_matrix,
    minmax_fit,
    minmax_transform,
    pca_fit,
    pca_transform,
    read_descriptor_csv,
    resolve_labels,
)
from .regression import (
    BASIS_KINDS,
    RIDGE,
    AnnealSchedule,
    BasisSpec,
    fit_annealing,
    fit_least_squares,
    predict_labels,
    reg_from_fields,
    save_reg_model,
)
from .svm import SvmConfig, SvmModel, decision_values, save_svm_model, svm_from_fields, train

REG_LS = "reg_ls"
REG_ANNEAL = "reg_anneal"
SVM = "svm"

EXEC_CPU = "cpu-exact"
EXEC_SHOTS = "sim-shots"


@dataclass(kw_only=True)
class ModelEntry:
    """One report row: its name, model kind and report labels.

    A row is an instance of its kind's subclass (`ENTRY_CLASSES`), which
    adds the fields that kind's solver reads and no others.
    """

    name: str
    kind: str
    tag: str | None = None  # None: the kind's default
    note: str | None = None

    def __post_init__(self):
        try:  # every field, the solver settings a row inherits included; the name; its kind's
            check_fields(self)
            if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
                raise ValueError(r"name must be a file name: not empty, '.' or '..', no '/' or '\'")
            self._check()
        except ValueError as exc:
            raise ValueError(f"model {self.name!r}: {exc}") from exc

    def _check(self) -> None:
        """Refuse a bad setting of the row's kind, and fill in the kind's default tag."""


@dataclass(kw_only=True)
class SvmEntry(ModelEntry, SvmConfig):
    """An `svm` row: an SMO kernel SVM, tagged c/q when its kernel is quantum."""

    kernel: dict

    def _check(self):
        kind = self.kernel_config().kind  # every kernel setting, at any data width
        if self.jitter > 0 and kind != QUANTUM_SHOTS:
            raise ValueError(f"jitter must be 0, or > 0 on {QUANTUM_SHOTS}")
        if self.tag is None:
            self.tag = "c/q" if kind in QUANTUM_KINDS else "c"

    def kernel_config(self, n_features: int | None = None) -> KernelConfig:
        """The row's kernel on `n_features`-column data: an unstated feature-map
        `n_qubits` takes that width (1 at load, before any data); a stated one must match."""
        raw, fm = self.kernel, self.kernel.get("feature_map")
        if isinstance(fm, dict):
            raw = {**raw, "feature_map": {"n_qubits": n_features or 1, **fm}}
        kcfg = KernelConfig.from_dict(raw)  # checked at load, where a fault names the row
        width = kcfg.feature_map and kcfg.feature_map.n_qubits
        if n_features is not None and width not in (None, n_features):
            raise ValueError(f"model {self.name!r}: feature map n_qubits={width} does not "
                             f"match the {n_features}-dimensional data")
        return kcfg


@dataclass(kw_only=True)
class RegEntry(ModelEntry):
    """A `reg_ls` row: a least-squares fit over a basis expansion."""

    default_tag = "c"  # not a field: it has no annotation

    basis: str = "affine"
    ridge: RIDGE = 0.0
    target: str = "label"  # "label" (+-1) or "activity" (raw pEC50)

    def _check(self):
        if self.target not in ("label", "activity"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis!r}")
        if self.tag is None:
            self.tag = self.default_tag


@dataclass(kw_only=True)
class AnnealEntry(RegEntry, AnnealSchedule):
    """A `reg_anneal` row: the same fit by simulated annealing."""

    default_tag = "q"

    anneal_seed: SEED = 0


ENTRY_CLASSES = {SVM: SvmEntry, REG_LS: RegEntry, REG_ANNEAL: AnnealEntry}


@dataclass(kw_only=True)
class DataConfig:
    """How `prepare_features` reads a CSV: `input` as written, `input_path` where it is read."""

    input: str
    lipinski_filter: bool = False
    activity_cutoff: float | None = None
    pca_k: Annotated[int, ">=", 1] | None = None
    scaler: bool = True

    def __post_init__(self):
        check_fields(self)
        self.input_path = Path(self.input)  # not a field, so neither set nor echoed


@dataclass(kw_only=True)
class ExperimentConfig(DataConfig):
    """An experiment config: its data settings, the split and the model rows."""

    seed: SEED
    split: SPLIT
    models: list[ModelEntry]

    def __post_init__(self):
        super().__post_init__()
        if not self.models:
            raise ValueError("config lists no models")
        seen = set()
        for entry in self.models:
            if entry.name in seen:
                raise ValueError(f"duplicate model name {entry.name!r}")
            seen.add(entry.name)
            if getattr(entry, "target", None) == "activity" and self.activity_cutoff is None:
                raise ValueError(f"model {entry.name!r}: activity target needs activity_cutoff")


def _model_entry(raw) -> ModelEntry:
    """A config's model row as an instance of its kind's entry class."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"model entry must be a mapping, got {raw!r}")
    kind = raw.get("kind")
    if not (isinstance(kind, str) and kind in ENTRY_CLASSES):
        raise ValueError(f"model {raw.get('name')!r}: unknown kind {kind!r}")
    return from_mapping(ENTRY_CLASSES[kind], raw, f"{kind} model entry")


def load_experiment_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config.

    A relative input path is read relative to the config file's directory.
    """
    import yaml  # imported here so that commands reading no config never load it

    cfg_path = Path(path)
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:  # libyaml's parser, where built
            raw = yaml.load(fh, Loader=yaml.CSafeLoader if yaml.__with_libyaml__
                            else yaml.SafeLoader)
        if isinstance(raw, dict) and isinstance(raw.get("models"), list):
            raw = {**raw, "models": [_model_entry(m) for m in raw["models"]]}
        config = from_mapping(ExperimentConfig, raw, "config")
    except (ValueError, yaml.YAMLError) as exc:  # UTF-8 decoding errors included
        raise ValueError(f"{path}: {exc}") from exc
    if not config.input_path.is_absolute():
        config.input_path = (cfg_path.parent / config.input_path).resolve()
    return config


def accuracy(predictions, truth) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.size == 0 or pred.shape != true.shape:
        raise ValueError(
            f"predictions and truth must be equal-length and non-empty, "
            f"got {pred.shape} vs {true.shape}"
        )
    return float(np.mean(pred == true))


def split_indices(n_rows: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle then prefix split into (train, test) index arrays."""
    check_value(seed, SEED, "seed")
    check_value(fraction, SPLIT, "fraction")
    if n_rows < 2:
        raise ValueError("need at least two rows to split")
    n_train = int(n_rows * fraction)
    if n_train < 1 or n_train >= n_rows:
        raise ValueError(
            f"fraction {fraction} would leave an empty split for {n_rows} rows"
        )
    perm = np.random.default_rng(seed).permutation(n_rows)
    return perm[:n_train], perm[n_train:]


@dataclass
class EvalReport:
    """A comparison report; `results` holds the rows `report.json` stores.

    Each row is a dict with the keys name, type, accuracy, execution,
    kernel, note and detail, in config order.
    """

    results: list[dict]
    dataset: dict
    config_echo: dict

    def to_text(self) -> str:
        headers = ("model", "type", "acc", "execution", "kernel")
        rows = [
            (r["name"], r["type"], f"{r['accuracy']:.4f}", r["execution"], r["kernel"])
            for r in self.results
        ]
        widths = [
            max(len(headers[c]), *(len(row[c]) for row in rows))
            for c in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip(),
            "  ".join("-" * widths[c] for c in range(len(headers))),
        ]
        for row in rows:
            lines.append(
                "  ".join(v.ljust(widths[c]) for c, v in enumerate(row)).rstrip()
            )
        ds = self.dataset
        lines.append("")
        lines.append(
            f"dataset: n={ds['n_rows']}  "
            f"train={ds['n_train']} (+{ds['train_pos']}/-{ds['train_neg']})  "
            f"test={ds['n_test']} (+{ds['test_pos']}/-{ds['test_neg']})"
        )
        lines.append(f"features: {', '.join(ds['feature_names'])}")
        lines.append(f"input digest: {ds['digest']}")
        for r in self.results:
            if r["note"]:
                lines.append(f"note {r['name']}: {r['note']}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"rows": self.results, "dataset": self.dataset, "config": self.config_echo}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ValueError(f"stage {name}: {exc}") from exc
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"stage {name}: {exc}") from exc


def prepare_features(config: DataConfig, split: bool = True,
                     cutoff_name: str = "activity_cutoff"):
    """Every command's preprocessing: ingest, filter, label, scale, reduce.

    Returns (X_train, X_test, y_train, y_test, info) with all fit steps
    performed on the training split only. `info` holds "table", the
    filtered descriptor table behind X; "names", the feature names; and
    "train_idx" and "test_idx", the table rows of each split. A split
    reads the `ExperimentConfig`'s seed and fraction; with `split=False`
    every row is a training row and the test arrays are empty. A missing
    cutoff is named `cutoff_name`: the config key, or the flag of a command
    that takes the cutoff as one.
    """
    with _stage("ingest"):
        table = read_descriptor_csv(config.input_path)
    if config.lipinski_filter:
        with _stage("filter"):
            table = apply_lipinski_filter(table)
            if len(table) < 2:
                raise ValueError("fewer than two rows survive the rule-of-five filter")
    with _stage("labels"):
        labels = resolve_labels(table, config.activity_cutoff, cutoff_name)
    with _stage("features"):
        X, names = feature_matrix(table)
    with _stage("split"):
        if split:
            train_idx, test_idx = split_indices(len(table), config.split, config.seed)
        else:
            train_idx, test_idx = np.arange(len(table)), np.arange(0)
        y_train, y_test = labels[train_idx], labels[test_idx]
        if split and np.all(y_train == y_train[0]):
            raise ValueError("training split contains a single class; change the seed")
    X_train, X_test = X[train_idx], X[test_idx]
    with _stage("scale"):
        if config.scaler:
            scaler = minmax_fit(X_train)
            X_train = minmax_transform(scaler, X_train)
            X_test = minmax_transform(scaler, X_test)
    with _stage("reduce"):
        if config.pca_k is not None:
            if config.pca_k > X.shape[1]:
                raise ValueError(f"pca_k must be <= {X.shape[1]}, the number of features, "
                                 f"got {config.pca_k}")
            pca = pca_fit(X_train, config.pca_k)
            X_train = pca_transform(pca, X_train)
            X_test = pca_transform(pca, X_test)
            names = [f"pc{i + 1}" for i in range(config.pca_k)]
            if config.scaler:  # bring reduced coordinates back into [0, 1]
                rescaler = minmax_fit(X_train)
                X_train = minmax_transform(rescaler, X_train)
                X_test = minmax_transform(rescaler, X_test)
    info = {
        "table": table,
        "names": names,
        "train_idx": train_idx,
        "test_idx": test_idx,
    }
    return X_train, X_test, y_train, y_test, info


def entry_gram(entry: SvmEntry, X) -> GramMatrix:
    """Gram matrix of an svm row's kernel over the rows of X."""
    return gram(entry.kernel_config(X.shape[1]), X)


def fit_entry(entry: ModelEntry, X, y, activity, cutoff, gm: GramMatrix | None = None):
    """Fit one configured model on the rows of X with class labels y.

    `activity` is the pEC50 of the same rows (NaN where a row has none),
    read for activity targets; `cutoff` is the config's activity_cutoff.
    An svm row trains on `gm` when given (its Gram matrix over X, whose
    kernel and rows the caller has checked), else on a freshly built one;
    its jitter goes on the diagonal in SMO (`svm.solve_dual`), not in `gm`.
    A fault of the fit names the row once, as stage `model <name>`.
    """
    if entry.kind == SVM and gm is None:
        gm = entry_gram(entry, X)
    with _stage(f"model {entry.name}"):
        if entry.kind == SVM:
            return train(gm, y, entry)
        basis = BasisSpec(kind=entry.basis, n_features=X.shape[1])
        if entry.target == "activity":
            if np.isnan(activity).any():
                raise ValueError("activity-target regression needs pEC50 or EC50 "
                                 "on every training row")
            targets, threshold = activity, float(cutoff)
        else:
            targets, threshold = y.astype(np.float64), 0.0
        if entry.kind == REG_LS:
            return fit_least_squares(X, targets, basis, ridge=entry.ridge,
                                     threshold=threshold)
        return fit_annealing(X, targets, basis, entry, seed=entry.anneal_seed,
                             ridge=entry.ridge, threshold=threshold)


def predict(model, X) -> np.ndarray:
    """+1/-1 class predictions of a fitted svm or regression model."""
    if isinstance(model, SvmModel):
        return np.where(decision_values(model, X) >= 0.0, 1, -1).astype(np.int64)
    return predict_labels(model, X)


def save_model(model, path) -> None:
    """Save a fitted svm or regression model as an artifact."""
    (save_svm_model if isinstance(model, SvmModel) else save_reg_model)(model, path)


def load_model(path):
    """The svm or regression model saved at `path`, by the artifact's type."""
    return artifact.load(path, {artifact.SVM: svm_from_fields, artifact.REG: reg_from_fields})


def _run_row(entry, train_activity, cutoff, X_train, X_test, y_train, y_test) -> dict:
    """Fit one row on the training split, score it on the test split: its report row."""
    model = fit_entry(entry, X_train, y_train, train_activity, cutoff)
    row = {"name": entry.name, "type": entry.tag, "note": entry.note,
           "accuracy": accuracy(predict(model, X_test), y_test)}
    if entry.kind == SVM:
        kcfg = model.kernel_config
        return {**row, "execution": EXEC_SHOTS if kcfg.kind == QUANTUM_SHOTS else EXEC_CPU,
                "kernel": kcfg.describe(), "detail": {
                    "C": entry.C,
                    "converged": model.converged,
                    "n_support": int(model.dual_coef.size),
                    "kernel_config": kcfg.to_dict(),
                }}
    base = {f.name for f in fields(ModelEntry)}
    detail = {f.name: getattr(entry, f.name) for f in fields(entry) if f.name not in base}
    return {**row, "execution": EXEC_CPU, "kernel": "-",
            "detail": {**detail, "train_loss": model.loss}}


def dataset_digest(X: np.ndarray) -> str:
    """The report's content hash of a feature matrix: SHA-256 of its shape,
    then of its little-endian float64 bytes."""
    import hashlib  # imported here so that commands that hash nothing never load OpenSSL

    arr = np.ascontiguousarray(X, dtype="<f8")
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute every configured model row and assemble the report."""
    X_train, X_test, y_train, y_test, info = prepare_features(config)
    table, train_idx, test_idx = info["table"], info["train_idx"], info["test_idx"]

    for entry in (e for e in config.models if e.kind == SVM):  # before any row is fitted
        entry.kernel_config(X_train.shape[1])  # a stated n_qubits must match the data
    results = [_run_row(entry, table.activity[train_idx], config.activity_cutoff,
                        X_train, X_test, y_train, y_test) for entry in config.models]

    dataset = {
        "n_rows": len(table),
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "train_pos": int(np.sum(y_train == 1)),
        "train_neg": int(np.sum(y_train == -1)),
        "test_pos": int(np.sum(y_test == 1)),
        "test_neg": int(np.sum(y_test == -1)),
        "feature_names": list(info["names"]),
        "digest": dataset_digest(feature_matrix(table)[0]),
    }
    config_echo = asdict(config)
    config_echo["models"] = [{k: v for k, v in m.items() if v is not None}
                             for m in config_echo["models"]]
    return EvalReport(results=results, dataset=dataset, config_echo=config_echo)
