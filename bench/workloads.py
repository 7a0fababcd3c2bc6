"""The three benchmark workloads: their rounds of qsarq commands and checks.

A round runs the same operations every time, so the share of failed
operations is the same in every run. Checks compare the first round's
outputs with the benchmark's own arithmetic (``oracle``) or with
properties the method must have; later rounds must reproduce the first
round's output files byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from make_workload import CUTOFF, REG_COMMON, Workload


@dataclass
class Op:
    """One timed operation of a round."""

    name: str  # operation name, e.g. "run" or "score-new"
    command: str  # qsarq subcommand, or "load_gram" for the in-process read
    seconds: float
    ok: bool = True
    stdout: str = ""
    value: object = None


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)  # outputs to compare

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


class Checks:
    """Collects failed correctness checks as messages."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)

    def close(self, a, b, tol: float, message: str) -> None:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        diff = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")
        self.expect(diff <= tol, f"{message}: max difference {diff:.3g} > {tol:g}")


def _filtered(path: Path) -> oracle.Table:
    table = oracle.read_table(path)
    return table.take(oracle.rule_of_five(table))


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _majority(y: np.ndarray) -> float:
    return max(np.mean(y == 1), np.mean(y == -1))


def _collect(rnd: Round, *paths: Path) -> None:
    """Keep output files to compare with the next rounds' byte for byte."""
    for path in paths:
        rnd.files[f"{path.parent.name.rstrip('0123456789')}/{path.name}"] = path.read_bytes()


def check_report(chk: Checks, report: dict, csv_path: Path, cfg: dict) -> None:
    """A `qsarq run` report against the benchmark's own split, scaling and fits."""
    table = _filtered(csv_path)
    y = oracle.labels(table, cfg["activity_cutoff"])
    tr, te = oracle.split(len(y), cfg["split"], cfg["seed"])
    expected = {
        "n_rows": len(y), "n_train": tr.size, "n_test": te.size,
        "train_pos": int(np.sum(y[tr] == 1)), "train_neg": int(np.sum(y[tr] == -1)),
        "test_pos": int(np.sum(y[te] == 1)), "test_neg": int(np.sum(y[te] == -1)),
    }
    got = {k: report["dataset"][k] for k in expected}
    chk.expect(got == expected, f"dataset counts {got} != own {expected}")
    X_tr = oracle.minmax(table.X[tr], table.X[tr])
    X_te = oracle.minmax(table.X[tr], table.X[te])
    majority = _majority(y[tr])
    rows = {r["name"]: r for r in report["rows"]}
    ls_loss = {}
    for entry in cfg["models"]:
        row = rows.get(entry["name"])
        if row is None:
            chk.problems.append(f"report has no row {entry['name']}")
            continue
        name, detail = entry["name"], row["detail"]
        chk.expect(row["accuracy"] > majority,
                   f"{name}: accuracy {row['accuracy']:.4f} does not beat the "
                   f"training majority rate {majority:.4f}")
        if entry["kind"] == "reg_ls":
            q, loss = oracle.ridge_fit(X_tr, y[tr].astype(float), entry["ridge"])
            acc = float(np.mean(oracle.predict(q, X_te, 0.0) == y[te]))
            chk.expect(row["accuracy"] == acc, f"{name}: accuracy {row['accuracy']} != own {acc}")
            chk.expect(_rel(detail["train_loss"], loss) < 1e-8,
                       f"{name}: train_loss {detail['train_loss']} != own {loss}")
            ls_loss[(entry["basis"], entry["ridge"])] = detail["train_loss"]
        elif entry["kind"] == "reg_anneal":
            ref = ls_loss.get((entry["basis"], entry["ridge"]))
            chk.expect(ref is not None and detail["train_loss"] >= ref * (1 - 1e-12),
                       f"{name}: annealing train_loss {detail['train_loss']} is below "
                       f"the least-squares optimum {ref}")
        else:
            chk.expect(detail["converged"] is True, f"{name}: SMO did not converge")


def check_preprocessed(chk: Checks, out_csv: Path, raw_csv: Path, cutoff: float) -> None:
    """`qsarq preprocess --lipinski --cutoff` output against own filter, labels, min-max."""
    table = _filtered(raw_csv)
    got = oracle.read_table(out_csv)
    chk.expect(got.ids == table.ids, "preprocess kept other compounds than the own filter")
    if got.ids == table.ids:
        chk.close(got.X, oracle.minmax(table.X, table.X), 1e-12, "preprocessed columns")
        chk.expect(np.array_equal(got.columns["label"], oracle.labels(table, cutoff)),
                   "preprocessed labels differ from own labelling")


class PaperTable:
    """`qsarq run` of the seven-row classical-vs-quantum comparison."""

    name = "paper-table"
    known_faults = ()

    def __init__(self, wl: Workload):
        self.wl = wl
        self.config = wl.configs["paper"]

    def setup_configs(self):
        return [self.config]

    def round(self, ctx, r: int) -> Round:
        out = ctx.work / f"run{r}"
        rnd = Round([ctx.qsarq("run", "run", "--config", self.config, "--out", out, "--quiet")])
        _collect(rnd, out / "report.txt", out / "report.json")
        return rnd

    def check(self, ctx, chk: Checks, first: Round) -> None:
        report = json.loads((ctx.work / "run0" / "report.json").read_text())
        check_report(chk, report, self.wl.csvs["compounds"], self.wl.config_dicts["paper"])


class KernelMatrix:
    """`qsarq gram` of an exact and a shot-sampled ZZ/full kernel, read back."""

    name = "kernel-matrix"
    known_faults = ()
    models = ("zz_exact", "zz_shots")

    def __init__(self, wl: Workload):
        self.wl = wl
        self.config = wl.configs["kernels"]

    def setup_configs(self):
        return [self.config]

    def round(self, ctx, r: int) -> Round:
        out = ctx.work / f"gram{r}"
        rnd = Round()
        for model in self.models:
            rnd.ops.append(ctx.qsarq("gram", "gram", "--config", self.config,
                                     "--model", model, "--out", out, "--quiet"))
        for model in self.models:
            rnd.ops.append(ctx.load_gram(out / f"{model}.gram"))
        _collect(rnd, *(out / f"{m}.gram" for m in self.models))
        return rnd

    def check(self, ctx, chk: Checks, first: Round) -> None:
        cfg = self.wl.config_dicts["kernels"]
        exact, shots = (op.value for op in first.ops if op.command == "load_gram")
        table = _filtered(self.wl.csvs["library"])
        X = oracle.minmax(table.X, table.X)
        X = oracle.pca(X, X, cfg["pca_k"])
        X = oracle.minmax(X, X)
        n = len(X)
        for label, gm in (("exact", exact), ("shots", shots)):
            K = gm.entries
            chk.expect(K.shape == (n, n), f"{label} Gram is {K.shape}, own filter keeps {n}")
            if K.shape != (n, n):
                return
            chk.expect(np.array_equal(K, K.T), f"{label} Gram is not symmetric")
            chk.close(np.diag(K), np.ones(n), 1e-12, f"{label} Gram diagonal")
            chk.expect(K.min() >= 0.0 and K.max() <= 1.0, f"{label} Gram leaves [0, 1]")
        states = oracle.zz_states(X, oracle.full_pairs(X.shape[1]), reps=2)
        own = np.abs(states.conj() @ states.T) ** 2
        rows = np.random.default_rng(0).choice(n, size=min(n, 40), replace=False)
        chk.close(exact.entries[rows], own[rows], 1e-9, "exact Gram vs own ZZ states")
        min_eig = float(np.linalg.eigvalsh(exact.entries)[0])
        chk.expect(min_eig >= -1e-10 * n, f"exact Gram not PSD: eigenvalue {min_eig:.3g}")
        shots_n = cfg["models"][1]["kernel"]["shots"]
        counts = shots.entries * shots_n
        chk.close(counts, np.rint(counts), 1e-8, "shot entries as multiples of 1/shots")
        p = exact.entries
        excess = np.abs(shots.entries - p) - oracle.shot_bound(p, shots_n)
        chk.expect(excess.max() <= 0.0,
                   f"shot entry off its exact value beyond the binomial bound by {excess.max():.3g}")


_TRAIN_ACC = re.compile(r"training accuracy (\d\.\d{4})")


def _metrics(path: Path) -> tuple[float, int]:
    fields = dict(line.split() for line in path.read_text().splitlines())
    return float(fields["accuracy"]), int(fields["n"])


class TrainEval:
    """`qsarq preprocess`, `train` and `eval` through saved model files.

    The last three operations use inputs that do not depend on the seed.
    Two of them fail on every run for faults in the program, so they are
    counted as failed:

    - train-activity: `qsarq train` of a reg_ls row with target activity
      must fit pEC50 with threshold = activity_cutoff, as `qsarq run`
      does; `cli.cmd_train` fits the +-1 labels with threshold 0.
    - score-new: `qsarq eval` of a raw held-out CSV must score it with the
      training file's filter and scaling; `cli.cmd_eval` scores the raw
      descriptors of every row, since saved models carry no transform.
    """

    name = "train-eval"
    known_faults = ("train-activity", "score-new")

    def __init__(self, wl: Workload):
        self.wl = wl
        self.config = wl.configs["train"]
        self.probe = wl.configs["probe"]

    def setup_configs(self):
        return [self.config, self.probe]

    def round(self, ctx, r: int) -> Round:
        pre, models = ctx.work / f"pre{r}", ctx.work / f"models{r}"
        normalized = pre / "normalized.csv"
        probe_models = ctx.work / f"probe{r}"
        ops = [
            ctx.qsarq("preprocess", "preprocess", self.wl.csvs["train"], "--lipinski",
                      "--cutoff", CUTOFF, "--out", pre, "--quiet"),
            ctx.qsarq("train", "train", "--config", self.config, "--model", "qsvm_zz",
                      "--out", models),
            ctx.qsarq("train", "train", "--config", self.config, "--model", "ls",
                      "--out", models),
            ctx.qsarq("eval", "eval", models / "qsvm_zz.model", normalized,
                      "--out", ctx.work / f"eval_zz{r}", "--quiet"),
            ctx.qsarq("eval", "eval", models / "ls.model", normalized,
                      "--out", ctx.work / f"eval_ls{r}", "--quiet"),
            ctx.qsarq("train", "train", "--config", self.probe, "--model", "ls",
                      "--out", probe_models, "--quiet"),
            ctx.qsarq("train-activity", "train", "--config", self.probe,
                      "--model", "ls_activity", "--out", probe_models, "--quiet"),
            ctx.qsarq("score-new", "eval", probe_models / "ls.model",
                      self.wl.csvs["probe_heldout"], "--cutoff", CUTOFF,
                      "--out", ctx.work / f"eval_new{r}", "--quiet"),
        ]
        rnd = Round(ops)
        activity_op, score_op = ops[6], ops[7]
        if activity_op.ok:
            activity_op.ok = self._activity_fit_ok(ctx, probe_models / "ls_activity.model")
        if score_op.ok:
            score_op.ok = self._score_new_ok(ctx, probe_models / "ls.model",
                                             ctx.work / f"eval_new{r}" / "metrics.txt")
        _collect(rnd, normalized, models / "qsvm_zz.model", models / "ls.model",
                 probe_models / "ls.model", ctx.work / f"eval_zz{r}" / "metrics.txt",
                 ctx.work / f"eval_ls{r}" / "metrics.txt")
        return rnd

    def _activity_fit_ok(self, ctx, model_path: Path) -> bool:
        model = ctx.qsarq_module.regression.load_reg_model(model_path)
        table = _filtered(self.wl.csvs["probe_train"])
        X = oracle.minmax(table.X, table.X)
        q, _ = oracle.ridge_fit(X, oracle.pec50(table), REG_COMMON["ridge"])
        return model.threshold == CUTOFF and _rel(model.coefficients, q) < 1e-8

    def _score_new_ok(self, ctx, model_path: Path, metrics: Path) -> bool:
        model = ctx.qsarq_module.regression.load_reg_model(model_path)
        train = _filtered(self.wl.csvs["probe_train"])
        new = _filtered(self.wl.csvs["probe_heldout"])
        X_new = oracle.minmax(train.X, new.X)
        acc = float(np.mean(oracle.predict(model.coefficients, X_new, model.threshold)
                            == oracle.labels(new, CUTOFF)))
        got_acc, got_n = _metrics(metrics)
        return got_n == len(new.ids) and got_acc == acc

    def check(self, ctx, chk: Checks, first: Round) -> None:
        ops = first.ops
        check_preprocessed(chk, ctx.work / "pre0" / "normalized.csv", self.wl.csvs["train"],
                           CUTOFF)
        y = oracle.labels(_filtered(self.wl.csvs["train"]), CUTOFF)
        majority = _majority(y)
        for train_op, model in ((ops[1], "zz"), (ops[2], "ls")):
            match = _TRAIN_ACC.search(train_op.stdout)
            chk.expect(match is not None, f"train printed no training accuracy: {train_op.stdout!r}")
            if match is None:
                continue
            acc, n = _metrics(ctx.work / f"eval_{model}0" / "metrics.txt")
            chk.expect(f"{acc:.4f}" == match.group(1) and n == len(y),
                       f"eval {model}: accuracy {acc:.4f} on {n} rows does not reproduce "
                       f"the training accuracy {match.group(1)} on {len(y)} rows")
            chk.expect(acc > majority, f"eval {model}: accuracy {acc:.4f} does not beat "
                                       f"the majority rate {majority:.4f}")
        chk.expect("converged=True" in ops[1].stdout, "qsvm_zz: SMO did not converge")
        load_reg_model = ctx.qsarq_module.regression.load_reg_model
        for model_path, csv_key in ((ctx.work / "models0" / "ls.model", "train"),
                                    (ctx.work / "probe0" / "ls.model", "probe_train")):
            table = _filtered(self.wl.csvs[csv_key])
            X = oracle.minmax(table.X, table.X)
            q, _ = oracle.ridge_fit(X, oracle.labels(table, CUTOFF).astype(float),
                                    REG_COMMON["ridge"])
            model = load_reg_model(model_path)
            chk.expect(_rel(model.coefficients, q) < 1e-8 and model.threshold == 0.0,
                       f"{model_path}: coefficients differ from own min-max + least squares")


WORKLOADS = {cls.name: cls for cls in (PaperTable, KernelMatrix, TrainEval)}
