"""Command-line entry points.

Subcommands mirror the pipeline stages: `preprocess` normalizes a raw
descriptor CSV, `gram` materializes a kernel matrix, `train` fits one
configured model, `eval` scores a saved model, and `run` executes the
whole experiment and writes the comparison report. Exit codes: 0 on
success, 2 on invalid input or config, 3 on internal consistency
failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from .errors import InternalConsistencyError, ResourceLimitError
from .kernels import dataset_digest, gram, load_gram, save_gram
from .pipeline import (
    SVM,
    ExperimentConfig,
    accuracy,
    load_experiment_config,
    resolve_kernel_config,
    run_experiment,
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
    write_feature_csv,
)
from .regression import (
    AnnealSchedule,
    BasisSpec,
    fit_annealing,
    fit_least_squares,
    load_reg_model,
    predict_labels,
    save_reg_model,
)
from .svm import SvmConfig, decision_values, load_svm_model, save_svm_model, train
from .svm import FORMAT_TAG as SVM_TAG


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _prepare_unsplit(config: ExperimentConfig):
    """Config preprocessing applied to the whole file (no train/test split)."""
    rows = read_descriptor_csv(config.input)
    if config.lipinski_filter:
        rows = apply_lipinski_filter(rows)
        if not rows:
            raise ValueError("no rows survive the rule-of-five filter")
    labels = resolve_labels(rows, config.activity_cutoff)
    X, names = feature_matrix(rows)
    if config.scaler:
        X = minmax_transform(minmax_fit(X), X)
    if config.pca_k is not None:
        pca = pca_fit(X, config.pca_k)
        X = pca_transform(pca, X)
        names = [f"pc{i + 1}" for i in range(config.pca_k)]
        if config.scaler:
            X = minmax_transform(minmax_fit(X), X)
    return rows, X, names, labels


def _select_entry(config: ExperimentConfig, name: str | None):
    if name is None:
        return config.models[0]
    for entry in config.models:
        if entry.name == name:
            return entry
    raise ValueError(f"no model named {name!r} in the config")


def cmd_preprocess(args) -> None:
    rows = read_descriptor_csv(args.input)
    if args.lipinski:
        rows = apply_lipinski_filter(rows)
        if not rows:
            raise ValueError("no rows survive the rule-of-five filter")
    try:
        labels = resolve_labels(rows, args.cutoff)
    except ValueError as exc:
        _say(args, f"labels omitted: {exc}")
        labels = None
    X, names = feature_matrix(rows)
    if not args.no_scale:
        X = minmax_transform(minmax_fit(X), X)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "normalized.csv"
    write_feature_csv(out_path, [r.compound_id for r in rows], X, names, labels)
    _say(args, f"wrote {out_path} ({len(rows)} rows, {len(names)} features)")


def cmd_gram(args) -> None:
    config = load_experiment_config(args.config)
    entry = _select_entry(config, args.model)
    if entry.kind != SVM:
        raise ValueError(f"model {entry.name!r} has no kernel (kind {entry.kind})")
    _, X, _, _ = _prepare_unsplit(config)
    kcfg = resolve_kernel_config(entry.kernel, X.shape[1])
    gm = gram(kcfg, X, jitter=entry.jitter)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{entry.name}.gram"
    save_gram(gm, out_path)
    _say(args, f"wrote {out_path} ({gm.size}x{gm.size}, {kcfg.describe()})")


def cmd_train(args) -> None:
    config = load_experiment_config(args.config)
    entry = _select_entry(config, args.model)
    _, X, _, labels = _prepare_unsplit(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{entry.name}.model"

    if entry.kind == SVM:
        kcfg = resolve_kernel_config(entry.kernel, X.shape[1])
        if args.gram:
            gm = load_gram(args.gram)
            if gm.dataset_digest != dataset_digest(X):
                raise ValueError(
                    f"{args.gram}: Gram matrix digest does not match the "
                    "preprocessed input data"
                )
        else:
            gm = gram(kcfg, X, jitter=entry.jitter)
        svm_cfg = SvmConfig(C=entry.C, tol=entry.tol, eps=entry.eps,
                            max_passes=entry.max_passes, max_iters=entry.max_iters)
        model = train(gm, labels, svm_cfg, features=X)
        save_svm_model(model, out_path)
        preds = np.where(decision_values(model, X) >= 0, 1, -1)
        _say(args, f"wrote {out_path} (training accuracy "
                   f"{accuracy(preds, labels):.4f}, converged={model.converged})")
        return

    if args.gram:
        raise ValueError("--gram only applies to svm models")
    basis = BasisSpec(kind=entry.basis, n_features=X.shape[1])
    targets = labels.astype(np.float64)
    if entry.kind == "reg_anneal":
        schedule = AnnealSchedule(t0=entry.t0, cooling=entry.cooling,
                                  n_iters=entry.iterations)
        model = fit_annealing(X, targets, basis, schedule, seed=entry.anneal_seed,
                              ridge=entry.ridge)
    else:
        model = fit_least_squares(X, targets, basis, ridge=entry.ridge)
    save_reg_model(model, out_path)
    preds = predict_labels(model, X)
    _say(args, f"wrote {out_path} (training accuracy {accuracy(preds, labels):.4f})")


def cmd_eval(args) -> None:
    with open(args.model, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    rows = read_descriptor_csv(args.data)
    labels = resolve_labels(rows, args.cutoff)
    X, _ = feature_matrix(rows)
    if first == SVM_TAG:
        model = load_svm_model(args.model)
        preds = np.where(decision_values(model, X) >= 0, 1, -1)
    else:
        model = load_reg_model(args.model)
        preds = predict_labels(model, X)
    acc = accuracy(preds, labels)
    _say(args, f"accuracy {acc:.4f} on {len(rows)} rows")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics = out_dir / "metrics.txt"
        metrics.write_text(f"accuracy {acc:.17g}\nn {len(rows)}\n", encoding="utf-8")
        _say(args, f"wrote {metrics}")


def cmd_run(args) -> None:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    report = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = report.to_text()
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    if not args.quiet:
        print(text, end="")
        print(f"wrote {out_dir / 'report.txt'} and {out_dir / 'report.json'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsarq",
        description="quantum-kernel models on molecular descriptor data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("preprocess", help="normalize a raw descriptor CSV")
    p.add_argument("input", help="raw descriptor CSV")
    p.add_argument("--lipinski", action="store_true",
                   help="drop rows failing the rule of five")
    p.add_argument("--cutoff", type=float, default=None,
                   help="pEC50 cutoff for deriving labels")
    p.add_argument("--no-scale", action="store_true", help="skip min-max scaling")
    common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gram", help="write a kernel Gram matrix for a config model")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--model", default=None, help="model name (default: first entry)")
    common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("train", help="train one configured model on the full input")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--model", default=None, help="model name (default: first entry)")
    p.add_argument("--gram", default=None,
                   help="reuse a saved Gram matrix instead of recomputing")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a feature CSV")
    p.add_argument("model", help="saved model file")
    p.add_argument("data", help="feature CSV with labels (see `preprocess`)")
    p.add_argument("--cutoff", type=float, default=None,
                   help="pEC50 cutoff if labels must be derived")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run the full experiment and write the report")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    common(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ResourceLimitError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
