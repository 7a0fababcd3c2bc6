"""Command-line entry points.

Five subcommands mirror the pipeline stages: `preprocess` normalizes a
raw descriptor CSV, `gram` materializes a kernel matrix, `train` fits one
configured model, `eval` scores a saved model, and `run` executes the
whole experiment and writes the comparison report. There is one data
path: every command reads its CSV through the pipeline's
`prepare_features`, under a `pipeline.DataConfig`. `gram`, `train` and
`run` take it from their config (an `ExperimentConfig` is one);
`preprocess` builds it from its flags, and `eval` from `--cutoff`, with
no filter and no scaling, since it reads features already prepared.
`train` fits through `fit_entry`, so a saved model is fitted exactly as
its row in the report is. A config is checked whole, kernels included,
before its CSV is read. Gram matrices and models are files in the one
format of `qsarq.artifact`, written to `<out>/<model name>.gram`
and `<out>/<model name>.model`, so a model name that is empty, `.` or
`..`, or holds `/` or `\\`, is refused at load. A Gram file holds the
feature rows it was built over; `train --gram` is where it meets the data,
and it refuses, naming the file and what differs, one of another kernel or
whose rows are not the config's data byte for byte; a row's jitter is
SMO's, so one Gram file trains rows of any jitter. `eval` reads either
model type through `pipeline.load_model` and refuses a CSV of another
width than the model's, naming both files and both widths. A `--model`
that names no row of the config is refused, naming the config.
Exit codes: 0 on success, 2 on invalid input or config, 3 on internal
consistency failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import InternalConsistencyError, ResourceLimitError
from .kernels import load_gram, save_gram
from .pipeline import (
    SVM,
    DataConfig,
    ExperimentConfig,
    accuracy,
    entry_gram,
    fit_entry,
    load_experiment_config,
    load_model,
    predict,
    prepare_features,
    run_experiment,
    save_model,
)
from .preprocess import write_feature_csv
from .svm import SvmModel


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _gram_faults(gm, kcfg, X, csv) -> list[str]:
    """What Gram matrix `gm` holds that the one of kernel `kcfg` over the rows
    X of `csv` would not; its rows are compared byte for byte, shape and
    float64 bytes, so -0.0 is not 0.0."""
    faults = []
    if gm.kernel_config != kcfg:
        have, want = repr(gm.kernel_config.describe()), repr(kcfg.describe())
        if have == want:  # the tags leave out the shot seed and round parameters
            have, want = gm.kernel_config.to_dict(), kcfg.to_dict()
        faults.append(f"the kernel {have}, not {want}")
    if gm.rows.shape != X.shape or gm.rows.tobytes() != X.tobytes():
        faults.append("{} x {} feature rows that are not the {} x {} that {} gives".format(
            *gm.rows.shape, *X.shape, csv))
    return faults


def _out_path(args, name: str) -> Path:
    """File `name` in the --out directory, made if missing."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _select_entry(args, config: ExperimentConfig):
    """The config row named by --model, else the first."""
    if args.model is None:
        return config.models[0]
    for entry in config.models:
        if entry.name == args.model:
            return entry
    raise ValueError(f"{args.config}: no model named {args.model!r}")


def cmd_preprocess(args) -> None:
    data = DataConfig(input=args.input, lipinski_filter=args.lipinski,
                      activity_cutoff=args.cutoff, scaler=not args.no_scale)
    X, _, labels, _, info = prepare_features(data, split=False, cutoff_name="--cutoff")
    out_path = _out_path(args, "normalized.csv")
    write_feature_csv(out_path, info["table"].ids, X, info["names"], labels)
    _say(args, f"wrote {out_path} ({len(labels)} rows, {len(info['names'])} features)")


def cmd_gram(args) -> None:
    config = load_experiment_config(args.config)
    entry = _select_entry(args, config)
    if entry.kind != SVM:
        raise ValueError(f"model {entry.name!r} has no kernel (kind {entry.kind})")
    X, _, _, _, _ = prepare_features(config, split=False)
    gm = entry_gram(entry, X)
    out_path = _out_path(args, f"{entry.name}.gram")
    save_gram(gm, out_path)
    _say(args, f"wrote {out_path} ({gm.size}x{gm.size}, {gm.kernel_config.describe()})")


def cmd_train(args) -> None:
    config = load_experiment_config(args.config)
    entry = _select_entry(args, config)
    if args.gram and entry.kind != SVM:
        raise ValueError("--gram only applies to svm models")
    X, _, labels, _, info = prepare_features(config, split=False)
    gm = None
    if args.gram:
        gm = load_gram(args.gram)
        faults = _gram_faults(gm, entry.kernel_config(X.shape[1]), X, config.input_path)
        if faults:
            raise ValueError(f"{args.gram}: not a Gram matrix of model {entry.name!r}: "
                             f"it holds {'; '.join(faults)}")
    model = fit_entry(entry, X, labels, info["table"].activity, config.activity_cutoff, gm)
    out_path = _out_path(args, f"{entry.name}.model")
    save_model(model, out_path)
    converged = getattr(model, "converged", None)  # svm models only
    solver = "" if converged is None else f", converged={converged}"
    _say(args, f"wrote {out_path} (training accuracy "
               f"{accuracy(predict(model, X), labels):.4f}{solver})")


def cmd_eval(args) -> None:
    model = load_model(args.model)
    data = DataConfig(input=args.data, activity_cutoff=args.cutoff, scaler=False)
    X, _, labels, _, _ = prepare_features(data, split=False, cutoff_name="--cutoff")
    width = (model.support_vectors.shape[1] if isinstance(model, SvmModel)
             else model.basis.n_features)
    if X.shape[1] != width:
        raise ValueError(f"{args.data}: {X.shape[1]} feature columns, but the model "
                         f"{args.model} takes {width}")
    acc = accuracy(predict(model, X), labels)
    _say(args, f"accuracy {acc:.4f} on {len(labels)} rows")
    if args.out:
        metrics = _out_path(args, "metrics.txt")
        metrics.write_text(f"accuracy {acc:.17g}\nn {len(labels)}\n", encoding="utf-8")
        _say(args, f"wrote {metrics}")


def cmd_run(args) -> None:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        if args.seed < 0:  # the bound of a config's seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        config.seed = args.seed
    report = run_experiment(config)
    txt_path, json_path = _out_path(args, "report.txt"), _out_path(args, "report.json")
    text = report.to_text()
    txt_path.write_text(text, encoding="utf-8")
    json_path.write_text(report.to_json(), encoding="utf-8")
    _say(args, f"{text}wrote {txt_path} and {json_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsarq",
        description="quantum-kernel models on molecular descriptor data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    name_rule = " (a model name is a file name: not empty, '.' or '..', no '/' or '\\')"

    def common(p, writes):
        p.add_argument("--out", default="out", help=f"output directory; writes {writes}")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("preprocess", help="normalize a raw descriptor CSV")
    p.add_argument("input", help="raw descriptor CSV")
    p.add_argument("--lipinski", action="store_true",
                   help="drop rows failing the rule of five")
    p.add_argument("--cutoff", type=_finite_float, default=None,
                   help="pEC50 cutoff for deriving labels")
    p.add_argument("--no-scale", action="store_true", help="skip min-max scaling")
    common(p, "<out>/normalized.csv")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gram", help="write a kernel Gram matrix for a config model")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--model", default=None, help="model name (default: first entry)")
    common(p, "<out>/<model name>.gram" + name_rule)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("train", help="train one configured model on the full input")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--model", default=None, help="model name (default: first entry)")
    p.add_argument("--gram", default=None,
                   help="reuse a saved Gram matrix instead of recomputing")
    common(p, "<out>/<model name>.model" + name_rule)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a feature CSV")
    p.add_argument("model", help="saved model file")
    p.add_argument("data", help="feature CSV with labels (see `preprocess`)")
    p.add_argument("--cutoff", type=_finite_float, default=None,
                   help="pEC50 cutoff if labels must be derived")
    common(p, "<out>/metrics.txt")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run the full experiment and write the report")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    common(p, "<out>/report.txt and <out>/report.json")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
