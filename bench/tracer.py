"""Per-layer spans around qsarq's public functions, installed from outside.

Each wrapped function is replaced at every name a qsarq module looks it
up under (``qsarq.kernels.encode``, ``qsarq.svm.kernel_value``,
``qsarq.pipeline.gram``, ...), so calls between modules are seen. A
span records its name and the span that called it. Spans are not stored
one by one: calls made hundreds of thousands of times are folded into
one (name, parent) edge holding a call count, total time and the time
covered by child spans, from which self time follows.

As a program it runs one qsarq command, as `python3 -m qsarq.cli` would,
and writes the command's peak resident memory and, with --trace, the
span aggregate as JSON:

    python3 bench/tracer.py result.json --trace -- run --config exp.yaml --out out
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; names are reported as
# "<module>.<attribute>" without the package prefix
TARGETS = (
    ("preprocess", "read_descriptor_csv"),
    ("preprocess", "apply_lipinski_filter"),
    ("preprocess", "resolve_labels"),
    ("preprocess", "feature_matrix"),
    ("preprocess", "minmax_fit"),
    ("preprocess", "minmax_transform"),
    ("preprocess", "pca_fit"),
    ("preprocess", "pca_transform"),
    ("preprocess", "write_feature_csv"),
    ("feature_maps", "encode"),
    ("kernels", "gram"),
    ("kernels", "kernel_value"),
    ("kernels", "save_gram"),
    ("kernels", "load_gram"),
    ("svm", "train"),
    ("svm", "decision_value"),
    ("svm", "save_svm_model"),
    ("svm", "load_svm_model"),
    ("regression", "fit_least_squares"),
    ("regression", "fit_annealing"),
    ("regression", "predict_labels"),
    ("regression", "save_reg_model"),
    ("regression", "load_reg_model"),
    ("pipeline", "prepare_features"),
    ("pipeline", "run_experiment"),
    ("pipeline", "EvalReport.to_text"),
    ("pipeline", "EvalReport.to_json"),
)
ROOT = "-"


class Tracer:
    """Aggregated spans and counters of one process."""

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, child
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds]
        self._encoded: set[bytes] = set()

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else ROOT
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            edge = self.edges[(name, parent)]
            edge[0] += 1
            edge[1] += elapsed
            edge[2] += frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def _count(self, name: str, args, result) -> None:
        if name == "preprocess.read_descriptor_csv":
            self.counters["rows_read"] += len(result)
        elif name == "feature_maps.encode":
            key = np.ascontiguousarray(args[1], dtype=np.float64).tobytes()
            if key not in self._encoded:
                self._encoded.add(key)
                self.counters["encode_distinct"] += 1
        elif name.startswith("kernels.gram["):
            self.counters["gram_entries"] += result.size * (result.size + 1) // 2
        elif name == "kernels.save_gram":
            self.counters["gram_file_bytes"] += os.path.getsize(args[1])
        elif name == "svm.save_svm_model":
            self.counters["model_file_bytes"] += os.path.getsize(args[1])

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "kernels.gram":
                kind = args[0].kind
                span_name = f"kernels.gram[{kind if kind.startswith('quantum') else 'classical'}]"
            result = tracer.span(span_name, fn, *args, **kwargs)
            tracer._count(span_name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target at each name a qsarq module binds it to."""
        import qsarq  # noqa: F401  (imports every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "qsarq" or key.startswith("qsarq.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"qsarq.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(f"{mod_name}.{attr}", getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def reset(self) -> None:
        self.edges.clear()
        self.counters.clear()
        self._encoded.clear()

    def to_dict(self) -> dict:
        return {
            "edges": [[name, parent, *vals] for (name, parent), vals in self.edges.items()],
            "counters": dict(self.counters),
        }


def peak_rss_kb() -> int:
    """This process's peak resident set since its exec (VmHWM).

    getrusage's ru_maxrss would also count the parent's resident set at
    the time of the exec, which the parent's vfork hands down.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    out, *rest = argv
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: tracer.py OUT.json [--trace] -- <qsarq arguments>")
    import qsarq.cli

    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        if trace:
            code = tracer.span("cli.main", qsarq.cli.main, rest[1:])
        else:
            code = qsarq.cli.main(rest[1:])
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({**tracer.to_dict(), "peak_rss_kb": peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
