"""qsarq benchmark: run one workload the way a user does, check it, report.

    python3 bench/run.py --workload paper-table --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, each in its own process
    python3 bench/run.py --all --quick             # tiny sizes, every check, a few seconds

The workload's inputs are generated from --seed. The run times a fresh
interpreter importing qsarq and loading the configs (`setup_s`), then
repeats whole rounds of the workload's qsarq commands for --seconds, at
least MIN_ROUNDS times, timing one more set-up after each round. Each command
runs in a fresh interpreter through ``tracer.py``, which calls
``qsarq.cli.main`` as ``python3 -m qsarq.cli`` does and records the
process's peak memory. A fixed reference task is timed around every
timed operation, and the reported times are scaled by it to a reference
speed of the machine (``REFERENCE_S``). The first round's outputs are
checked against the
benchmark's own arithmetic, and later rounds must reproduce them byte
for byte.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics. With --trace 1 every second round traces its
commands; the JSON carries the per-layer metrics of those
rounds, and the tracing overhead is printed above it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
# The benchmark, its commands and its reference task (below) share one CPU:
# the machine's CPUs change speed independently of each other.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, THREADS)

import numpy as np  # noqa: E402  (after the thread caps, which numpy reads on import)

import make_workload  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 5  # set-up samples before the first round; one more follows each round
# The machine's speed drifts by a third over minutes. Every timed operation
# is bracketed by a fixed reference task, timed in this process just before
# and just after it, and the run's times are scaled to the speed at which
# the reference task takes REFERENCE_S, by the mean of all those samples:
# one sample jitters too much to scale the operation next to it.
REFERENCE_S = 0.025
MIN_ROUNDS = 2  # the byte-identical rerun check needs a second round
DEADLINE_S = 170.0  # a run ends within 180 s even if a command hangs

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "preprocess.ingest_s": "s",
    "preprocess.rows_read": "count",
    "preprocess.transform_s": "s",
    "preprocess.write_s": "s",
    "feature_maps.encode_s": "s",
    "feature_maps.encode_calls": "count",
    "feature_maps.encode_distinct_ratio": "ratio",
    "kernels.gram_quantum_exact_s": "s",
    "kernels.gram_quantum_shots_s": "s",
    "kernels.gram_classical_s": "s",
    "kernels.gram_entries": "count",
    "kernels.kernel_value_calls": "count",
    "kernels.kernel_value_s": "s",
    "kernels.save_gram_s": "s",
    "kernels.load_gram_s": "s",
    "kernels.gram_file_bytes": "bytes",
    "svm.train_s": "s",
    "svm.decision_calls": "count",
    "svm.decision_s": "s",
    "svm.save_s": "s",
    "svm.load_s": "s",
    "svm.model_file_bytes": "bytes",
    "regression.fit_ls_s": "s",
    "regression.fit_anneal_s": "s",
    "pipeline.prepare_s": "s",
    "pipeline.report_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
}
TRANSFORM = ("apply_lipinski_filter", "resolve_labels", "feature_matrix", "minmax_fit",
             "minmax_transform", "pca_fit", "pca_transform")


def reference_seconds() -> float:
    """Time the reference task: pure-Python arithmetic and small numpy operations,
    the two kinds of work qsarq's commands do. It runs no qsarq code."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    a = np.arange(32.0)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


class BenchError(RuntimeError):
    pass


class Context:
    """Runs qsarq commands for a workload and keeps what they leave behind."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.errors: list[str] = []
        self.tracer: Tracer | None = None  # installed in this process when tracing
        self.tracing = False  # trace the commands
        self.traces: list[dict] = []
        self.peak_rss_kb = 0
        self.reference_times: list[float] = []
        self._result_files = itertools.count()
        import qsarq

        self.qsarq_module = qsarq

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        return left

    def timed(self, fn):
        """Run fn() between two samples of the reference task; return its result and seconds."""
        self.reference_times.append(reference_seconds())
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.reference_times.append(reference_seconds())
        return result, seconds

    def qsarq(self, name: str, command: str, *args) -> workloads.Op:
        result_file = self.work / f"command{next(self._result_files)}.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(result_file),
               *(["--trace"] if self.tracing else []), "--", command, *map(str, args)]
        try:
            proc, seconds = self.timed(lambda: subprocess.run(
                cmd, cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=self._timeout()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: qsarq {command} did not finish") from exc
        # a command that dies before qsarq.cli runs leaves no result file
        result = (json.loads(result_file.read_text()) if result_file.exists()
                  else {"edges": [], "counters": {}, "peak_rss_kb": 0})
        self.peak_rss_kb = max(self.peak_rss_kb, result["peak_rss_kb"])
        if self.tracing:
            self.traces.append(result)
        if proc.returncode != 0:
            self.errors.append(f"{name}: qsarq {command} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return workloads.Op(name, command, seconds, proc.returncode == 0, proc.stdout)

    def load_gram(self, path: Path) -> workloads.Op:
        gm, seconds = self.timed(lambda: self.qsarq_module.kernels.load_gram(path))
        return workloads.Op("load_gram", "load_gram", seconds, value=gm)

    def setup_seconds(self, configs: list[Path]) -> float:
        """Time a fresh interpreter importing qsarq and loading the configs."""
        code = ("import sys, qsarq\nfrom qsarq.pipeline import load_experiment_config\n"
                "for path in sys.argv[1:]:\n    load_experiment_config(path)\n")
        return self.timed(lambda: subprocess.run(
            [sys.executable, "-c", code, *map(str, configs)], cwd=self.work, env=self.env,
            check=True, capture_output=True, timeout=self._timeout()))[1]

    def take_trace(self) -> list[dict]:
        """Span aggregates of the round just run: its commands plus this process."""
        traces, self.traces = self.traces, []
        traces.append(self.tracer.to_dict())
        self.tracer.reset()
        return traces


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    total, self_time = defaultdict(float), defaultdict(float)
    calls, counters = defaultdict(int), defaultdict(int)
    for trace in traces:
        for name, _parent, count, seconds, child in trace["edges"]:
            calls[name] += count
            total[name] += seconds
            self_time[name] += seconds - child
        for key, value in trace["counters"].items():
            counters[key] += value
    encode_calls = calls["feature_maps.encode"]
    return {
        "preprocess.ingest_s": total["preprocess.read_descriptor_csv"],
        "preprocess.rows_read": counters["rows_read"],
        "preprocess.transform_s": sum(total[f"preprocess.{f}"] for f in TRANSFORM),
        "preprocess.write_s": total["preprocess.write_feature_csv"],
        "feature_maps.encode_s": total["feature_maps.encode"],
        "feature_maps.encode_calls": encode_calls,
        "feature_maps.encode_distinct_ratio":
            counters["encode_distinct"] / encode_calls if encode_calls else 0.0,
        "kernels.gram_quantum_exact_s": total["kernels.gram[quantum_exact]"],
        "kernels.gram_quantum_shots_s": total["kernels.gram[quantum_shots]"],
        "kernels.gram_classical_s": total["kernels.gram[classical]"],
        "kernels.gram_entries": counters["gram_entries"],
        "kernels.kernel_value_calls": calls["kernels.kernel_value"],
        "kernels.kernel_value_s": total["kernels.kernel_value"],
        "kernels.save_gram_s": total["kernels.save_gram"],
        "kernels.load_gram_s": total["kernels.load_gram"],
        "kernels.gram_file_bytes": counters["gram_file_bytes"],
        "svm.train_s": total["svm.train"],
        "svm.decision_calls": calls["svm.decision_value"],
        "svm.decision_s": total["svm.decision_value"],
        "svm.save_s": total["svm.save_svm_model"],
        "svm.load_s": total["svm.load_svm_model"],
        "svm.model_file_bytes": counters["model_file_bytes"],
        "regression.fit_ls_s": total["regression.fit_least_squares"],
        "regression.fit_anneal_s": total["regression.fit_annealing"],
        "pipeline.prepare_s": total["pipeline.prepare_features"],
        "pipeline.report_s": total["pipeline.EvalReport.to_text"]
        + total["pipeline.EvalReport.to_json"],
        "pipeline.self_s": self_time["pipeline.run_experiment"],
        "cli.self_s": self_time["cli.main"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        wl = make_workload.make_workload(name, seed, work / "inputs", quick)
        workload = workloads.WORKLOADS[name](wl)
        ctx = Context(work, deadline)
        configs = workload.setup_configs()
        ctx.setup_seconds(configs)  # untimed: the first start writes the bytecode cache
        setup_times = [ctx.setup_seconds(configs) for _ in range(1 if quick else SETUP_REPS)]

        if trace:
            ctx.tracer = Tracer()
            ctx.tracer.install()
        rounds, traced = [], []
        start = time.perf_counter()
        while True:
            # traced rounds alternate with untraced ones, so that each
            # traced round has an untraced neighbour to measure overhead by
            ctx.tracing = trace and len(rounds) % 2 == 1
            rounds.append(workload.round(ctx, len(rounds)))
            setup_times.append(ctx.setup_seconds(configs))  # spread over the run, as rounds are
            spans = ctx.take_trace() if trace else []
            traced.append(layer_metrics(spans) if ctx.tracing else None)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.seconds for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
                break
        peak_rss_mb = ctx.peak_rss_kb / 1024.0

        chk = workloads.Checks()
        workload.check(ctx, chk, rounds[0])
        for r, rnd in enumerate(rounds[1:], start=1):
            for key, data in rounds[0].files.items():
                chk.expect(rnd.files.get(key) == data, f"round {r}: {key} differs from round 0")
        ops = [op for rnd in rounds for op in rnd.ops]
        unexpected = sorted({op.name for op in ops
                             if not op.ok and op.name not in workload.known_faults})
        chk.expect(not unexpected, f"operations failed: {unexpected}")
        untraced = [r for r, t in zip(rounds, traced) if t is None]
        per_command = defaultdict(list)
        for rnd in untraced:
            sums = defaultdict(float)
            for op in rnd.ops:
                sums[op.command] += op.seconds
            for command, value in sums.items():
                per_command[command].append(value)
        # the mean, not the median: the machine's speed switches between two
        # states for seconds at a time, and the median of a few rounds jumps
        # between them where the mean follows the share of time in each
        wall_s = statistics.fmean(r.seconds for r in untraced)
        setup_raw_s = statistics.median(setup_times)
        reference_s = statistics.fmean(ctx.reference_times)
        speed = REFERENCE_S / reference_s
        print(f"{name}: seed {seed}, {len(rounds)} rounds of {len(rounds[0].ops)} operations, "
              f"{THREADS} BLAS threads")
        for err in ctx.errors:
            print(f"  error: {err}")
        for problem in chk.problems:
            print(f"  check failed: {problem}")
        for command, values in sorted(per_command.items()):
            print(f"  {command}_s {statistics.fmean(values):.4f} s (mean of {len(values)})")
        print(f"  as measured: round {wall_s:.4f} s (mean of {len(untraced)}), set-up "
              f"{setup_raw_s:.4f} s (median of {len(setup_times)}), reference task "
              f"{reference_s:.5f} s (mean of {len(ctx.reference_times)}); scaled by "
              f"{speed:.4f}")
        if trace:
            pairs = [(rounds[i].seconds, rounds[i - 1].seconds)
                     for i in range(1, len(rounds)) if traced[i] is not None]
            overhead = statistics.median(t / u for t, u in pairs) - 1.0
            print(f"  tracing overhead {100 * overhead:+.1f}% (median over {len(pairs)} "
                  "traced rounds, each against the untraced round before it)")
            layer_rounds = [t for t in traced if t is not None]
            metrics = {}
            for key, unit in PER_LAYER.items():
                # counts repeat exactly from round to round; keep them whole
                median = statistics.median if unit == "s" else statistics.median_low
                metrics[key] = {"value": median(m[key] for m in layer_rounds), "unit": unit}
        else:
            values = {"setup_s": setup_raw_s * speed, "round_s": wall_s * speed,
                      "peak_rss_mb": peak_rss_mb}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for key, metric in metrics.items():
            print(f"  {key} {metric['value']} {metric['unit']}")
        return {
            "correct": not chk.problems,
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for name in make_workload.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S + 10)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"  correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsarq benchmark")
    parser.add_argument("--workload", choices=make_workload.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "qsarq" / "cli.py").is_file():
        print(f"error: no qsarq sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.quick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
