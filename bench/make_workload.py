"""Seeded synthetic inputs for the qsarq benchmark workloads.

Every file a workload reads is written here from a seed: descriptor
CSVs and YAML experiment configs. Nothing is downloaded. Activity
follows a planted rule of the descriptors plus Gaussian noise, so the
models have a real signal to find, and a fixed share of compounds
breaks the rule of five twice (weight and logP), so the filter always
drops exactly that many rows.

Run on its own to inspect a workload's inputs:

    python3 bench/make_workload.py paper-table --seed 1 --out wl
"""

from __future__ import annotations

import argparse
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# descriptor ranges of compounds that pass the rule of five on all four
# counts; failing compounds take weight and logP from the FAIL ranges
PASS_RANGES = {
    "n_donors": (0, 5),
    "n_acceptors": (0, 10),
    "rotatable_bonds": (0, 10),
    "mol_weight": (180.0, 500.0),
    "logp": (-1.0, 5.0),
}
FAIL_RANGES = {"mol_weight": (510.0, 700.0), "logp": (5.2, 7.5)}
CANONICAL = ("n_donors", "n_acceptors", "rotatable_bonds", "mol_weight", "logp")
EXTRA_NAMES = ("tpsa", "heavy_atoms", "n_rings", "aromatic_rings", "fsp3",
               "formal_charge", "refractivity")

FAIL_SHARE = 0.12
SERIES_PER_SET = 12
SPREAD = 0.015  # within-series spread of continuous descriptors, share of range
INT_JITTER = 0.2  # within-series spread of count descriptors
STRUCTURE_SEED = 4648
NOISE_SD = 0.05
CUTOFF = 6.0
SPLIT = 0.7

# the inputs of the operations that fail on every run do not depend on
# --seed; they come from this constant seed
FIXED_SEED = 20250507


@dataclass
class Dataset:
    """One generated descriptor table."""

    ids: list[str]
    descriptors: np.ndarray  # (n, 5) canonical columns, CANONICAL order
    extras: np.ndarray  # (n, len(extra_names))
    extra_names: tuple[str, ...]
    pec50: np.ndarray

    def write_csv(self, path: Path) -> None:
        header = ["compound_id", *CANONICAL, *self.extra_names, "ec50_nM"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, cid in enumerate(self.ids):
                desc = [int(v) if j < 3 else f"{v:.6f}"
                        for j, v in enumerate(self.descriptors[i])]
                extras = [f"{v:.6f}" for v in self.extras[i]]
                ec50 = 10.0 ** (9.0 - self.pec50[i])
                w.writerow([cid, *desc, *extras, f"{ec50:.9g}"])


def _unit(values: np.ndarray, name: str) -> np.ndarray:
    lo, hi = PASS_RANGES[name]
    return (values - lo) / (hi - lo)


def planted_activity(desc: np.ndarray) -> np.ndarray:
    """Noise-free activity score: a trend in logP and weight plus interactions."""
    u = {name: _unit(desc[:, j], name) for j, name in enumerate(CANONICAL)}
    return (
        1.6 * (u["logp"] - u["mol_weight"])
        + 1.2 * (u["n_acceptors"] - 0.5) * (u["rotatable_bonds"] - 0.5) * 4.0
        + 0.4 * np.cos(math.pi * u["n_donors"])
    )


def make_dataset(rng: np.random.Generator, n: int, prefix: str,
                 n_extras: int = 0, series: int = 0) -> Dataset:
    """Draw `n` compounds from scaffold series around fixed centres.

    The centres of the SERIES_PER_SET series come from a constant seed, so
    every seed samples the same chemical space; `rng` draws which series
    each compound belongs to, its offsets from the centre, its activity
    noise and which compounds break the rule of five.
    """
    centre_rng = np.random.default_rng([STRUCTURE_SEED, series])
    centres = np.empty((SERIES_PER_SET, len(CANONICAL)))
    for j, name in enumerate(CANONICAL):
        lo, hi = PASS_RANGES[name]
        if j < 3:
            centres[:, j] = centre_rng.integers(lo, hi + 1, size=SERIES_PER_SET)
        else:
            centres[:, j] = centre_rng.uniform(lo, hi, size=SERIES_PER_SET)
    member = rng.permutation(np.arange(n) % SERIES_PER_SET)
    desc = centres[member].copy()
    for j, name in enumerate(CANONICAL):
        lo, hi = PASS_RANGES[name]
        if j < 3:
            desc[:, j] = np.clip(np.rint(desc[:, j] + INT_JITTER * rng.standard_normal(n)),
                                 lo, hi)
        else:
            desc[:, j] = np.clip(desc[:, j] + SPREAD * (hi - lo) * rng.standard_normal(n),
                                 lo, hi)
    fail = np.zeros(n, dtype=bool)
    fail[rng.choice(n, size=int(round(FAIL_SHARE * n)), replace=False)] = True
    for name, (lo, hi) in FAIL_RANGES.items():
        desc[fail, CANONICAL.index(name)] = rng.uniform(lo, hi, size=int(fail.sum()))
    # put the cutoff in the widest gap between the middle series' activities,
    # so whole series fall on one side of it and the classes stay balanced
    levels = np.sort(planted_activity(centres))
    mid = SERIES_PER_SET // 2
    gap = max(range(mid - 2, mid + 1), key=lambda i: levels[i + 1] - levels[i])
    offset = CUTOFF - 0.5 * (levels[gap] + levels[gap + 1])
    pec = offset + planted_activity(desc) + NOISE_SD * rng.standard_normal(n)
    # extra descriptors: noisy mixes of the canonical ones, so PCA has
    # correlated structure to find
    mix = centre_rng.normal(size=(len(CANONICAL), n_extras))
    unit = np.column_stack([_unit(desc[:, j], name) for j, name in enumerate(CANONICAL)])
    extras = 50.0 + 10.0 * ((unit - 0.5) @ mix) + rng.standard_normal((n, n_extras))
    return Dataset(
        ids=[f"{prefix}{i:06d}" for i in range(n)],
        descriptors=desc,
        extras=extras,
        extra_names=EXTRA_NAMES[:n_extras],
        pec50=pec,
    )


def _svm(name, kernel, **extra):
    return {"name": name, "kind": "svm", "kernel": kernel, "C": 1.0, **extra}


ZZ_LINEAR = {"family": "zz", "entanglement": "linear", "reps": 2}
CUSTOM_LINEAR = {"family": "custom", "entanglement": "linear", "reps": 2}
ZZ_FULL = {"family": "zz", "entanglement": "full", "reps": 2}
REG_COMMON = {"basis": "poly2", "ridge": 0.01}


def _config(csv_name: str, seed: int, models: list[dict], **extra) -> dict:
    return {
        "input": csv_name,
        "seed": seed,
        "split": SPLIT,
        "lipinski_filter": True,
        "activity_cutoff": CUTOFF,
        "scaler": True,
        **extra,
        "models": models,
    }


@dataclass
class Workload:
    """Paths of a generated workload's files, and its configs as written."""

    root: Path
    configs: dict[str, Path] = field(default_factory=dict)
    csvs: dict[str, Path] = field(default_factory=dict)
    config_dicts: dict[str, dict] = field(default_factory=dict)


# sizes per workload: full scale, then the quick mode used by the
# benchmark's own tests
SIZES = {
    "paper-table": {"full": {"n": 150}, "quick": {"n": 40}},
    "kernel-matrix": {"full": {"n": 500, "pca_k": 10, "extras": 7},
                      "quick": {"n": 40, "pca_k": 4, "extras": 3}},
    "train-eval": {"full": {"n": 100}, "quick": {"n": 40}},
}
WORKLOADS = tuple(SIZES)
# each workload's stream of the seed and region of chemical space (its
# scaffold series); fixed numbers, so that adding or removing a workload
# leaves the others' inputs as they were. PROBE_SPACE is that of
# train-eval's seed-independent probe files.
SPACE = {"paper-table": 0, "kernel-matrix": 1, "train-eval": 3}
PROBE_SPACE = 4


def _add(wl: Workload, key: str, ds: Dataset) -> None:
    path = wl.root / f"{key}.csv"
    ds.write_csv(path)
    wl.csvs[key] = path


def _add_config(wl: Workload, key: str, cfg: dict) -> None:
    path = wl.root / f"{key}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    wl.configs[key] = path
    wl.config_dicts[key] = cfg


def make_workload(name: str, seed: int, out: Path, quick: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` under `out`."""
    size = SIZES[name]["quick" if quick else "full"]
    out.mkdir(parents=True, exist_ok=True)
    wl = Workload(root=out)
    space = SPACE[name]
    rng = np.random.default_rng([seed, space])
    split_seed = int(rng.integers(1 << 30))

    if name == "paper-table":
        _add(wl, "compounds", make_dataset(rng, size["n"], "PT", series=space))
        shots = {"kind": "quantum_shots", "feature_map": ZZ_LINEAR,
                 "shots": 1024, "rng_seed": 7}
        _add_config(wl, "paper", _config("compounds.csv", split_seed, [
            {"name": "ls", "kind": "reg_ls", **REG_COMMON},
            {"name": "anneal", "kind": "reg_anneal", **REG_COMMON,
             "iterations": 4000, "anneal_seed": 3},
            _svm("svm_linear", {"kind": "linear"}),
            _svm("svm_rbf", {"kind": "rbf", "gamma": 2.0}),
            _svm("qsvm_zz", {"kind": "quantum_exact", "feature_map": ZZ_LINEAR}),
            _svm("qsvm_custom", {"kind": "quantum_exact", "feature_map": CUSTOM_LINEAR}),
            _svm("qsvm_zz_shots", shots, jitter=0.05),
        ]))
    elif name == "kernel-matrix":
        _add(wl, "library", make_dataset(rng, size["n"], "KM", size["extras"], series=space))
        shots = {"kind": "quantum_shots", "feature_map": ZZ_FULL,
                 "shots": 1024, "rng_seed": 11}
        _add_config(wl, "kernels", _config("library.csv", split_seed, [
            _svm("zz_exact", {"kind": "quantum_exact", "feature_map": ZZ_FULL}),
            _svm("zz_shots", shots),
        ], pca_k=size["pca_k"]))
    elif name == "train-eval":
        _add(wl, "train", make_dataset(rng, size["n"], "TE", series=space))
        _add_config(wl, "train", _config("train.csv", split_seed, [
            _svm("qsvm_zz", {"kind": "quantum_exact", "feature_map": ZZ_LINEAR}),
            {"name": "ls", "kind": "reg_ls", **REG_COMMON},
        ]))
        probe = np.random.default_rng(FIXED_SEED)
        _add(wl, "probe_train", make_dataset(probe, 40, "PR", series=PROBE_SPACE))
        _add(wl, "probe_heldout", make_dataset(probe, 25, "PH", series=PROBE_SPACE))
        _add_config(wl, "probe", _config("probe_train.csv", 1, [
            {"name": "ls", "kind": "reg_ls", **REG_COMMON},
            {"name": "ls_activity", "kind": "reg_ls", **REG_COMMON,
             "target": "activity"},
        ]))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return wl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    wl = make_workload(args.workload, args.seed, Path(args.out), args.quick)
    for path in [*wl.csvs.values(), *wl.configs.values()]:
        print(path)


if __name__ == "__main__":
    main()
