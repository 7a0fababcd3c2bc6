"""Golden reports: `qsarq run` on two small seeded configs over `write_csv`'s
data reproduces the committed ``tests/golden/<config>/report.txt`` byte for
byte, and its ``report.json`` key for key, each ``train_loss`` to 1e-12
relative: other BLAS kernels round that sum in its last digits (README,
"Reproducibility"), and no other number of a report.

A change that moves a reported number edits these checks. Regenerate the
files from the repository's root with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which numbers moved, and why.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from qsarq.cli import main
from test_cli import MODELS, SHOT_ROW, write_csv, write_config

GOLDEN = Path(__file__).parent / "golden"
# write_config's overrides of each config
CONFIGS = {
    # CI's smoke config: its console-script step compares report.txt with this golden
    "smoke": {"models": [*MODELS, SHOT_ROW]},
    "lipinski_pca": {"lipinski_filter": True, "pca_k": 3, "models": [
        {"name": "linear", "kind": "svm", "kernel": {"kind": "linear"}},
        {"name": "qcustom", "kind": "svm", "kernel": {
            "kind": "quantum_exact",
            "feature_map": {"family": "custom", "entanglement": "full", "reps": 2}}},
        {"name": "anneal", "kind": "reg_anneal", "basis": "poly2", "iterations": 300},
    ]},
}


def run_config(name: str, where: Path) -> Path:
    """Run config `name` over `write_csv`'s data in directory `where`: the output directory."""
    write_csv(where / "data.csv")
    config = write_config(where / "exp.yaml", **CONFIGS[name])
    assert main(["run", "--config", str(config), "--out", str(where / "out"), "--quiet"]) == 0
    return where / "out"


def json_differences(new, old, path="report") -> list[str]:
    """Where report `new` differs from golden `old`: every key, type and value
    must be equal, a `train_loss` only to 1e-12 relative."""
    if isinstance(old, dict) and isinstance(new, dict):
        if new.keys() != old.keys():
            return [f"{path}: keys {sorted(new)}, golden {sorted(old)}"]
        return [d for key in old for d in json_differences(new[key], old[key], f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(new) == len(old):
        return [d for i, (a, b) in enumerate(zip(new, old))
                for d in json_differences(a, b, f"{path}[{i}]")]
    if path.endswith(".train_loss") and type(new) is type(old) is float:
        same = math.isclose(new, old, rel_tol=1e-12, abs_tol=0.0)
    else:
        same = type(new) is type(old) and new == old
    return [] if same else [f"{path}: {new!r}, golden {old!r}"]


@pytest.mark.parametrize("name", CONFIGS)
def test_report_matches_its_golden(tmp_path, name):
    out, golden = run_config(name, tmp_path), GOLDEN / name
    assert (out / "report.txt").read_bytes() == (golden / "report.txt").read_bytes()
    new, old = (json.loads((d / "report.json").read_text(encoding="utf-8"))
                for d in (out, golden))
    assert json_differences(new, old) == []


def test_only_a_train_loss_may_differ_and_only_by_rounding():
    old = {"rows": [{"accuracy": 0.75, "detail": {"train_loss": 5.653568174190043}}]}
    rounded = {"rows": [{"accuracy": 0.75, "detail": {"train_loss": 5.6535681741900445}}]}
    assert json_differences(rounded, old) == []
    moved = {"rows": [{"accuracy": 1, "detail": {"train_loss": 5.65356817425}}]}
    assert json_differences(moved, old) == [
        "report.rows[0].accuracy: 1, golden 0.75",
        "report.rows[0].detail.train_loss: 5.65356817425, golden 5.653568174190043"]


if __name__ == "__main__":
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_config(name, Path(tmp))
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for file in ("report.txt", "report.json"):
                shutil.copyfile(out / file, GOLDEN / name / file)
