"""Descriptor ingestion and preprocessing.

Raw compound records arrive as CSV rows of precomputed molecular
descriptors. This module turns them into model-ready arrays: the
activity transform pEC50 = -log10(EC50 in molar), rule-of-five
filtering, min-max scaling fitted on training data only, and PCA
via eigendecomposition of the sample covariance.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# descriptor columns recognized by name (case-insensitive); anything else
# numeric is carried along as an extra descriptor
_CANONICAL = {
    "compound_id": "compound_id",
    "ec50_nm": "ec50_nM",
    "pec50": "pec50",
    "label": "label",
    "n_donors": "n_donors",
    "n_acceptors": "n_acceptors",
    "rotatable_bonds": "rotatable_bonds",
    "mol_weight": "mol_weight",
    "logp": "logp",
}

# feature assembly order for the canonical descriptors
FEATURE_ORDER = ("n_donors", "n_acceptors", "rotatable_bonds", "mol_weight", "logp")


@dataclass
class DescriptorRow:
    """One compound: descriptors plus optional activity and label."""

    compound_id: str
    ec50_nM: float | None = None
    pec50: float | None = None
    n_donors: float | None = None
    n_acceptors: float | None = None
    rotatable_bonds: float | None = None
    mol_weight: float | None = None
    logp: float | None = None
    extras: dict[str, float] = field(default_factory=dict)
    label: int | None = None

    def __post_init__(self):
        if self.ec50_nM is not None and not (
            math.isfinite(self.ec50_nM) and self.ec50_nM > 0
        ):
            raise ValueError(
                f"{self.compound_id}: ec50_nM must be positive, got {self.ec50_nM}"
            )
        if self.label is not None and self.label not in (-1, 1):
            raise ValueError(f"{self.compound_id}: label must be +1 or -1")


def pec50(ec50_nM: float) -> float:
    """-log10(EC50 * 1e-9) for an EC50 given in nanomolar."""
    if not (isinstance(ec50_nM, (int, float)) and math.isfinite(ec50_nM)) or ec50_nM <= 0:
        raise ValueError(f"ec50_nM must be a positive finite number, got {ec50_nM!r}")
    return 9.0 - math.log10(ec50_nM)


def lipinski_pass(row: DescriptorRow) -> bool:
    """Rule of five: at least 3 of weight<=500, donors<=5, acceptors<=10, logP<=5."""
    for name in ("mol_weight", "n_donors", "n_acceptors", "logp"):
        if getattr(row, name) is None:
            raise ValueError(f"{row.compound_id}: missing {name} for rule-of-five check")
    met = (
        int(row.mol_weight <= 500.0)
        + int(row.n_donors <= 5)
        + int(row.n_acceptors <= 10)
        + int(row.logp <= 5.0)
    )
    return met >= 3


def label_from_activity(p: float, cutoff: float) -> int:
    """+1 (active) when pEC50 reaches the cutoff, else -1."""
    return 1 if p >= cutoff else -1


@dataclass
class ScalerModel:
    """Per-feature min and max from the fitting set."""

    mins: np.ndarray = field(repr=False)
    maxs: np.ndarray = field(repr=False)


def minmax_fit(X) -> ScalerModel:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("scaler fit needs a 2-D matrix with at least one row")
    mins = arr.min(axis=0)
    maxs = arr.max(axis=0)
    degenerate = np.nonzero(maxs == mins)[0]
    if degenerate.size:
        warnings.warn(
            f"constant feature column(s) {degenerate.tolist()} scale to 0",
            stacklevel=2,
        )
    return ScalerModel(mins=mins, maxs=maxs)


def minmax_transform(model: ScalerModel, X) -> np.ndarray:
    """(x - min) / (max - min), clamped to [0, 1]; constant columns map to 0."""
    arr = np.asarray(X, dtype=np.float64)
    span = model.maxs - model.mins
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (arr - model.mins) / safe
    scaled = np.where(span == 0.0, 0.0, scaled)
    return np.clip(scaled, 0.0, 1.0)


def minmax_fit_transform(X) -> tuple[ScalerModel, np.ndarray]:
    model = minmax_fit(X)
    return model, minmax_transform(model, X)


def minmax_inverse(model: ScalerModel, V) -> np.ndarray:
    """min + v * (max - min); inverse of the transform on the fitted range."""
    arr = np.asarray(V, dtype=np.float64)
    return model.mins + arr * (model.maxs - model.mins)


@dataclass
class PcaModel:
    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)  # (k, d), orthonormal rows
    explained_variance: np.ndarray = field(repr=False)  # descending


def pca_fit(X, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance of mean-centered X.

    Each component's largest-magnitude entry is made positive so the
    decomposition is deterministic.
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("PCA fit needs at least two rows")
    d = arr.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / (arr.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comps = eigvecs[:, order].T
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=comps,
        explained_variance=eigvals[order],
    )


def pca_transform(model: PcaModel, X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    return (arr - model.mean) @ model.components.T


def _parse_float(raw: str, column: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{where}: column {column!r} has non-numeric value {raw!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{where}: column {column!r} has non-finite value {raw!r}")
    return value


def read_descriptor_csv(path) -> list[DescriptorRow]:
    """Parse a descriptor CSV (comma separator, decimal point, UTF-8)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        header_map = {}
        for name in reader.fieldnames:
            canonical = _CANONICAL.get(name.strip().lower())
            header_map[name] = canonical if canonical else name.strip()
        if "compound_id" not in header_map.values():
            raise ValueError(f"{path}: required column compound_id not found")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if None in record:  # DictReader files surplus fields under the key None
                n_fields = len(reader.fieldnames) + len(record[None])
                raise ValueError(f"{path}: line {lineno} has {n_fields} fields, "
                                 f"the header has {len(reader.fieldnames)}")
            known: dict = {}
            extras: dict[str, float] = {}
            where = f"{path}: line {lineno}"
            for raw_name, value in record.items():
                if value is None or value.strip() == "":
                    continue
                name = header_map[raw_name]
                if name == "compound_id":
                    known[name] = value.strip()
                elif name == "label":
                    label = _parse_float(value, name, where)
                    if label not in (-1.0, 1.0):
                        raise ValueError(
                            f"{path}: line {lineno} has label {value.strip()!r}; "
                            "labels must be +1 or -1"
                        )
                    known[name] = int(label)
                elif name in _CANONICAL.values():
                    known[name] = _parse_float(value, name, where)
                else:
                    extras[name] = _parse_float(value, name, where)
            if "compound_id" not in known:
                raise ValueError(f"{path}: line {lineno} is missing compound_id")
            rows.append(DescriptorRow(extras=extras, **known))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def apply_lipinski_filter(rows: list[DescriptorRow]) -> list[DescriptorRow]:
    """Drop rows failing the rule of five, logging each dropped compound."""
    kept = []
    for row in rows:
        if lipinski_pass(row):
            kept.append(row)
        else:
            logger.info("rule-of-five filter dropped compound %s", row.compound_id)
    return kept


def feature_matrix(rows: list[DescriptorRow]) -> tuple[np.ndarray, list[str]]:
    """Assemble the descriptor matrix and column names.

    Canonical descriptors present on every row come first, in a fixed
    order, followed by extra columns in their order of first appearance.
    """
    if not rows:
        raise ValueError("no rows to assemble")
    names = [
        name for name in FEATURE_ORDER
        if all(getattr(r, name) is not None for r in rows)
    ]
    extra_names: list[str] = []
    for row in rows:
        for name in row.extras:
            if name not in extra_names:
                extra_names.append(name)
    for name in extra_names:
        missing = [r.compound_id for r in rows if name not in r.extras]
        if missing:
            raise ValueError(
                f"extra descriptor {name!r} missing for compound(s) {missing[:3]}"
            )
    if not names and not extra_names:
        raise ValueError("rows carry no descriptor columns usable as features")
    data = np.empty((len(rows), len(names) + len(extra_names)))
    for i, row in enumerate(rows):
        data[i, :len(names)] = [getattr(row, n) for n in names]
        data[i, len(names):] = [row.extras[n] for n in extra_names]
    return data, names + extra_names


def activity(row: DescriptorRow) -> float | None:
    """The row's pEC50: the stored value, else one derived from EC50, else None."""
    if row.pec50 is not None:
        return row.pec50
    return pec50(row.ec50_nM) if row.ec50_nM is not None else None


def resolve_labels(rows: list[DescriptorRow], cutoff: float | None = None) -> np.ndarray:
    """Class labels per row: stored label, else thresholded pEC50 activity."""
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if row.label is not None:
            labels[i] = row.label
            continue
        p = activity(row)
        if p is None:
            raise ValueError(
                f"{row.compound_id}: no label and no activity measurement"
            )
        if cutoff is None:
            raise ValueError(
                "activity_cutoff is required to derive labels from pEC50 "
                f"(compound {row.compound_id})"
            )
        labels[i] = label_from_activity(p, cutoff)
    return labels


def write_feature_csv(path, compound_ids, X, names, labels=None) -> None:
    """Write a feature matrix back out in the descriptor CSV schema."""
    arr = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["compound_id", *names]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, cid in enumerate(compound_ids):
            record = [cid, *(f"{v:.17g}" for v in arr[i])]
            if labels is not None:
                record.append(str(int(labels[i])))
            writer.writerow(record)
