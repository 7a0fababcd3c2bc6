"""Descriptor ingestion and preprocessing.

A descriptor CSV holds one compound per row: an id, precomputed
molecular descriptors, and optionally a +-1 label and an activity
measurement. `read_descriptor_csv` reads it into one `DescriptorTable`
of columns, and every later step works on whole columns: the activity
transform pEC50 = -log10(EC50 in molar), the rule-of-five mask, label
resolution, the feature matrix, min-max scaling fitted on training
data only, and PCA via eigendecomposition of the sample covariance.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import accepts

# feature assembly order for the canonical descriptors
FEATURE_ORDER = ("n_donors", "n_acceptors", "rotatable_bonds", "mol_weight", "logp")
# columns recognized by name, case-insensitive, keyed by lower case; any
# other column is an extra descriptor
_CANONICAL = {name.lower(): name
              for name in ("compound_id", "ec50_nM", "pec50", "label", *FEATURE_ORDER)}
_RULE_OF_FIVE = {"mol_weight": 500.0, "n_donors": 5.0, "n_acceptors": 10.0, "logp": 5.0}


@dataclass(frozen=True)
class DescriptorTable:
    """A descriptor CSV as columns, one entry per compound.

    `descriptors` maps each descriptor column of the file, in header
    order, to a float64 column, and holds an all-NaN column for each name
    of FEATURE_ORDER the file lacks. `label` holds +1, -1 or NaN, and
    `activity` the pEC50: the stored value, else one derived from EC50,
    else NaN. A present value is always finite, so NaN means blank.
    """

    ids: np.ndarray = field(repr=False)  # str objects
    descriptors: dict[str, np.ndarray] = field(repr=False)
    label: np.ndarray = field(repr=False)
    activity: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.ids)


def pec50(ec50_nM: float) -> float:
    """-log10(EC50 * 1e-9) for an EC50 given in nanomolar."""
    if not accepts(float, ec50_nM) or ec50_nM <= 0:
        raise ValueError(f"ec50_nM must be a positive finite number, got {ec50_nM!r}")
    return 9.0 - math.log10(ec50_nM)


def label_from_activity(p, cutoff: float) -> np.ndarray:
    """+1 (active) where pEC50 reaches the cutoff, else -1; elementwise on arrays."""
    return np.where(np.asarray(p) >= cutoff, 1, -1)


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


@dataclass
class PcaModel:
    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)  # (k, d), orthonormal rows


def pca_fit(X, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance of mean-centered X.

    Components come in descending order of eigenvalue, the variance of
    their column of `pca_transform(model, X)`. Each component's
    largest-magnitude entry is made positive so the decomposition is
    deterministic.
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
    return PcaModel(mean=mean, components=comps)


def pca_transform(model: PcaModel, X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    return (arr - model.mean) @ model.components.T


def _parse_float(raw: str, column: str, path, line: int) -> float:
    """One cell: NaN when blank, else a finite number (+1 or -1 for a label)."""
    if not raw.strip():
        return math.nan
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: column {column!r} has "
                         f"non-numeric value {raw!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: column {column!r} has "
                         f"non-finite value {raw!r}")
    if column == "label" and value not in (-1.0, 1.0):
        raise ValueError(f"{path}: line {line} has label {raw.strip()!r}; "
                         "labels must be +1 or -1")
    return value


def read_descriptor_csv(path) -> DescriptorTable:
    """Read a descriptor CSV (comma separator, decimal point, UTF-8) into a table.

    A leading byte-order mark is skipped, and the first record that is not
    a blank line is the header. Line numbers are physical lines of the file:
    a record's number is the line it starts on, so blank lines and the
    continuation lines of a quoted multi-line field are counted. Rows
    are checked for surplus fields, then the cells column by column in
    header order, then the compound ids, each present and none repeated,
    and the EC50 values; the first fault found is raised.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            records, lines = [], []  # each record and the line it starts on
            start = 1
            for record in reader:
                if record:  # a blank line holds no record
                    records.append(record)
                    lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: missing header row")
    header, records, lines = records[0], records[1:], lines[1:]
    names: dict[str, str] = {}  # canonical name -> header
    for raw in header:
        name = _CANONICAL.get(raw.strip().lower(), raw.strip())
        if name in names:
            raise ValueError(f"{path}: columns {names[name]!r} and {raw!r} "
                             f"both read as {name!r}")
        names[name] = raw
    if "compound_id" not in names:
        raise ValueError(f"{path}: required column compound_id not found")
    if not records:
        raise ValueError(f"{path}: no data rows")
    for line, record in zip(lines, records):
        if len(record) > len(header):
            raise ValueError(f"{path}: line {line} has {len(record)} fields, "
                             f"the header has {len(header)}")
    cells = list(itertools.zip_longest(*records, fillvalue=""))
    cells += [("",) * len(records)] * (len(header) - len(cells))
    columns = {name: np.array([_parse_float(raw, name, path, line)
                               for line, raw in zip(lines, column)])
               for name, column in zip(names, cells) if name != "compound_id"}
    ids = np.array([raw.strip() for raw in cells[list(names).index("compound_id")]],
                   dtype=object)
    if (ids == "").any():
        raise ValueError(f"{path}: line {lines[(ids == '').argmax()]} is missing compound_id")
    first_line: dict[str, int] = {}
    for line, cid in zip(lines, ids):
        if first_line.setdefault(cid, line) != line:
            raise ValueError(f"{path}: line {line} repeats compound_id {cid!r} "
                             f"of line {first_line[cid]}")
    for name in (*FEATURE_ORDER, "label", "pec50", "ec50_nM"):
        columns.setdefault(name, np.full(len(records), np.nan))
    ec50 = columns["ec50_nM"]
    if (ec50 <= 0.0).any():
        row = (ec50 <= 0.0).argmax()
        raise ValueError(f"{path}: line {lines[row]}: {ids[row]}: ec50_nM must be "
                         f"positive, got {float(ec50[row])}")
    activity = columns["pec50"].copy()
    derive = np.isnan(activity) & ~np.isnan(ec50)
    # pec50's math.log10, one value at a time: numpy's SIMD log10 may round differently
    activity[derive] = [pec50(v) for v in ec50[derive].tolist()]
    descriptors = {name: c for name, c in columns.items()
                   if name in FEATURE_ORDER or name not in _CANONICAL.values()}
    return DescriptorTable(ids, descriptors, columns["label"], activity)


def apply_lipinski_filter(table: DescriptorTable) -> DescriptorTable:
    """Drop compounds failing the rule of five.

    A compound passes when it meets at least 3 of weight <= 500,
    donors <= 5, acceptors <= 10 and logP <= 5.
    """
    values = np.column_stack([table.descriptors[name] for name in _RULE_OF_FIVE])
    missing = np.isnan(values)
    if missing.any():
        row, col = np.argwhere(missing)[0]
        raise ValueError(f"{table.ids[row]}: missing {list(_RULE_OF_FIVE)[col]} "
                         "for rule-of-five check")
    keep = (values <= np.array(list(_RULE_OF_FIVE.values()))).sum(axis=1) >= 3
    return DescriptorTable(table.ids[keep], {n: c[keep] for n, c in table.descriptors.items()},
                           table.label[keep], table.activity[keep])


def feature_matrix(table: DescriptorTable) -> tuple[np.ndarray, list[str]]:
    """Assemble the descriptor matrix and column names.

    Canonical descriptors present on every row come first, in a fixed
    order, followed by the extra columns present on some row, in header
    order; such an extra column must be present on every row.
    """
    if not len(table):
        raise ValueError("no rows to assemble")
    blank = {name: np.isnan(c) for name, c in table.descriptors.items()}
    names = [name for name in FEATURE_ORDER if not blank[name].any()]
    extra_names = [name for name in table.descriptors
                   if name not in FEATURE_ORDER and not blank[name].all()]
    for name in extra_names:
        if blank[name].any():
            raise ValueError(f"extra descriptor {name!r} missing for compound(s) "
                             f"{table.ids[blank[name]][:3].tolist()}")
    if not names and not extra_names:
        raise ValueError("rows carry no descriptor columns usable as features")
    names += extra_names
    return np.column_stack([table.descriptors[name] for name in names]), names


def resolve_labels(table: DescriptorTable, cutoff: float | None = None,
                   cutoff_name: str = "activity_cutoff") -> np.ndarray:
    """Class labels per compound: stored label, else thresholded pEC50 activity.

    A missing cutoff that a compound needs is named `cutoff_name` in the error.
    """
    unlabelled = np.isnan(table.label)
    bare = unlabelled & np.isnan(table.activity)
    first = unlabelled.argmax()  # of several faults, this compound's is named
    if cutoff is None and unlabelled.any() and not bare[first]:
        raise ValueError(f"{cutoff_name} is required to derive labels from pEC50 "
                         f"(compound {table.ids[first]})")
    if bare.any():
        raise ValueError(f"{table.ids[bare.argmax()]}: no label and no activity measurement")
    # without a cutoff, every compound is labelled by now
    derived = 0 if cutoff is None else label_from_activity(table.activity, cutoff)
    return np.where(unlabelled, derived, table.label).astype(np.int64)


def write_feature_csv(path, compound_ids, X, names, labels) -> None:
    """Write a feature matrix and its +-1 labels back out in the descriptor CSV schema."""
    arr = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_id", *names, "label"])
        for i, cid in enumerate(compound_ids):
            writer.writerow([cid, *(f"{v:.17g}" for v in arr[i]), str(int(labels[i]))])
