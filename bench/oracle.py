"""The benchmark's own arithmetic, written apart from qsarq.

Correctness checks compare the program's outputs with what this module
computes from the same input files: rule-of-five filtering, activity
labels, min-max scaling, PCA, least squares on the poly2 basis and the
ZZ feature-map statevectors. None of it imports qsarq.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

FEATURE_ORDER = ("n_donors", "n_acceptors", "rotatable_bonds", "mol_weight", "logp")
_NOT_FEATURES = {"compound_id", "ec50_nm", "pec50", "label"}


@dataclass
class Table:
    """A descriptor CSV as plain arrays."""

    ids: list[str]
    names: list[str]  # feature columns in qsarq's assembly order
    X: np.ndarray
    columns: dict[str, np.ndarray]  # every numeric column by lower-case name

    def take(self, mask: np.ndarray) -> "Table":
        return Table(
            ids=[cid for cid, keep in zip(self.ids, mask) if keep],
            names=self.names,
            X=self.X[mask],
            columns={k: v[mask] for k, v in self.columns.items()},
        )


def read_table(path) -> Table:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip().lower() for h in rows[0]]
    body = rows[1:]
    columns = {
        name: np.array([float(r[j]) for r in body])
        for j, name in enumerate(header) if name != "compound_id"
    }
    canonical = [n for n in FEATURE_ORDER if n in columns]
    extras = [n for n in header if n not in _NOT_FEATURES and n not in FEATURE_ORDER]
    names = canonical + extras
    X = np.column_stack([columns[n] for n in names])
    ids = [r[header.index("compound_id")] for r in body]
    return Table(ids=ids, names=names, X=X, columns=columns)


def rule_of_five(t: Table) -> np.ndarray:
    c = t.columns
    met = ((c["mol_weight"] <= 500.0).astype(int) + (c["n_donors"] <= 5)
           + (c["n_acceptors"] <= 10) + (c["logp"] <= 5.0))
    return met >= 3


def pec50(t: Table) -> np.ndarray:
    return 9.0 - np.log10(t.columns["ec50_nm"])


def labels(t: Table, cutoff: float) -> np.ndarray:
    return np.where(pec50(t) >= cutoff, 1, -1)


def split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented split: seeded permutation, first int(n*fraction) train."""
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(n * fraction)
    return perm[:cut], perm[cut:]


def minmax(fit: np.ndarray, X: np.ndarray) -> np.ndarray:
    lo, hi = fit.min(axis=0), fit.max(axis=0)
    span = hi - lo
    out = (X - lo) / np.where(span == 0, 1.0, span)
    return np.clip(np.where(span == 0, 0.0, out), 0.0, 1.0)


def pca(fit: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Project on the top-k principal axes from an SVD, largest entry positive."""
    mean = fit.mean(axis=0)
    _, _, vt = np.linalg.svd(fit - mean, full_matrices=False)
    comps = vt[:k]
    signs = np.sign(comps[np.arange(k), np.argmax(np.abs(comps), axis=1)])
    return (X - mean) @ (comps * signs[:, None]).T


def poly2(X: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    cols = [np.ones(len(X)), *X.T]
    cols += [X[:, j] * X[:, k] for j in range(d) for k in range(j, d)]
    return np.column_stack(cols)


def ridge_fit(X: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, float]:
    """Ridge least squares on the poly2 basis via the normal equations."""
    phi = poly2(X)
    q = np.linalg.solve(phi.T @ phi + ridge * np.eye(phi.shape[1]), phi.T @ y)
    r = phi @ q - y
    return q, float(r @ r + ridge * q @ q)


def predict(q: np.ndarray, X: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(poly2(X) @ q >= threshold, 1, -1)


def _hadamard_all(states: np.ndarray, n: int) -> np.ndarray:
    """H on every qubit; the same for any order of the index bits."""
    s = states.reshape(len(states), *([2] * n))
    for axis in range(1, n + 1):
        a = np.take(s, 0, axis=axis)
        b = np.take(s, 1, axis=axis)
        s = np.stack([a + b, a - b], axis=axis) / math.sqrt(2.0)
    return s.reshape(len(states), -1)


def zz_states(X: np.ndarray, pairs: list[tuple[int, int]], reps: int) -> np.ndarray:
    """ZZ feature-map states, one row per sample, qubit q on index bit q.

    Each repetition applies H to every qubit, a phase 2*x_q on |1> of
    qubit q, and a phase 2*(pi - x_j)*(pi - x_k) on the odd-parity
    subspace of each pair (j, k).
    """
    n_samples, n = X.shape
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    phase = 2.0 * X @ bits.T
    for j, k in pairs:
        theta = 2.0 * (math.pi - X[:, j]) * (math.pi - X[:, k])
        phase += theta[:, None] * (bits[:, j] ^ bits[:, k])[None, :]
    diag = np.exp(1j * phase)
    states = np.zeros((n_samples, 1 << n), dtype=complex)
    states[:, 0] = 1.0
    for _ in range(reps):
        states = _hadamard_all(states, n)
        states *= diag
    return states


def full_pairs(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def shot_bound(p: np.ndarray, shots: int, delta: float = 1e-12) -> np.ndarray:
    """Bernstein bound on |estimate - p| for a mean of `shots` Bernoulli draws."""
    log_term = math.log(2.0 / delta)
    return np.sqrt(2.0 * p * (1.0 - p) * log_term / shots) + 2.0 * log_term / (3.0 * shots)
