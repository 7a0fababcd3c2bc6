"""Kernel SVM: SMO dual training over a precomputed Gram matrix.

The trainer minimizes f(a) = 1/2 a^T Q a - e^T a, Q_ij = y_i y_j K_ij,
over 0 <= a <= C with sum(y * a) = 0, one pair of multipliers at a time
(Platt 1998). Its state is the scores s = -y G of the gradient G = Q a - e
(s_i = y_i - sum_j a_j y_j K_ij) and the sets `up` and `low` of the
multipliers whose y a may grow and shrink; as y = +-1, moving a_i and a_j
takes K_i y_i da_i + K_j y_j da_j from s and changes the sets at i and j
only. The pair is LIBSVM's second-order working set (Fan, Chen & Lin,
JMLR 6, 2005): i has the largest score in `up`, and j, in `low`, gives
the largest decrease b^2 / a of f along the pair's constraint line.
Curvatures a <= 0, which shot-sampled (indefinite) Gram matrices can give,
are replaced by TAU, so SMO converges on them with no diagonal jitter; a
config's `jitter` goes on the diagonal of a copy, not into the Gram matrix.
Training stops when the largest score in `up` is at most `tol` above the
smallest in `low`, or after `max_iters` updates; ties go to the lowest
index, so training is deterministic. Then clipping dust is snapped onto
its bound, the scores following, and the bias is LIBSVM's rule on the
scores (Chang & Lin, ACM TIST 2, 2011).

`solve_dual` runs SMO on a Gram matrix; `train` keeps what the decision
function f(x) = sum_i a_i y_i K(x_i, x) + b reads: the support vectors
(the matrix's rows with a_i > 0, in training order) and their dual
coefficients a_i y_i. `decision_values` scores many points with one
cross-kernel matrix against the support vectors: each point draws from its
own shot stream, and the other points change only the rounding of its exact
kernel values and of the fidelities it draws at (`kernels`). A model is
saved as an `svm` artifact (`qsarq.artifact`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact
from .kernels import GramMatrix, KernelConfig, cross_gram

TAU = 1e-12  # curvature used when a pair's is not positive, as in LIBSVM
MAX_SVM_ITERS = 1_000_000  # a tol never reached spends it all: ~50 s on 100 rows


@dataclass
class SvmConfig:
    """SMO settings, inherited by an svm config row (`pipeline.SvmEntry`)."""

    C: float = 1.0
    tol: float = 1e-3  # stop when m(a) - M(a) <= tol
    max_iters: int = 100_000
    jitter: float = 0.0  # added to the Gram matrix's diagonal for the solve

    def __post_init__(self):
        if not self.C > 0:  # NaN included
            raise ValueError("C must be > 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not 1 <= self.max_iters <= MAX_SVM_ITERS:
            bound = ">= 1" if self.max_iters < 1 else f"<= {MAX_SVM_ITERS}"
            raise ValueError(f"max_iters must be {bound}, got {self.max_iters}")
        if not self.jitter >= 0:
            raise ValueError("jitter must be >= 0")


@dataclass
class SvmModel:
    support_vectors: np.ndarray = field(repr=False)  # m x d
    dual_coef: np.ndarray = field(repr=False)  # m values a_i y_i
    bias: float
    kernel_config: KernelConfig
    converged: bool = True


def _validate_training_input(gm: GramMatrix, y) -> np.ndarray:
    labels = np.asarray(y)
    if labels.ndim != 1 or labels.size != gm.size:
        raise ValueError(f"expected {gm.size} labels, got shape {labels.shape}")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be +1 or -1")
    if np.all(labels == labels[0]):
        raise ValueError("training requires both classes to be present")
    if not np.all(np.isfinite(gm.entries)):
        raise ValueError("Gram matrix contains non-finite entries")
    return labels.astype(np.float64)


def _bound_masks(alphas: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """At-bound classification with slack for clipping dust near C and near 0,
    where it also scales with the largest multiplier (tiny for kernels with large entries)."""
    return alphas <= 1e-8 * min(C, alphas.max(initial=0.0)), alphas >= C - 1e-8 * C


def _masks(labels, alphas, C) -> tuple[np.ndarray, np.ndarray]:
    """The sets `up` (y a may grow) and `low` (y a may shrink), at the exact bounds 0 and C."""
    positive, above_zero, below_cap = labels > 0, alphas > 0.0, alphas < C
    return np.where(positive, below_cap, above_zero), np.where(positive, above_zero, below_cap)


def solve_dual(gm: GramMatrix, y, cfg: SvmConfig) -> tuple[np.ndarray, float, bool]:
    """SMO over `gm`, `cfg.jitter` on its diagonal: (multipliers, bias, converged).

    After the loop, multipliers within `_bound_masks` slack of 0 or C snap
    onto that bound, and the scores take the loop's update for the move.
    The bias is the mean score over free multipliers; if none is free, the
    midpoint of the largest score in `up` and the smallest in `low`; else 0.
    An exhausted iteration budget gives `converged=False`, not an error.
    """
    labels = _validate_training_input(gm, y)
    K = gm.entries
    if cfg.jitter > 0:  # on a copy: the Gram matrix stays the kernel's
        K = K.copy()
        K[np.diag_indices(gm.size)] += cfg.jitter
    C = cfg.C
    alphas = np.zeros(gm.size)
    score = labels.copy()  # -y G at a = 0, where G = -e
    up, low = _masks(labels, alphas, C)
    diag = np.diag(K)
    converged = False
    for iters in range(cfg.max_iters + 1):
        i = int(np.argmax(np.where(up, score, -np.inf)))
        if score[i] - np.min(score, where=low, initial=np.inf) <= cfg.tol:
            converged = True
            break
        if iters == cfg.max_iters:
            break
        gap = score[i] - score
        curv = diag[i] + diag - 2.0 * K[i]
        curv[curv <= 0.0] = TAU
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curv, -np.inf)))
        # move y_i a_i up and y_j a_j down by the same step, clipped where
        # either multiplier reaches its bound; a multiplier that reaches
        # it is set to the bound exactly
        end_i = C if labels[i] > 0 else 0.0
        end_j = 0.0 if labels[j] > 0 else C
        room_i, room_j = abs(end_i - alphas[i]), abs(end_j - alphas[j])
        step = min(gap[j] / curv[j], room_i, room_j)
        new_i = end_i if step >= room_i else alphas[i] + labels[i] * step
        new_j = end_j if step >= room_j else alphas[j] - labels[j] * step
        score -= (K[i] * (labels[i] * (new_i - alphas[i]))
                  + K[j] * (labels[j] * (new_j - alphas[j])))
        alphas[i], alphas[j] = new_i, new_j
        for k in (i, j):  # as `_masks` gives them
            grows, shrinks = alphas[k] < C, alphas[k] > 0.0
            up[k], low[k] = (grows, shrinks) if labels[k] > 0 else (shrinks, grows)

    # clipping dust left in would make the support set depend on rounding in K
    at_zero, at_cap = _bound_masks(alphas, C)
    snapped = np.where(at_zero, 0.0, np.where(at_cap, C, alphas))
    moved = np.flatnonzero(snapped != alphas)
    score -= (labels[moved] * (snapped[moved] - alphas[moved])) @ K[moved]
    alphas = snapped
    up, low = _masks(labels, alphas, C)
    free = up & low
    if np.any(free):
        bias = float(score[free].mean())
    elif np.any(up) and np.any(low):
        bias = float(0.5 * (score[up].max() + score[low].min()))
    else:
        bias = 0.0
    return alphas, bias, converged


def train(gm: GramMatrix, y, cfg: SvmConfig) -> SvmModel:
    """Solve the dual over `gm` and keep the support set of the solution: the
    rows of `gm` with a nonzero multiplier, in order, become the model's
    support vectors. A Gram file's rows are checked against the data where
    the file is read (`qsarq train --gram`)."""
    alphas, bias, converged = solve_dual(gm, y, cfg)
    sv = alphas > 0.0
    return SvmModel(gm.rows[sv], alphas[sv] * np.asarray(y, dtype=np.float64)[sv], bias,
                    gm.kernel_config, converged)


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Decision values of every row of X, from one cross-kernel matrix.

    Equals the per-entry reference's (``tests/oracles.py``) row by row up
    to rounding. Each query's shot-sampled entries are draws of its own shot
    stream over the support vectors, made at fidelities that equal the
    query's fidelities alone up to rounding.
    """
    return cross_gram(model.kernel_config, X, model.support_vectors) @ model.dual_coef + model.bias


def decision_value(model: SvmModel, x) -> float:
    """The decision value of one point: ``decision_values(model, [x])[0]``.

    Kept only because the benchmark's tracer wraps this name; it goes when
    the package records its own stages (ROADMAP item 1).
    """
    return float(decision_values(model, [x])[0])


def save_svm_model(model: SvmModel, path) -> None:
    """Write `model` as an `svm` artifact (see `qsarq.artifact`)."""
    artifact.save(path, artifact.SVM, {
        "bias": model.bias, "converged": model.converged, "dual_coef": model.dual_coef,
        "kernel_config": model.kernel_config.to_dict(),
        "support_vectors": model.support_vectors})


def svm_from_fields(f: dict) -> SvmModel:
    """The model in the checked fields of an `svm` artifact."""
    return SvmModel(f["support_vectors"], f["dual_coef"], float(f["bias"]),
                    KernelConfig.from_dict(f["kernel_config"]), f["converged"])


def load_svm_model(path) -> SvmModel:
    return artifact.load(path, {artifact.SVM: svm_from_fields})
