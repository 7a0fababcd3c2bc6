"""Kernel SVM: SMO dual training over a precomputed Gram matrix.

The trainer minimizes f(a) = 1/2 a^T Q a - e^T a, Q_ij = y_i y_j K_ij,
over 0 <= a <= C with sum(y * a) = 0, one pair of multipliers at a time,
keeping the gradient G = Q a - e up to date (Platt 1998). The pair is
LIBSVM's second-order working set (Fan, Chen & Lin, JMLR 6, 2005): i is
the maximal violator, argmax of -y G over the multipliers that may move
up, and j, among those that may move down, gives the largest decrease
b^2 / a of f along the pair's constraint line. Curvatures a <= 0, which
shot-sampled (indefinite) Gram matrices can give, are replaced by TAU.
Training stops when m(a) - M(a), the largest violation of the optimality
conditions, is at most `tol`, or after `max_iters` updates. Ties go to
the lowest index, so training is deterministic.

`decision_values` scores many points with one cross-kernel matrix against
the support vectors; the tests check it against a reference that scores
one point entry by entry (``tests/oracles.py``). With a shot-sampled
kernel, a query's kernel row is the draws of the query's own shot stream
over the support vectors in ascending order (see `qsarq.kernels`), so its
score does not depend on the other queries it is scored with. A model is
saved as an `svm` artifact (`qsarq.artifact`), training rows included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact
from .kernels import GramMatrix, KernelConfig, cross_gram, dataset_digest

TAU = 1e-12  # curvature used when a pair's is not positive, as in LIBSVM


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    tol: float = 1e-3  # stop when m(a) - M(a) <= tol
    max_iters: int = 100_000

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SvmModel:
    alphas: np.ndarray = field(repr=False)
    bias: float
    labels: np.ndarray = field(repr=False)
    kernel_config: KernelConfig
    training_features: np.ndarray | None = field(repr=False, default=None)
    converged: bool = True
    objective_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.alphas > 0.0)[0]


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


def _dual_objective(K: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> float:
    ay = alphas * y
    return float(alphas.sum() - 0.5 * ay @ K @ ay)


def _bound_masks(alphas: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """At-bound classification with slack for clipping dust near 0 and C."""
    slack = 1e-8 * C
    return alphas <= slack, alphas >= C - slack


def _final_bias(K: np.ndarray, y: np.ndarray, alphas: np.ndarray, C: float) -> float:
    """Mean over free support vectors; midpoint of the feasible interval if none."""
    g = K @ (alphas * y)
    residual = y - g  # the bias that puts each point exactly on its margin
    at_zero, at_cap = _bound_masks(alphas, C)
    free = ~at_zero & ~at_cap
    if np.any(free):
        return float(residual[free].mean())
    lower = (at_zero & (y > 0)) | (at_cap & (y < 0))
    upper = (at_zero & (y < 0)) | (at_cap & (y > 0))
    if not np.any(lower) or not np.any(upper):
        return 0.0
    return float(0.5 * (residual[lower].max() + residual[upper].min()))


def train(gm: GramMatrix, y, cfg: SvmConfig = SvmConfig(),
          features=None) -> SvmModel:
    """Solve the dual over `gm` and return a model with the recomputed bias.

    `features` are the training rows behind the Gram matrix; they are
    retained on the model so the decision function can evaluate kernel
    values against new points. When given, they are checked against the
    Gram matrix's dataset digest. A model that exhausted the iteration
    budget is returned with `converged=False` rather than raising.
    """
    labels = _validate_training_input(gm, y)
    feats = None
    if features is not None:
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != gm.size:
            raise ValueError("features must be one row per Gram matrix row")
        if dataset_digest(feats) != gm.dataset_digest:
            raise ValueError("features do not match the Gram matrix's dataset digest")

    K = gm.entries
    C = cfg.C
    alphas = np.zeros(gm.size)
    grad = -np.ones(gm.size)  # G = Q a - e
    diag = np.diag(K)
    trace: list[float] = [_dual_objective(K, labels, alphas)]
    converged = False
    for iters in range(cfg.max_iters + 1):
        score = -labels * grad
        at_zero, at_cap = alphas <= 0.0, alphas >= C
        up = np.where(labels > 0, ~at_cap, ~at_zero)  # y a may grow
        low = np.where(labels > 0, ~at_zero, ~at_cap)  # y a may shrink
        i = int(np.argmax(np.where(up, score, -np.inf)))
        if score[i] - np.min(score, where=low, initial=np.inf) <= cfg.tol:
            converged = True
            break
        if iters == cfg.max_iters:
            break
        if iters and iters % 100 == 0:
            trace.append(_dual_objective(K, labels, alphas))
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
        grad += labels * (K[i] * (labels[i] * (new_i - alphas[i]))
                          + K[j] * (labels[j] * (new_j - alphas[j])))
        alphas[i], alphas[j] = new_i, new_j

    # multipliers within clipping slack of 0 are at the bound, not support
    # vectors; leaving that dust in would make the support set depend on
    # rounding in the Gram matrix
    alphas[_bound_masks(alphas, C)[0]] = 0.0
    bias = _final_bias(K, labels, alphas, C)
    trace.append(_dual_objective(K, labels, alphas))
    return SvmModel(
        alphas=alphas,
        bias=bias,
        labels=labels.astype(np.int64),
        kernel_config=gm.kernel_config,
        training_features=feats,
        converged=converged,
        objective_trace=trace,
    )


def _retained_features(model: SvmModel, queries: np.ndarray, ndim: int) -> np.ndarray:
    """The model's training rows, once `queries` are checked against them."""
    if model.training_features is None:
        raise ValueError("model was trained from a bare Gram matrix and retains "
                         "no feature vectors; cannot evaluate new points")
    width = model.training_features.shape[1]
    if queries.ndim != ndim or queries.shape[-1:] != (width,):
        raise ValueError(
            f"query of shape {queries.shape} does not match training dimension {width}"
        )
    return model.training_features


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Decision values of every row of X, from one cross-kernel matrix.

    Equals the per-entry reference's (``tests/oracles.py``) row by row up
    to rounding; shot-sampled kernel entries are the same draws, each
    query's own shot stream over the support vectors, so a row's value does
    not depend on the others.
    """
    queries = np.asarray(X, dtype=np.float64)
    feats = _retained_features(model, queries, ndim=2)
    sv = model.support_indices
    K = cross_gram(model.kernel_config, queries, feats[sv])
    return K @ (model.alphas[sv] * model.labels[sv]) + model.bias


def decision_value(model: SvmModel, x) -> float:
    """The decision value of one point: ``decision_values(model, [x])[0]``.

    Kept only because the benchmark's tracer wraps this name; it goes when
    the package records its own stages (ROADMAP item 3).
    """
    return float(decision_values(model, [x])[0])


def save_svm_model(model: SvmModel, path) -> None:
    """Write `model` as an `svm` artifact (see `qsarq.artifact`)."""
    feats = model.training_features
    artifact.save(path, artifact.SVM, {
        "alphas": model.alphas, "bias": model.bias, "converged": model.converged,
        "kernel_config": model.kernel_config.to_dict(), "labels": model.labels,
        "training_features": np.zeros((model.alphas.size, 0)) if feats is None else feats})


def svm_from_fields(f: dict) -> SvmModel:
    """The model in the checked fields of an `svm` artifact."""
    if not np.all(np.isin(f["labels"], (-1, 1))):
        raise ValueError("labels must be +1 or -1")
    feats = f["training_features"]
    return SvmModel(f["alphas"], float(f["bias"]), f["labels"].astype(np.int64),
                    KernelConfig.from_dict(f["kernel_config"]),
                    feats if feats.shape[1] else None, f["converged"])


def load_svm_model(path) -> SvmModel:
    return artifact.load(path, {artifact.SVM: svm_from_fields})
