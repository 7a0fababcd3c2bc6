"""Kernel SVM: SMO dual training over a precomputed Gram matrix.

The trainer maximizes the usual dual objective under the box and
equality constraints, updating one pair of multipliers at a time with
analytic clipping. Pair selection is deterministic: scan for the first
KKT violator, pick the partner with the largest error gap, break ties
by lowest index. Indefinite (shot-sampled) Gram matrices are handled by
comparing the objective at the clipping endpoints.

`decision_values` scores many points with one cross-kernel matrix against
the support vectors; `decision_value` scores one point entry by entry and
is its reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .kernels import GramMatrix, KernelConfig, cross_gram, dataset_digest, kernel_value

FORMAT_TAG = "qsarq-svm v1"


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    tol: float = 1e-3  # KKT violation tolerance
    eps: float = 1e-12  # minimum multiplier step
    max_passes: int = 10
    max_iters: int = 100_000

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


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


def _kkt_violations(F: np.ndarray, y: np.ndarray, alphas: np.ndarray,
                    C: float, tol: float) -> np.ndarray:
    margin = y * (F - y)  # y_i * E_i = y_i f_i - 1
    at_zero, at_cap = _bound_masks(alphas, C)
    return ((margin < -tol) & ~at_cap) | ((margin > tol) & ~at_zero)


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
    n = gm.size
    C, tol, eps = cfg.C, cfg.tol, cfg.eps
    bound_slack = 1e-8 * C
    alphas = np.zeros(n)
    b = 0.0
    F = np.zeros(n)  # running decision values, kept incrementally
    trace: list[float] = [_dual_objective(K, labels, alphas)]
    iters = 0

    def take_step(i: int, j: int) -> bool:
        nonlocal b, F
        if i == j:
            return False
        a_i, a_j = alphas[i], alphas[j]
        y_i, y_j = labels[i], labels[j]
        s = y_i * y_j
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(C, C + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - C), min(C, a_i + a_j)
        if lo >= hi:
            return False
        e_i, e_j = F[i] - y_i, F[j] - y_j
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta > 0.0:
            a_j_new = a_j + y_j * (e_i - e_j) / eta
            a_j_new = min(max(a_j_new, lo), hi)
        else:
            # objective change along the constraint line at the endpoints
            gain_lo = y_j * (e_i - e_j) * (lo - a_j) - 0.5 * eta * (lo - a_j) ** 2
            gain_hi = y_j * (e_i - e_j) * (hi - a_j) - 0.5 * eta * (hi - a_j) ** 2
            if gain_lo > gain_hi + eps:
                a_j_new = lo
            elif gain_hi > gain_lo + eps:
                a_j_new = hi
            else:
                return False
        if abs(a_j_new - a_j) < eps:
            return False
        # analytically in [0, C]; clamp the last-ulp rounding drift
        a_i_new = min(max(a_i + s * (a_j - a_j_new), 0.0), C)
        d_i, d_j = a_i_new - a_i, a_j_new - a_j
        b1 = b - e_i - y_i * d_i * K[i, i] - y_j * d_j * K[i, j]
        b2 = b - e_j - y_i * d_i * K[i, j] - y_j * d_j * K[j, j]
        if 0.0 < a_i_new < C:
            b_new = b1
        elif 0.0 < a_j_new < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        F += y_i * d_i * K[:, i] + y_j * d_j * K[:, j] + (b_new - b)
        alphas[i], alphas[j] = a_i_new, a_j_new
        b = b_new
        return True

    hit_budget = False
    converged = False
    while True:
        passes_without_update = 0
        updates_this_round = 0
        while passes_without_update < cfg.max_passes:
            changed = 0
            found_violator = False
            for i in range(n):
                if iters >= cfg.max_iters:
                    hit_budget = True
                    break
                margin = labels[i] * (F[i] - labels[i])
                if not ((margin < -tol and alphas[i] < C - bound_slack)
                        or (margin > tol and alphas[i] > bound_slack)):
                    continue
                found_violator = True
                gaps = np.abs((F[i] - labels[i]) - (F - labels))
                gaps[i] = -1.0
                # partners in decreasing error-gap order, ties by lowest
                # index; fall through when a pair cannot move
                for j in np.argsort(-gaps, kind="stable"):
                    if take_step(i, int(j)):
                        changed += 1
                        iters += 1
                        if iters % 100 == 0:
                            trace.append(_dual_objective(K, labels, alphas))
                        break
            if hit_budget or not found_violator:
                break
            passes_without_update = passes_without_update + 1 if changed == 0 else 0
            updates_this_round += changed
        # the reported bias is recomputed from the multipliers; resume the
        # sweeps when it exposes violations the running bias hid
        bias = _final_bias(K, labels, alphas, C)
        F_final = K @ (alphas * labels) + bias
        if not np.any(_kkt_violations(F_final, labels, alphas, C, tol)):
            converged = True
            break
        if hit_budget or updates_this_round == 0:
            break
        b = bias
        F = F_final.copy()

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


def decision_value(model: SvmModel, x) -> float:
    """sum_i alpha_i y_i K(x_i, x) + b, one kernel entry per support vector."""
    vec = np.asarray(x, dtype=np.float64)
    feats = _retained_features(model, vec, ndim=1)
    total = 0.0
    for i in model.support_indices:  # ascending index order, deterministic sum
        k = kernel_value(model.kernel_config, feats[i], vec)
        total += float(model.alphas[i]) * float(model.labels[i]) * k
    return total + model.bias


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Decision values of every row of X, from one cross-kernel matrix.

    Equals ``decision_value`` row by row up to rounding; shot-sampled
    kernel entries are the same draws.
    """
    queries = np.asarray(X, dtype=np.float64)
    feats = _retained_features(model, queries, ndim=2)
    sv = model.support_indices
    K = cross_gram(model.kernel_config, queries, feats[sv])
    return K @ (model.alphas[sv] * model.labels[sv]) + model.bias


def predict(model: SvmModel, x) -> int:
    """Sign of the decision value; an exact zero counts as +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def save_svm_model(model: SvmModel, path) -> None:
    if model.training_features is None:
        feats = np.zeros((model.alphas.size, 0))
    else:
        feats = model.training_features
    lines = [
        FORMAT_TAG,
        "kernel " + json.dumps(model.kernel_config.to_dict(), sort_keys=True),
        f"converged {int(model.converged)}",
        f"bias {model.bias:.17g}",
        "alphas " + " ".join(f"{a:.17g}" for a in model.alphas),
        "labels " + " ".join(str(int(v)) for v in model.labels),
        f"features {feats.shape[0]} {feats.shape[1]}",
    ]
    for row in feats:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_svm_model(path) -> SvmModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} file")

    def fieldline(idx: int, name: str) -> str:
        prefix = name + " "
        if idx >= len(lines) or not lines[idx].startswith(prefix):
            raise ValueError(f"{path}: expected '{name}' on line {idx + 1}")
        return lines[idx][len(prefix):]

    cfg = KernelConfig.from_dict(json.loads(fieldline(1, "kernel")))
    converged = bool(int(fieldline(2, "converged")))
    bias = float(fieldline(3, "bias"))
    alphas = np.array([float(v) for v in fieldline(4, "alphas").split()])
    labels = np.array([int(v) for v in fieldline(5, "labels").split()], dtype=np.int64)
    n_rows, n_cols = (int(v) for v in fieldline(6, "features").split())
    if len(lines) < 7 + n_rows:
        raise ValueError(f"{path}: truncated feature matrix")
    feats = np.empty((n_rows, n_cols))
    for r in range(n_rows):
        row = lines[7 + r].split()
        if len(row) != n_cols:
            raise ValueError(f"{path}: feature row {r} has {len(row)} values")
        feats[r] = [float(v) for v in row]
    if alphas.size != labels.size or alphas.size != n_rows:
        raise ValueError(f"{path}: inconsistent record sizes")
    return SvmModel(
        alphas=alphas,
        bias=bias,
        labels=labels,
        kernel_config=cfg,
        training_features=feats if n_cols > 0 else None,
        converged=converged,
    )
