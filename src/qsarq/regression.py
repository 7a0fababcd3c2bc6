"""Basis-expansion regression: least squares and simulated annealing.

Models are linear in an expanded basis (affine, or affine plus all
pairwise products) and can be trained either by a numerically stable
least-squares solve or by Metropolis annealing on the same objective.
Class predictions come from thresholding the fitted value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifact

AFFINE = "affine"
POLY2 = "poly2"
BASIS_KINDS = frozenset({AFFINE, POLY2})
# annealing takes one Python-level step per iteration and keeps each step's
# loss, so a million iterations take 5-10 s and 8 MB
MAX_ANNEAL_ITERS = 1_000_000


@dataclass(frozen=True)
class BasisSpec:
    """Which expansion to apply to an n_features input vector."""

    kind: str
    n_features: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")

    @property
    def size(self) -> int:
        n = self.n_features
        if self.kind == AFFINE:
            return n + 1
        return n + 1 + n * (n + 1) // 2


def expand(basis: BasisSpec, X) -> np.ndarray:
    """Design matrix: constant, features, and (poly2) products x_j*x_k, j <= k."""
    arr = np.asarray(X, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    if arr.shape[1] != basis.n_features:
        raise ValueError(
            f"expected {basis.n_features} features, got {arr.shape[1]}"
        )
    cols = [np.ones(arr.shape[0]), *arr.T]
    if basis.kind == POLY2:
        for j in range(basis.n_features):
            for k in range(j, basis.n_features):
                cols.append(arr[:, j] * arr[:, k])
    phi = np.column_stack(cols)
    return phi[0] if single else phi


@dataclass
class AnnealSchedule:
    """Cooling T_k = t0 * cooling^k over `iterations` steps; `pipeline.AnnealEntry` inherits it."""

    t0: float = 1.0
    cooling: float = 0.999
    iterations: int = 10_000

    def __post_init__(self):
        if self.t0 <= 0:
            raise ValueError("initial temperature must be > 0")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling factor must lie in (0, 1)")
        if not 1 <= self.iterations <= MAX_ANNEAL_ITERS:
            raise ValueError(f"iteration count must be between 1 and {MAX_ANNEAL_ITERS}, "
                             f"got {self.iterations}")


@dataclass
class RegModel:
    coefficients: np.ndarray = field(repr=False)
    basis: BasisSpec
    threshold: float = 0.0
    rank_deficient: bool = False
    loss: float = float("nan")
    loss_trace: list[float] = field(default_factory=list, repr=False)


def _objective(phi: np.ndarray, y: np.ndarray, q: np.ndarray, ridge: float) -> float:
    r = phi @ q - y
    value = float(r @ r)
    if ridge > 0:
        value += ridge * float(q @ q)
    return value


def _design(X, y, basis: BasisSpec, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked design matrix and targets of a fit: (expand(basis, X) as rows, y)."""
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    targets = np.asarray(y, dtype=np.float64)
    phi = expand(basis, X)
    if phi.ndim == 1:
        phi = phi.reshape(1, -1)
    if targets.ndim != 1 or targets.size != phi.shape[0]:
        raise ValueError(f"expected {phi.shape[0]} targets, got {targets.shape}")
    return phi, targets


def fit_least_squares(X, y, basis: BasisSpec, ridge: float = 0.0,
                      threshold: float = 0.0) -> RegModel:
    """Minimize ||phi q - y||^2 + ridge*||q||^2 via orthogonal factorization.

    With ridge=0 a rank-deficient design yields the minimum-norm solution
    and sets `rank_deficient` on the model.
    """
    phi, targets = _design(X, y, basis, ridge)
    m = basis.size
    if ridge > 0:
        a = np.vstack([phi, np.sqrt(ridge) * np.eye(m)])
        rhs = np.concatenate([targets, np.zeros(m)])
    else:
        a, rhs = phi, targets
    q, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
    return RegModel(
        coefficients=q,
        basis=basis,
        threshold=threshold,
        rank_deficient=rank < m,
        loss=_objective(phi, targets, q, ridge),
    )


def fit_annealing(X, y, basis: BasisSpec, schedule: AnnealSchedule, seed: int,
                  ridge: float = 0.0, threshold: float = 0.0) -> RegModel:
    """Minimize the least-squares objective by Metropolis moves on q.

    Proposals are Gaussian with scale sqrt(T); the best coefficients seen
    are returned, so the final loss never exceeds the loss at the q=0 start.
    Fixed seeds give identical trajectories.
    """
    phi, targets = _design(X, y, basis, ridge)
    rng = np.random.default_rng(seed)
    m = basis.size
    current = np.zeros(m)
    current_loss = _objective(phi, targets, current, ridge)
    best, best_loss = current.copy(), current_loss
    trace = [best_loss]
    temp = schedule.t0
    for _ in range(schedule.iterations):
        candidate = current + np.sqrt(temp) * rng.standard_normal(m)
        candidate_loss = _objective(phi, targets, candidate, ridge)
        delta = candidate_loss - current_loss
        if delta <= 0.0 or rng.random() < np.exp(-delta / temp):
            current, current_loss = candidate, candidate_loss
            if current_loss < best_loss:
                best, best_loss = current.copy(), current_loss
        trace.append(best_loss)
        temp *= schedule.cooling
    return RegModel(
        coefficients=best,
        basis=basis,
        threshold=threshold,
        loss=best_loss,
        loss_trace=trace,
    )


def predict_labels(model: RegModel, X) -> np.ndarray:
    """+1 for each row whose fitted value reaches the threshold, else -1."""
    values = expand(model.basis, X) @ model.coefficients
    return np.where(values >= model.threshold, 1, -1).astype(np.int64)


def save_reg_model(model: RegModel, path) -> None:
    """Write `model` as a `reg` artifact (see `qsarq.artifact`)."""
    artifact.save(path, artifact.REG, {
        "basis": model.basis.kind, "n_features": model.basis.n_features,
        "coefficients": model.coefficients, "threshold": model.threshold})


def reg_from_fields(f: dict) -> RegModel:
    """The model in the checked fields of a `reg` artifact."""
    basis = BasisSpec(f["basis"], f["n_features"])
    if f["coefficients"].size != basis.size:
        raise ValueError(f"a basis of size {basis.size} has "
                         f"{f['coefficients'].size} coefficients")
    return RegModel(f["coefficients"], basis, float(f["threshold"]))


def load_reg_model(path) -> RegModel:
    return artifact.load(path, {artifact.REG: reg_from_fields})
