"""Basis-expansion regression: least squares and simulated annealing.

Models are linear in an expanded basis (affine, or affine plus all
pairwise products) and can be trained either by a numerically stable
least-squares solve or by Metropolis annealing on the same objective.
Class predictions come from thresholding the fitted value.

Annealing's random stream is ``default_rng(seed)``, drawn in blocks of
ANNEAL_BLOCK steps (the last block holds the steps left): each block is
one (b, m) standard-normal array, row k of which is step k's proposal
direction in the m coefficients, then b uniforms v_k, of which u_k = 1 - v_k
is step k's acceptance draw. Every step consumes its draws whether or not
it is accepted, so a step's draws do not depend on the data; the walk ends
once no move can change the coefficients. Proposals are scored in
coefficient space (`fit_annealing`): a move d changes the
objective by 2 d^T g + d^T G d, with G the m x m normal matrix and g the
gradient at the current coefficients. This rounds otherwise than the
difference of two losses computed from their residuals, so a walk leaves the
step-by-step reference's (``tests/oracles.py``) only where a change lies
within rounding of its acceptance bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import artifact
from .fields import SEED, check_fields, check_value

AFFINE = "affine"
POLY2 = "poly2"
BASIS_KINDS = frozenset({AFFINE, POLY2})
RIDGE = Annotated[float, ">=", 0]  # the ridge of a fit, and of a config row (`pipeline.RegEntry`)
# annealing keeps nothing per step and stops once q is frozen: a million-iteration
# poly2 fit on 92 rows of 5 features drew 83 200 steps in 0.7-1.2 s and traced
# 0.11 MiB at the peak, on one CPU
MAX_ANNEAL_ITERS = 1_000_000
# steps per draw block of the annealing stream (module docstring)
ANNEAL_BLOCK = 128
# the least positive float: delta < max(slack, _TINY) is delta <= 0 or delta < slack
_TINY = math.nextafter(0.0, 1.0)
# a bound on |z| for numpy's standard normal draws: its ziggurat (r = 3.6542) draws
# its tail from 53-bit uniforms, so |z| < r + 53 ln 2 / r = 13.71
_NORMAL_BOUND = 16.0


@dataclass(frozen=True)
class BasisSpec:
    """Which expansion to apply to an n_features input vector."""

    kind: str
    n_features: Annotated[int, ">=", 1]

    def __post_init__(self):
        check_fields(self)
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")

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

    t0: Annotated[float, ">", 0] = 1.0
    cooling: Annotated[float, ">", 0, "<", 1] = 0.999
    iterations: Annotated[int, ">=", 1, "<=", MAX_ANNEAL_ITERS] = 10_000

    __post_init__ = check_fields


@dataclass
class RegModel:
    coefficients: np.ndarray = field(repr=False)
    basis: BasisSpec
    threshold: float = 0.0
    loss: float = float("nan")


def _objective(phi: np.ndarray, y: np.ndarray, q: np.ndarray, ridge: float) -> float:
    r = phi @ q - y
    value = float(r @ r)
    if ridge > 0:
        value += ridge * float(q @ q)
    return value


def _ridge_rows(phi: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, y) with the rows sqrt(ridge) * I and their zero targets appended when
    ridge > 0, so that ||rows q - rhs||^2 is the objective with its ridge term."""
    if ridge == 0:
        return phi, y
    m = phi.shape[1]
    return np.vstack([phi, np.sqrt(ridge) * np.eye(m)]), np.concatenate([y, np.zeros(m)])


def _design(X, y, basis: BasisSpec, ridge: float,
            threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked design matrix and targets of a fit: (expand(basis, X) as rows, y)."""
    check_value(ridge, RIDGE, "ridge")
    check_value(threshold, float, "threshold")
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

    A rank-deficient design (possible only at ridge=0) yields the
    minimum-norm solution, as `np.linalg.lstsq` gives it.
    """
    phi, targets = _design(X, y, basis, ridge, threshold)
    q = np.linalg.lstsq(*_ridge_rows(phi, targets, ridge), rcond=None)[0]
    return RegModel(q, basis, threshold, loss=_objective(phi, targets, q, ridge))


def fit_annealing(X, y, basis: BasisSpec, schedule: AnnealSchedule, seed: int,
                  ridge: float = 0.0, threshold: float = 0.0) -> RegModel:
    """Minimize the least-squares objective by Metropolis moves on q.

    Step k proposes q + sqrt(T_k) z_k from the current q (start: q = 0) and
    accepts it when u_k < exp(-max(delta_k, 0) / T_k), delta_k being the
    change of the objective; the best coefficients seen are returned, so the
    final loss never exceeds the loss at q = 0. The draws follow the module
    docstring's stream layout, so fixed seeds give identical trajectories.

    The objective is ||rows q - rhs||^2 over the design matrix and its ridge
    rows (`_ridge_rows`), so a move d changes it by delta = 2 d^T g + d^T G d,
    with G = rows^T rows, formed once per fit, and g = rows^T (rows q - rhs).
    The curvatures d^T G d of a block's moves take one product, made once
    some move of the block can change q. The first move accepted that changes
    q becomes the current state, g and the loss are recomputed from it
    exactly, and the rest of the block is scored again with one product
    against g. The walk ends at the first block where q plus or minus the
    largest move a draw can give (`_NORMAL_BOUND`) rounds back to q: no later
    draw could change the result. Nothing is kept per step, so memory does
    not grow with the iteration count.
    """
    check_value(seed, SEED, "seed")
    phi, targets = _design(X, y, basis, ridge, threshold)
    rows, rhs = _ridge_rows(phi, targets, ridge)
    gram = rows.T @ rows
    rng = np.random.default_rng(seed)
    current = np.zeros(basis.size)
    grad = (rows @ current - rhs) @ rows
    best, best_loss = current, _objective(phi, targets, current, ridge)
    temp = schedule.t0
    for start in range(0, schedule.iterations, ANNEAL_BLOCK):
        # rounding is monotone, so if q +- the largest move rounds back to q, every
        # move of the block does; temperatures only fall, so no later move changes q
        reach = _NORMAL_BOUND * math.sqrt(temp)
        if np.all(current + reach == current) and np.all(current - reach == current):
            break
        size = min(ANNEAL_BLOCK, schedule.iterations - start)
        steps = rng.standard_normal((size, basis.size))
        temps = np.full(size, schedule.cooling)
        temps[0] = temp
        np.multiply.accumulate(temps, out=temps)  # T_k by repeated products
        # u < exp(-max(delta, 0)/T) as delta <= 0 or delta < -T ln u, with
        # u = 1 - v in (0, 1]: nothing overflows
        slack = np.maximum(temps * -np.log1p(-rng.random(size)), _TINY)
        temp = temps[-1] * schedule.cooling
        steps *= np.sqrt(temps)[:, None]
        curv = None
        k = 0
        while k < size:
            moves = steps[k:]
            # a move too small to change q leaves the state as it is, accepted or not
            accept = (moves + current != current).any(axis=1)
            if accept.any():
                if curv is None:  # d^T G d of every move d of the block
                    curv = np.einsum("ij,ij->i", steps @ gram, steps)
                accept &= 2 * (moves @ grad) + curv[k:] < slack[k:]
            j = int(accept.argmax())
            if not accept[j]:
                break
            current = current + moves[j]
            grad = (rows @ current - rhs) @ rows
            current_loss = _objective(phi, targets, current, ridge)
            if current_loss < best_loss:
                best, best_loss = current, current_loss
            k += j + 1
    return RegModel(best, basis, threshold, loss=best_loss)


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
