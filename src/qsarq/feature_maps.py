"""Data-encoding circuits: normalized feature vector -> quantum state.

Two encoding families are provided. The ``zz`` family is the widely used
Hadamard + phase + pairwise-phase construction with angles 2*x_j on single
qubits and 2*(pi - x_j)*(pi - x_k) on entangled pairs. The ``custom``
family rotates each qubit by RY(2*x_j) and entangles pairs with a parity
phase of pi*x_j*x_k. One qubit per feature; the block repeats `reps` times.
States live in the computational basis with qubit 0 on the least
significant bit of the amplitude index, so ``|q1 q0> = |binary index>``.

`encode_batch` prepares many states at once. All phase gates of one
repetition are one diagonal exp(i * phase), a running product over the
qubits that takes one exp per angle and no trigonometry per amplitude. H on
every qubit is one real matrix product per group of at most 5 qubits, and
an RY layer (per-row angles) one butterfly per qubit axis. The tests check
it against a gate-by-gate simulator of the same circuits, against the full
phase table (``tests/oracles.py``) and against phases evaluated in mpmath.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import reduce
from typing import Annotated, Literal

import numpy as np

from .errors import ResourceLimitError
from .fields import check_fields, from_mapping

ZZ = "zz"
CUSTOM = "custom"

LINEAR = "linear"
FULL = "full"

DEFAULT_QUBIT_CAP = 24
# most repetitions of the encoding block; encode time grows with each one
MAX_REPS = 100
# largest stack of statevectors (rows x 2^n complex128 amplitudes) built at once
DEFAULT_STACK_BYTES = 1 << 30
# working set of one block of batched work: rows are encoded and multiplied
# a block at a time so temporaries stay near this size
BLOCK_BYTES = 1 << 18

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FeatureMapSpec:
    """Fully determines the encoding unitary for a feature vector."""

    family: Literal["zz", "custom"]
    n_qubits: Annotated[int, ">=", 1]
    reps: Annotated[int, ">=", 1, "<=", MAX_REPS] = 2
    entanglement: Literal["linear", "full"] = LINEAR

    __post_init__ = check_fields

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMapSpec":
        return from_mapping(cls, d, "kernel feature_map")


def entanglement_pairs(scheme: str, n_qubits: int) -> list[tuple[int, int]]:
    """Qubit pairs receiving two-qubit gates, in application order.

    linear chains neighbours: (0,1), (1,2), ...; full connects all (j,k)
    with j < k in lexicographic order. A single qubit has no pairs.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if scheme == LINEAR:
        return [(j, j + 1) for j in range(n_qubits - 1)]
    if scheme == FULL:
        return [(j, k) for j in range(n_qubits) for k in range(j + 1, n_qubits)]
    raise ValueError(f"unknown entanglement scheme {scheme!r}")


def check_state_stack(n_states: int, n_qubits: int) -> None:
    """Raise ResourceLimitError unless `n_states` states on `n_qubits` fit the caps.

    Called before a stack is allocated, so an oversized request costs nothing.
    """
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(
            f"n_qubits={n_qubits} exceeds the cap of {DEFAULT_QUBIT_CAP} "
            f"({2 ** DEFAULT_QUBIT_CAP} amplitudes)"
        )
    n_bytes = n_states * (16 << n_qubits)
    if n_bytes > DEFAULT_STACK_BYTES:
        raise ResourceLimitError(
            f"{n_states} states on {n_qubits} qubits need {n_bytes} bytes, "
            f"over the state-stack budget of {DEFAULT_STACK_BYTES} bytes"
        )


def _validated_features(spec: FeatureMapSpec, x, ndim: int = 1) -> np.ndarray:
    """One feature vector (ndim=1) or a matrix of them, one per row (ndim=2)."""
    arr = np.asarray(x, dtype=np.float64)
    kind = "vector" if ndim == 1 else "matrix"
    if arr.ndim != ndim or arr.shape[-1:] != (spec.n_qubits,):
        raise ValueError(
            f"feature {kind} of shape {arr.shape} does not match "
            f"n_qubits={spec.n_qubits}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"feature {kind} contains non-finite values")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        warnings.warn(
            "feature values outside [0, 1]; encoding angles are still defined "
            "but inputs are expected to be min-max normalized",
            stacklevel=3,
        )
    return arr


def _phase_diagonals(spec: FeatureMapSpec, X: np.ndarray, out: np.ndarray,
                     work: np.ndarray) -> None:
    """Write exp(i * phase) per row of X and amplitude into `out`: one repetition's phase gates.

    The phase of amplitude a sums the bits' angles alpha_q a_q (2x, ZZ family
    only) and each pair's angle beta_jk times the parity of its two bits. It is
    a running product over the qubits: D(a + 2^q) = D(a) F_q(a) for a < 2^q,
    where F_q(a) is exp(i(alpha_q + every beta that involves q)) times
    exp(-2i beta_jq) for each pair (j, q) with bit j set in a, and F_q doubles
    over those bits. A row costs about 2 * 2^n complex products and one exp
    per angle. Rows go as many at a time as the complex array `work` holds;
    each block is built amplitude-major in `work`, so that every step reads
    and writes disjoint contiguous ranges (numpy copies an operand whose
    bounds overlap the output's), and is then transposed into `out`.
    """
    n = spec.n_qubits
    pairs = entanglement_pairs(spec.entanglement, n)
    j, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    # in both schemes the pairs (b, q) with b < q are those with b = low[q], ..., q - 1
    low, index = [min(j[k == q], default=q) for q in range(n)], {p: i for i, p in enumerate(pairs)}
    step = max(1, work.size >> n)
    for start in range(0, len(X), step):
        x = X[start:start + step].T
        beta = (2.0 * (math.pi - x[j]) * (math.pi - x[k]) if spec.family == ZZ
                else math.pi * x[j] * x[k])
        c = 2.0 * x if spec.family == ZZ else np.zeros_like(x)
        np.add.at(c, j, beta)  # each pair's angle onto both of its qubits
        np.add.at(c, k, beta)
        turn, w = np.exp(1j * c), np.exp(-2j * beta)
        d = work.reshape(-1)[:(1 << n) * x.shape[1]].reshape(1 << n, -1)
        d[0] = 1.0
        for q in range(n):
            f = d[1 << q:2 << q]  # F_q, then D(a + 2^q)
            f[:1 << low[q]] = turn[q]
            for b in range(low[q], q):
                np.multiply(f[:1 << b], w[index[b, q]], out=f[1 << b:2 << b])
            f *= d[:1 << q]
        out[start:start + step] = d.T


def _encode_rows(spec: FeatureMapSpec, X: np.ndarray, states: np.ndarray,
                 diag: np.ndarray, buf: np.ndarray, factors) -> None:
    """Turn the phase diagonals in `states` into the states of the (validated) rows of X.

    Every gate layer is applied to all rows. Repetition 1's H or RY layer
    acts on |0...0>, whose state stays a product. For H every amplitude is
    2^(-n/2), the n factors 1/sqrt(2) multiplied in turn as the butterflies
    would; for RY qubit q doubles the 2^q leading amplitudes into c * a and
    s * a, the butterfly's products with the other half's zeros left out.
    Later H layers apply `factors` (lowest qubit, H on a group) to the re/im
    pairs, `states` to `buf` and back; `diag` keeps the diagonals.
    """
    rows, n = X.shape
    diag[...] = states  # the same in every repetition
    if spec.family == ZZ:
        np.multiply(diag, math.prod([_SQRT2_INV] * n), out=states)
    else:
        cos, sin = np.cos(X)[:, :, None, None], np.sin(X)[:, :, None, None]
        states[:, 0] = 1.0
        for q in range(n):
            lead = states[:, :1 << q]
            np.multiply(sin[:, q, 0], lead, out=states[:, 1 << q:2 << q])
            lead *= cos[:, q, 0]
        states *= diag
    for _ in range(spec.reps - 1):
        src, dst = states.view(np.float64), buf.view(np.float64)
        if spec.family == ZZ:  # H on every qubit
            for low, h in factors:
                shape = (rows, -1, h.shape[0], 2 << low)  # 2 << low: re/im of 2^low amplitudes
                np.matmul(h, src.reshape(shape), out=dst.reshape(shape))
                src, dst = dst, src
        else:  # RY(2 x_q): half-angle x_q
            for q in range(n):
                view = states.reshape(rows, -1, 2, 1 << q)
                a, b, c, s = view[:, :, 0, :].copy(), view[:, :, 1, :], cos[:, q], sin[:, q]
                view[:, :, 0, :] = c * a - s * b
                view[:, :, 1, :] = s * a + c * b
        np.multiply(src.view(np.complex128), diag, out=states)


def encode_batch(spec: FeatureMapSpec, X) -> np.ndarray:
    """Encoded states of every row of X as an (N, 2^n) complex array.

    Row i equals the state the gate list of X[i] prepares from |0...0>,
    up to rounding (checked against a gate-by-gate simulator in
    ``tests/oracles.py``). The whole stack must fit the state-stack budget,
    which is checked before anything is allocated. The phase diagonals are
    written into the stack first, built in the work buffers of two blocks;
    then rows are encoded in place a block of about BLOCK_BYTES of
    amplitudes at a time, each H layer one matrix product per group of at
    most 5 qubits.
    """
    feats = _validated_features(spec, X, ndim=2)
    check_state_stack(feats.shape[0], spec.n_qubits)
    out = np.empty((feats.shape[0], 1 << spec.n_qubits), dtype=np.complex128)
    step = max(1, BLOCK_BYTES // (16 << spec.n_qubits))
    blocks = [slice(start, start + step) for start in range(0, feats.shape[0], step)]
    work = np.empty((2, min(step, len(out)), out.shape[1]), dtype=np.complex128)
    _phase_diagonals(spec, feats, out, work)
    # H on each group of <= 5 qubits; symmetric, and its F-order .T takes the faster BLAS path
    factors = [(g[0], reduce(np.kron, [[[1, 1], [1, -1]]] * len(g), 2.0 ** (-len(g) / 2)).T)
               for g in np.array_split(np.arange(spec.n_qubits), -(-spec.n_qubits // 5))]
    for rows in blocks:
        _encode_rows(spec, feats[rows], out[rows], *work[:, :len(out[rows])], factors)
    return out


def encode(spec: FeatureMapSpec, x) -> np.ndarray:
    """The encoded state of one feature vector: ``encode_batch(spec, [x])[0]``.

    Kept only because the benchmark's tracer wraps this name; it goes when
    the package records its own stages (ROADMAP item 1).
    """
    return encode_batch(spec, [x])[0]
