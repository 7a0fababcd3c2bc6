"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths it is used to check.

The gate-list simulator is the package's original evaluation path, kept
as the reference for the batched one: `encoding_circuit` writes a feature
vector's encoding as a list of `GateOp`s, `apply_circuit` runs the list
on a `StateVector` gate by gate, `kernel_value` and `shot_estimate`
evaluate one kernel entry from two such states, and `decision_value` and
`predict` score one point entry by entry. Its states use the package's
layout (qubit 0 on the least significant bit of the amplitude index), and
it calls the package's input validation (`_validated_features`,
`_retained_features`), clamp (`_clamp_unit`) and shot-stream rule
(`_shot_draws`), so error paths exercise production checks.

The other oracles check the simulator and the package in turn: gates
become explicit Kronecker-product matrices, phase diagonals come from the
full phase table (`phase_diagonals`), eigenproblems go through
hand-rolled Jacobi rotations, the SVM dual is solved by projected
gradient ascent, linear systems by Gaussian elimination, and shot draws
one entry at a time from the gate-list fidelities.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from qsarq.errors import ResourceLimitError
from qsarq.feature_maps import (
    DEFAULT_QUBIT_CAP,
    ZZ,
    FeatureMapSpec,
    _validated_features,
    entanglement_pairs,
)
from qsarq.kernels import (
    LINEAR,
    POLY,
    QUANTUM_EXACT,
    QUANTUM_SHOTS,
    KernelConfig,
    _clamp_unit,
    _shot_draws,
)
from qsarq.preprocess import ScalerModel
from qsarq.svm import SvmModel, _retained_features

RY = "ry"
H = "h"
PHASE = "phase"
PARITY_PHASE = "parity_phase"

_ONE_QUBIT_KINDS = frozenset({RY, H, PHASE})
_TWO_QUBIT_KINDS = frozenset({PARITY_PHASE})

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, ordered target qubits, rotation/phase angle.

    The angle is ignored for H. Targets must be distinct; validity against
    a concrete qubit count is checked at application time.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        if self.kind in _ONE_QUBIT_KINDS:
            arity = 1
        elif self.kind in _TWO_QUBIT_KINDS:
            arity = 2
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate target qubits in {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative qubit index in {targets}")
        if not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")


@dataclass
class StateVector:
    """2^n complex amplitudes; unit norm is preserved by every gate."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


def new_zero_state(n_qubits: int, qubit_cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Allocate |0...0> on `n_qubits` qubits."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_qubits > qubit_cap:
        raise ResourceLimitError(
            f"n_qubits={n_qubits} exceeds the cap of {qubit_cap} "
            f"({2 ** qubit_cap} amplitudes)"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_targets(gate: GateOp, n_qubits: int) -> None:
    for t in gate.targets:
        if t >= n_qubits:
            raise ValueError(
                f"gate targets qubit {t} but the state has {n_qubits} qubit(s)"
            )


def _apply_inplace(amps: np.ndarray, n_qubits: int, gate: GateOp) -> None:
    """Apply `gate` to the amplitude buffer in place."""
    if gate.kind == RY:
        q = gate.targets[0]
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        view = amps.reshape(-1, 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = c * a - s * b
        view[:, 1, :] = s * a + c * b
    elif gate.kind == H:
        q = gate.targets[0]
        view = amps.reshape(-1, 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = (a + b) * _SQRT2_INV
        view[:, 1, :] = (a - b) * _SQRT2_INV
    elif gate.kind == PHASE:
        q = gate.targets[0]
        view = amps.reshape(-1, 2, 1 << q)
        view[:, 1, :] *= complex(math.cos(gate.angle), math.sin(gate.angle))
    elif gate.kind == PARITY_PHASE:
        j, k = gate.targets
        idx = np.arange(amps.size)
        odd = (((idx >> j) ^ (idx >> k)) & 1).astype(bool)
        amps[odd] *= complex(math.cos(gate.angle), math.sin(gate.angle))
    else:  # pragma: no cover - GateOp validates kinds
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Return `gate` applied to `state`; the input state is not modified."""
    _check_targets(gate, state.n_qubits)
    out = state.amplitudes.copy()
    _apply_inplace(out, state.n_qubits, gate)
    return StateVector(state.n_qubits, out)


def apply_circuit(state: StateVector, gates: list[GateOp]) -> StateVector:
    """Apply a gate sequence with a single buffer copy."""
    for g in gates:
        _check_targets(g, state.n_qubits)
    out = state.amplitudes.copy()
    for g in gates:
        _apply_inplace(out, state.n_qubits, g)
    return StateVector(state.n_qubits, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_i conj(a_i) b_i."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def encoding_circuit(spec: FeatureMapSpec, x) -> list[GateOp]:
    """The gate list realizing the encoding unitary for `x`."""
    vec = _validated_features(spec, x)
    pairs = entanglement_pairs(spec.entanglement, spec.n_qubits)
    gates: list[GateOp] = []
    for _ in range(spec.reps):
        if spec.family == ZZ:
            for q in range(spec.n_qubits):
                gates.append(GateOp(H, (q,)))
            for q in range(spec.n_qubits):
                gates.append(GateOp(PHASE, (q,), 2.0 * vec[q]))
            for j, k in pairs:
                angle = 2.0 * (math.pi - vec[j]) * (math.pi - vec[k])
                gates.append(GateOp(PARITY_PHASE, (j, k), angle))
        else:
            for q in range(spec.n_qubits):
                gates.append(GateOp(RY, (q,), 2.0 * vec[q]))
            for j, k in pairs:
                gates.append(GateOp(PARITY_PHASE, (j, k), math.pi * vec[j] * vec[k]))
    return gates


def encode(spec: FeatureMapSpec, x) -> StateVector:
    """Prepare the encoded state by running the circuit on |0...0>."""
    gates = encoding_circuit(spec, x)
    return apply_circuit(new_zero_state(spec.n_qubits), gates)


def _as_pair(x, x2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("kernel arguments must be 1-D vectors of equal length")
    return a, b


def _fidelity(a: StateVector, b: StateVector) -> float:
    ip = np.vdot(a.amplitudes, b.amplitudes)
    return _clamp_unit(float(abs(ip)) ** 2)


def _exact_quantum(cfg: KernelConfig, x: np.ndarray, x2: np.ndarray) -> float:
    if x.size != cfg.feature_map.n_qubits:
        raise ValueError(
            f"feature length {x.size} does not match the map's "
            f"n_qubits={cfg.feature_map.n_qubits}"
        )
    return _fidelity(encode(cfg.feature_map, x), encode(cfg.feature_map, x2))


def shot_estimate(cfg: KernelConfig, x, x2) -> float:
    """Finite-shot fidelity estimate: binomial draw around the exact value.

    This models the compute-uncompute test, where the fidelity equals the
    probability of the all-zeros outcome, estimated from `shots` repetitions.
    The estimate is the first draw of x's shot stream (see `qsarq.kernels`),
    so it is not symmetric in x and x2.
    """
    if cfg.kind != QUANTUM_SHOTS:
        raise ValueError("shot_estimate requires a quantum_shots kernel config")
    a, b = _as_pair(x, x2)
    return float(_shot_draws(cfg, a, _exact_quantum(cfg, a, b)))


def kernel_value(cfg: KernelConfig, x, x2) -> float:
    """Evaluate one kernel entry K(x, x2)."""
    a, b = _as_pair(x, x2)
    if cfg.kind == QUANTUM_EXACT:
        return _exact_quantum(cfg, a, b)
    if cfg.kind == QUANTUM_SHOTS:
        return shot_estimate(cfg, a, b)
    if cfg.kind == LINEAR:
        return float(np.dot(a, b))
    if cfg.kind == POLY:
        return float((np.dot(a, b) + cfg.offset) ** cfg.degree)
    diff = a - b
    return float(np.exp(-cfg.gamma * np.dot(diff, diff)))


def decision_value(model: SvmModel, x) -> float:
    """sum_i alpha_i y_i K(x_i, x) + b, one kernel entry per support vector.

    A shot-sampled K draws x's shot stream at the exact fidelities of the
    gate-list encoder, over the support vectors in ascending order.
    """
    vec = np.asarray(x, dtype=np.float64)
    feats = _retained_features(model, vec, ndim=1)
    cfg = model.kernel_config
    sv = model.support_indices  # ascending index order, deterministic sum
    if cfg.kind == QUANTUM_SHOTS:
        exact = KernelConfig(kind=QUANTUM_EXACT, feature_map=cfg.feature_map)
        ks = _shot_draws(cfg, vec, [kernel_value(exact, feats[i], vec) for i in sv])
    else:
        ks = [kernel_value(cfg, feats[i], vec) for i in sv]
    total = 0.0
    for i, k in zip(sv, ks):
        total += float(model.alphas[i]) * float(model.labels[i]) * float(k)
    return total + model.bias


def predict(model: SvmModel, x) -> int:
    """Sign of the decision value; an exact zero counts as +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def minmax_inverse(model: ScalerModel, V) -> np.ndarray:
    """min + v * (max - min); inverse of the transform on the fitted range."""
    arr = np.asarray(V, dtype=np.float64)
    return model.mins + arr * (model.maxs - model.mins)


_I2 = np.eye(2, dtype=np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def _embed_single(U: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Kronecker-embed a 2x2 matrix on `qubit` (qubit 0 = least significant bit)."""
    mat = np.eye(1, dtype=np.complex128)
    for q in range(n_qubits):  # later kron factors sit on higher bits
        mat = np.kron(U if q == qubit else _I2, mat)
    return mat


def dense_gate_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Explicit 2^n x 2^n unitary for one gate."""
    if gate.kind == RY:
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        u = np.array([[c, -s], [s, c]], dtype=np.complex128)
        return _embed_single(u, gate.targets[0], n_qubits)
    if gate.kind == H:
        return _embed_single(_H, gate.targets[0], n_qubits)
    if gate.kind == PHASE:
        u = np.diag([1.0, np.exp(1j * gate.angle)])
        return _embed_single(u, gate.targets[0], n_qubits)
    if gate.kind == PARITY_PHASE:
        j, k = gate.targets
        zz = _embed_single(_Z, j, n_qubits) @ _embed_single(_Z, k, n_qubits)
        parity = (1.0 - np.real(np.diag(zz))) / 2.0  # 1 on odd-parity states
        return np.diag(np.exp(1j * gate.angle * parity))
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def circuit_unitary(gates: list[GateOp], n_qubits: int) -> np.ndarray:
    """Product of the gate matrices in application order."""
    total = np.eye(1 << n_qubits, dtype=np.complex128)
    for gate in gates:
        total = dense_gate_matrix(gate, n_qubits) @ total
    return total


def phase_diagonals(spec: FeatureMapSpec, X) -> np.ndarray:
    """exp(i * phase) per row of X and amplitude: one repetition's phase gates.

    The full phase table: the phase of every amplitude a is angles @ table[a],
    where table[a] holds the bits of a (ZZ family only) and the parity of each
    entangled pair's two bits. The package builds only the half of this table
    whose top bit is 0 and derives the rest (``qsarq.feature_maps._phase_diagonals``).
    """
    X = np.asarray(X, dtype=np.float64)
    n = spec.n_qubits
    pairs = np.array(entanglement_pairs(spec.entanglement, n), dtype=np.intp).reshape(-1, 2)
    j, k = pairs[:, 0], pairs[:, 1]
    if spec.family == ZZ:
        angles = np.hstack([2.0 * X, 2.0 * (math.pi - X[:, j]) * (math.pi - X[:, k])])
    else:
        angles = math.pi * X[:, j] * X[:, k]
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    table = np.abs(bits[:, j] - bits[:, k])
    if spec.family == ZZ:
        table = np.hstack([bits, table])
    return np.exp(1j * (angles @ table.T))


def butterfly_states(spec: FeatureMapSpec, X) -> np.ndarray:
    """Encoded rows of X, every H or RY layer run as butterflies from |0...0>.

    Each repetition applies, for every qubit, one butterfly over the pairs
    of amplitudes that differ in that qubit's bit, then the repetition's
    phase diagonal from the full table (`phase_diagonals`).
    """
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    states = np.zeros((rows, 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0
    cos, sin = np.cos(X)[:, :, None, None], np.sin(X)[:, :, None, None]
    diag = phase_diagonals(spec, X)
    for _ in range(spec.reps):
        for q in range(n):
            view = states.reshape(rows, -1, 2, 1 << q)
            a, b = view[:, :, 0, :].copy(), view[:, :, 1, :].copy()
            if spec.family == ZZ:
                view[:, :, 0, :] = (a + b) * (1.0 / math.sqrt(2.0))
                view[:, :, 1, :] = (a - b) * (1.0 / math.sqrt(2.0))
            else:
                c, s = cos[:, q], sin[:, q]
                view[:, :, 0, :] = c * a - s * b
                view[:, :, 1, :] = s * a + c * b
        states *= diag
    return states


def jacobi_eigh(A, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns) sorted by descending
    eigenvalue, iterated until the off-diagonal Frobenius norm is <= tol.
    """
    a = np.array(A, dtype=np.float64, copy=True)
    n = a.shape[0]
    vecs = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    else:
        raise AssertionError("Jacobi sweep budget exhausted")
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], vecs[:, order]


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, a . y = 0}.

    The multiplier is found exactly on the piecewise-linear constraint
    function, whose breakpoints are where components hit the box bounds.
    """
    bps = np.sort(np.concatenate([y * v, y * v - y * C]))

    def h(nu: float) -> float:
        return float(y @ np.clip(v - nu * y, 0.0, C))

    values = np.array([h(b) for b in bps])
    if values[0] <= 0.0:
        nu = bps[0]
    elif values[-1] >= 0.0:
        nu = bps[-1]
    else:
        k = int(np.argmax(values <= 0.0))
        h0, h1 = values[k - 1], values[k]
        nu = bps[k - 1] + (bps[k] - bps[k - 1]) * h0 / (h0 - h1)
    return np.clip(v - nu * y, 0.0, C)


def reference_dual_solve(K, y, C: float, tol: float = 1e-10,
                         max_iters: int = 2_000_000) -> np.ndarray:
    """Projected gradient ascent on the SVM dual, run to a fixed-point residual."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Q = np.outer(y, y) * K
    lipschitz = max(float(np.max(np.linalg.eigvalsh(Q))), 1e-12)
    step = 1.0 / lipschitz
    alpha = np.zeros(y.size)
    for _ in range(max_iters):
        grad = 1.0 - Q @ alpha
        nxt = project_box_hyperplane(alpha + step * grad, y, C)
        if float(np.max(np.abs(nxt - alpha))) <= tol:
            return nxt
        alpha = nxt
    raise AssertionError("projected-gradient oracle did not converge")


def reference_bias(K, y, alpha, C: float) -> float:
    """Bias rule matching the trainer: free-SV mean, else interval midpoint."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    margin = y - K @ (alpha * y)
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if np.any(free):
        return float(margin[free].mean())
    lower = ((alpha <= 1e-8) & (y > 0)) | ((alpha >= C - 1e-8) & (y < 0))
    upper = ((alpha <= 1e-8) & (y < 0)) | ((alpha >= C - 1e-8) & (y > 0))
    if not np.any(lower) or not np.any(upper):
        return 0.0
    return float(0.5 * (margin[lower].max() + margin[upper].min()))


def gaussian_solve(A, b) -> np.ndarray:
    """Dense solve by Gaussian elimination with partial pivoting."""
    a = np.array(A, dtype=np.float64, copy=True)
    rhs = np.array(b, dtype=np.float64, copy=True)
    n = rhs.size
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise AssertionError("singular system in elimination oracle")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            rhs[[col, pivot]] = rhs[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            rhs[row] -= factor * rhs[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def random_gate(rng: np.random.Generator, n_qubits: int) -> GateOp:
    """Uniformly pick a gate kind with random valid targets and angle."""
    kinds = [RY, H, PHASE] + ([PARITY_PHASE] if n_qubits >= 2 else [])
    kind = kinds[int(rng.integers(len(kinds)))]
    angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    if kind == PARITY_PHASE:
        j, k = rng.choice(n_qubits, size=2, replace=False)
        return GateOp(kind, (int(j), int(k)), angle)
    return GateOp(kind, (int(rng.integers(n_qubits)),), angle)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return amps / np.linalg.norm(amps)


def reference_shot_rows(cfg: KernelConfig, A, B) -> np.ndarray:
    """Shot-sampled kernel entries of the rows of A against the rows of B.

    The stream rule, written out: row a's stream is
    ``default_rng([rng_seed, w0, w1, w2, w3])``, with w the four
    little-endian 32-bit words of the first 16 bytes of the SHA-256 of a's
    float64 bytes. Entry (i, j) is the stream's j-th binomial draw, drawn one
    at a time, at the exact fidelity `kernel_value` gives for the matching
    `quantum_exact` config.
    """
    exact = KernelConfig(kind=QUANTUM_EXACT, feature_map=cfg.feature_map)
    rows = np.asarray(A, dtype=np.float64)
    out = np.empty((rows.shape[0], len(B)))
    for i, a in enumerate(rows):
        digest = hashlib.sha256(a.astype("<f8").tobytes()).digest()
        words = [int.from_bytes(digest[k:k + 4], "little") for k in range(0, 16, 4)]
        stream = np.random.default_rng([cfg.rng_seed, *words])
        for j, b in enumerate(B):
            out[i, j] = stream.binomial(cfg.shots, kernel_value(exact, a, b)) / cfg.shots
    return out
