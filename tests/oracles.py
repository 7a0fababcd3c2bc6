"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths it is used to check:
gates become explicit Kronecker-product matrices, eigenproblems go
through hand-rolled Jacobi rotations, the SVM dual is solved by
projected gradient ascent, linear systems by Gaussian elimination, and
shot draws one entry at a time from the gate-list fidelities.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from qsarq.feature_maps import ZZ, FeatureMapSpec, _phase_diagonal
from qsarq.kernels import QUANTUM_EXACT, KernelConfig, kernel_value
from qsarq.statevector import H, PARITY_PHASE, PHASE, RY, GateOp

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


def butterfly_states(spec: FeatureMapSpec, X) -> np.ndarray:
    """Encoded rows of X, every H or RY layer run as butterflies from |0...0>.

    Each repetition applies, for every qubit, one butterfly over the pairs
    of amplitudes that differ in that qubit's bit, then the repetition's
    phase diagonal (taken from the encoder, which this does not check).
    """
    X = np.asarray(X, dtype=np.float64)
    rows, n = X.shape
    states = np.zeros((rows, 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0
    cos, sin = np.cos(X)[:, :, None, None], np.sin(X)[:, :, None, None]
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
        states *= _phase_diagonal(spec, X)
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
