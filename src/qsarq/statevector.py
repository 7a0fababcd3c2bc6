"""Dense statevector simulation.

States live in the computational basis with qubit 0 on the least
significant bit of the amplitude index, so ``|q1 q0> = |binary index>``.
Only the gates needed by the data-encoding circuits are implemented:
RY and H rotations, a single-qubit phase, and a two-qubit parity phase
(a phase on the odd-parity subspace, equal to the usual ZZ interaction
up to a global phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError

RY = "ry"
H = "h"
PHASE = "phase"
PARITY_PHASE = "parity_phase"

_ONE_QUBIT_KINDS = frozenset({RY, H, PHASE})
_TWO_QUBIT_KINDS = frozenset({PARITY_PHASE})

DEFAULT_QUBIT_CAP = 24
# largest stack of statevectors (rows x 2^n complex128 amplitudes) built at once
DEFAULT_STACK_BYTES = 1 << 30
# working set of one block of batched work: rows are encoded and multiplied
# a block at a time so temporaries stay near this size
BLOCK_BYTES = 1 << 18

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
