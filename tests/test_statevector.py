import math

import numpy as np
import pytest

from oracles import (
    H,
    PARITY_PHASE,
    PHASE,
    RY,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    inner_product,
    new_zero_state,
    random_gate,
    random_state,
)
from qsarq.errors import ResourceLimitError


def test_zero_state_one_qubit():
    state = new_zero_state(1)
    assert np.array_equal(state.amplitudes, [1.0 + 0.0j, 0.0])


def test_zero_state_two_qubits():
    state = new_zero_state(2)
    assert np.array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_zero_state_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        new_zero_state(0)


def test_zero_state_respects_qubit_cap():
    with pytest.raises(ResourceLimitError):
        new_zero_state(25)
    # a custom cap overrides the default
    assert new_zero_state(5, qubit_cap=5).n_qubits == 5
    with pytest.raises(ResourceLimitError):
        new_zero_state(6, qubit_cap=5)


def test_ry_pi_flips_zero():
    state = apply_gate(new_zero_state(1), GateOp(RY, (0,), math.pi))
    assert abs(state.amplitudes[0]) < 1e-15
    assert abs(state.amplitudes[1] - 1.0) < 1e-15


def test_ry_zero_is_identity():
    rng = np.random.default_rng(11)
    state = StateVector(3, random_state(rng, 3))
    out = apply_gate(state, GateOp(RY, (1,), 0.0))
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15, rtol=0)


def test_parity_phase_on_plus_state():
    # (|00> + |01>)/sqrt(2) picks up e^{i pi/3} on the odd-parity amplitude;
    # expected values frozen from the dense 4x4 unitary oracle
    start = StateVector(2, np.array([1, 1, 0, 0], dtype=np.complex128) / math.sqrt(2))
    out = apply_gate(start, GateOp(PARITY_PHASE, (0, 1), math.pi / 3))
    expected = np.array(
        [0.7071067811865475, 0.3535533905932738 + 0.6123724356957945j, 0.0, 0.0]
    )
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-10


def test_inner_product_self_is_one():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        psi = StateVector(n, random_state(rng, n))
        assert abs(inner_product(psi, psi) - 1.0) <= 1e-12


def test_inner_product_orthogonal_basis_states():
    zero = new_zero_state(1)
    one = apply_gate(zero, GateOp(RY, (0,), math.pi))
    assert abs(inner_product(zero, one)) < 1e-15


def test_inner_product_ry_half_pi():
    rotated = apply_gate(new_zero_state(1), GateOp(RY, (0,), math.pi / 2))
    value = inner_product(rotated, new_zero_state(1))
    assert abs(value - math.cos(math.pi / 4)) <= 1e-15


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(new_zero_state(1), new_zero_state(2))


def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("cnot", (0, 1))
    with pytest.raises(ValueError):
        GateOp(RY, (0, 1), 0.3)
    with pytest.raises(ValueError):
        GateOp(PARITY_PHASE, (1, 1), 0.3)
    with pytest.raises(ValueError):
        GateOp(PHASE, (-1,), 0.3)
    with pytest.raises(ValueError):
        GateOp(RY, (0,), float("nan"))


def test_gate_target_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(new_zero_state(2), GateOp(H, (2,)))


def test_norm_preserved_for_random_gates():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        state = StateVector(n, random_state(rng, n))
        out = apply_gate(state, random_gate(rng, n))
        assert abs(out.norm() - 1.0) <= 1e-10


def test_random_circuits_match_dense_unitary_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = [random_gate(rng, n) for _ in range(10)]
        start = random_state(rng, n)
        expected = circuit_unitary(gates, n) @ start
        got = apply_circuit(StateVector(n, start.copy()), gates)
        assert np.max(np.abs(got.amplitudes - expected)) <= 1e-10


def test_parity_phase_gates_commute():
    # diagonal gates commute; float rounding of the two application orders
    # agrees to the last couple of ulps
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        state = StateVector(n, random_state(rng, n))
        pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(2)]
        g1 = GateOp(PARITY_PHASE, pairs[0], float(rng.uniform(0, 2 * math.pi)))
        g2 = GateOp(PARITY_PHASE, pairs[1], float(rng.uniform(0, 2 * math.pi)))
        one = apply_gate(apply_gate(state, g1), g2)
        other = apply_gate(apply_gate(state, g2), g1)
        assert np.max(np.abs(one.amplitudes - other.amplitudes)) <= 1e-15


def test_apply_gate_is_pure():
    rng = np.random.default_rng(3)
    state = StateVector(3, random_state(rng, 3))
    snapshot = state.amplitudes.copy()
    apply_gate(state, GateOp(H, (2,)))
    apply_gate(state, GateOp(PARITY_PHASE, (0, 2), 1.1))
    assert np.array_equal(state.amplitudes, snapshot)
