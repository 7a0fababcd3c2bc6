import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from oracles import (
    butterfly_states,
    circuit_unitary,
    encode,
    encoding_circuit,
    phase_diagonals,
    phase_terms,
)
from qsarq.errors import ResourceLimitError
from qsarq.feature_maps import (
    CUSTOM,
    DEFAULT_QUBIT_CAP,
    DEFAULT_STACK_BYTES,
    FULL,
    LINEAR,
    MAX_REPS,
    ZZ,
    FeatureMapSpec,
    _phase_diagonals,
    check_state_stack,
    encode_batch,
    entanglement_pairs,
)


def test_linear_pairs_three_qubits():
    assert entanglement_pairs(LINEAR, 3) == [(0, 1), (1, 2)]


def test_full_pairs_three_qubits():
    assert entanglement_pairs(FULL, 3) == [(0, 1), (0, 2), (1, 2)]


def test_single_qubit_has_no_pairs():
    assert entanglement_pairs(LINEAR, 1) == []
    assert entanglement_pairs(FULL, 1) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_counts(n):
    assert len(entanglement_pairs(LINEAR, n)) == n - 1
    assert len(entanglement_pairs(FULL, n)) == n * (n - 1) // 2


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec("bogus", 2)
    with pytest.raises(ValueError):
        FeatureMapSpec(ZZ, 0)
    with pytest.raises(ValueError):
        FeatureMapSpec(ZZ, 2, reps=0)
    with pytest.raises(ValueError):
        FeatureMapSpec(ZZ, 2, entanglement="ring")
    for reps in (MAX_REPS + 1, 10**30):
        with pytest.raises(ValueError, match=f"reps must be <= {MAX_REPS}, got {reps}"):
            FeatureMapSpec(ZZ, 2, reps=reps)
    assert FeatureMapSpec(ZZ, 2, reps=MAX_REPS).reps == MAX_REPS


def test_spec_dict_round_trip():
    spec = FeatureMapSpec(CUSTOM, 3, reps=4, entanglement=FULL)
    assert FeatureMapSpec.from_dict(spec.to_dict()) == spec


def test_custom_identity_at_zero():
    state = encode(FeatureMapSpec(CUSTOM, 1, reps=1), [0.0])
    assert np.array_equal(state.amplitudes, [1.0 + 0.0j, 0.0])


def test_zz_single_qubit_at_zero_is_plus_state():
    state = encode(FeatureMapSpec(ZZ, 1, reps=1), [0.0])
    expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-15


def test_zz_two_qubit_reps2_matches_dense_oracle():
    spec = FeatureMapSpec(ZZ, 2, reps=2, entanglement=LINEAR)
    x = [0.1, 0.2]
    state = encode(spec, x)
    # frozen from the Kronecker-product oracle over the same gate list
    expected = np.array([
        0.8507851423714933 - 0.16201679268694302j,
        -0.015697554690139476 - 0.12474543181151523j,
        -0.08402861923706051 - 0.16056402766588712j,
        -0.19981815649630505 + 0.40166958178271533j,
    ])
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-10
    oracle = circuit_unitary(encoding_circuit(spec, x), 2) @ np.eye(4)[:, 0]
    assert np.max(np.abs(state.amplitudes - oracle)) <= 1e-10


def test_encodings_stay_normalized():
    rng = np.random.default_rng(99)
    for family in (ZZ, CUSTOM):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            spec = FeatureMapSpec(family, n, reps=int(rng.integers(1, 3)),
                                  entanglement=FULL if rng.random() < 0.5 else LINEAR)
            state = encode(spec, rng.random(n))
            assert abs(state.norm() - 1.0) <= 1e-10


def test_encode_is_deterministic():
    spec = FeatureMapSpec(ZZ, 3, reps=2, entanglement=FULL)
    x = [0.3, 0.6, 0.9]
    first = encode(spec, x).amplitudes
    second = encode(spec, x).amplitudes
    assert np.array_equal(first, second)


def test_reps_compose():
    x = [0.25, 0.5, 0.75]
    for family in (ZZ, CUSTOM):
        one = FeatureMapSpec(family, 3, reps=1, entanglement=LINEAR)
        two = FeatureMapSpec(family, 3, reps=2, entanglement=LINEAR)
        from oracles import apply_circuit

        stacked = apply_circuit(encode(one, x), encoding_circuit(one, x))
        direct = encode(two, x)
        assert np.max(np.abs(stacked.amplitudes - direct.amplitudes)) <= 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        encode(FeatureMapSpec(ZZ, 2), [0.1, 0.2, 0.3])


def test_nonfinite_feature_rejected():
    with pytest.raises(ValueError):
        encode(FeatureMapSpec(ZZ, 2), [0.1, float("inf")])


def test_out_of_range_features_warn_but_encode():
    with pytest.warns(UserWarning):
        state = encode(FeatureMapSpec(CUSTOM, 2, reps=1), [1.5, -0.2])
    assert abs(state.norm() - 1.0) <= 1e-10


@pytest.mark.parametrize("family", [ZZ, CUSTOM])
@pytest.mark.parametrize("entanglement", [LINEAR, FULL])
@pytest.mark.parametrize("reps", [1, 2, 3])
def test_encode_batch_matches_gate_list_and_dense_oracle(family, entanglement, reps):
    from oracles import apply_circuit, new_zero_state

    rng = np.random.default_rng(reps)
    for n in (1, 2, 3, 4):
        spec = FeatureMapSpec(family, n, reps=reps, entanglement=entanglement)
        X = rng.random((5, n))
        states = encode_batch(spec, X)
        assert states.shape == (5, 1 << n)
        for x, state in zip(X, states):
            gates = encoding_circuit(spec, x)
            ref = apply_circuit(new_zero_state(n), gates).amplitudes
            oracle = circuit_unitary(gates, n)[:, 0]
            assert np.max(np.abs(state - ref)) <= 1e-12
            assert np.max(np.abs(state - oracle)) <= 1e-12


@pytest.mark.parametrize("family", [ZZ, CUSTOM])
@pytest.mark.parametrize("entanglement", [LINEAR, FULL])
@pytest.mark.parametrize("reps", [1, 2])
def test_encode_batch_equals_butterflies_from_the_zero_state(family, entanglement, reps):
    # given the package's phase diagonals, the butterflies check the H and RY
    # layers alone. custom: the same arithmetic, bit for bit. ZZ: the H layers
    # are matrix products, whose rounding differs from the butterflies'
    X = np.random.default_rng(11).random((40, 6))
    for n in range(1, 7):
        spec = FeatureMapSpec(family, n, reps=reps, entanglement=entanglement)
        diag = np.empty((40, 1 << n), dtype=np.complex128)
        _phase_diagonals(spec, X[:, :n], diag, np.empty_like(diag))
        states, ref = encode_batch(spec, X[:, :n]), butterfly_states(spec, X[:, :n], diag)
        if family == CUSTOM:
            assert np.array_equal(states, ref)
        else:
            assert np.max(np.abs(states - ref)) <= 1e-14


@pytest.mark.parametrize("family", [ZZ, CUSTOM])
@pytest.mark.parametrize("entanglement", [LINEAR, FULL])
def test_phase_diagonals_match_the_full_table(family, entanglement):
    for n in range(1, 11):
        spec = FeatureMapSpec(family, n, entanglement=entanglement)
        X = np.random.default_rng(n).random((7, n))
        diag = np.empty((7, 1 << n), dtype=np.complex128)
        _phase_diagonals(spec, X, diag, np.empty((4, 1 << n), dtype=np.complex128))
        assert np.max(np.abs(diag - phase_diagonals(spec, X))) <= 1e-12


@pytest.mark.parametrize("family", [ZZ, CUSTOM])
@pytest.mark.parametrize("entanglement", [LINEAR, FULL])
def test_phase_diagonals_meet_a_forward_error_bound_against_mpmath(family, entanglement):
    # the reference takes the same float64 angles as exact and sums and
    # exponentiates them at 200 bits. Each angle term t may cost a few eps per
    # unit of |angle_t| (the rounding of a phase that large) plus one rounding
    # of a product; the full table (the oracle) must meet the same bound
    eps = np.finfo(np.float64).eps
    for n in range(1, 11):
        spec = FeatureMapSpec(family, n, entanglement=entanglement)
        X = np.random.default_rng(100 + n).random((2, n))
        diag = np.empty((2, 1 << n), dtype=np.complex128)
        _phase_diagonals(spec, X, diag, np.empty((1, 1 << n), dtype=np.complex128))
        angles, table = phase_terms(spec, X)
        for row, terms, table_row in zip(diag, angles, phase_diagonals(spec, X)):
            bound = 4 * eps * (np.sum(np.abs(terms)) + len(terms))
            with mp.workprec(200):  # enough bits to sum these float64 angles exactly
                exact = [mp.expj(mp.fsum(mp.mpf(float(terms[t])) for t in np.flatnonzero(bits)))
                         for bits in table]
                for got in (row, table_row):
                    err = max(abs(mp.mpc(complex(z)) - ref) for z, ref in zip(got, exact))
                    assert err <= bound, (n, float(err), bound)


@pytest.mark.parametrize("entanglement", [LINEAR, FULL])
@pytest.mark.parametrize("reps", [1, 2, 3])
def test_encode_batch_matches_gate_list_at_ten_qubits(entanglement, reps):
    from oracles import apply_circuit, new_zero_state

    spec = FeatureMapSpec(ZZ, 10, reps=reps, entanglement=entanglement)
    X = np.random.default_rng(10 + reps).random((3, 10))
    for x, state in zip(X, encode_batch(spec, X)):
        ref = apply_circuit(new_zero_state(10), encoding_circuit(spec, x)).amplitudes
        assert np.max(np.abs(state - ref)) <= 1e-12


def test_encode_batch_validation():
    spec = FeatureMapSpec(ZZ, 2)
    with pytest.raises(ValueError):
        encode_batch(spec, [0.1, 0.2])  # one vector, not a matrix
    with pytest.raises(ValueError):
        encode_batch(spec, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError):
        encode_batch(spec, [[0.1, float("nan")]])
    with pytest.warns(UserWarning):
        states = encode_batch(FeatureMapSpec(CUSTOM, 2, reps=1), [[1.5, -0.2]])
    assert abs(np.linalg.norm(states[0]) - 1.0) <= 1e-10
    assert encode_batch(spec, np.empty((0, 2))).shape == (0, 4)


def test_encode_batch_phase_table_is_built_once_beside_the_stack():
    # no phase table is built, and no temporary grows with rows x pairs: the
    # angles and their exps live one block of rows at a time
    spec = FeatureMapSpec(ZZ, 10, reps=2, entanglement=FULL)
    for rows in (300, 3000):
        X = np.random.default_rng(4).random((rows, 10))
        tracemalloc.start()
        try:
            states = encode_batch(spec, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - states.nbytes <= 1.5 * (1 << 20), rows


def test_encode_batch_budget_checked_before_allocating():
    spec = FeatureMapSpec(ZZ, 24, reps=1)
    X = np.full((5, 24), 0.5)  # 5 x 2^24 x 16 bytes: over the 1 GiB budget
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            encode_batch(spec, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ResourceLimitError):
        check_state_stack(1, DEFAULT_QUBIT_CAP + 1)
    with pytest.raises(ResourceLimitError):
        check_state_stack(DEFAULT_STACK_BYTES // 16 + 1, 0)
    check_state_stack(DEFAULT_STACK_BYTES // (16 << 10), 10)  # exactly at the budget
