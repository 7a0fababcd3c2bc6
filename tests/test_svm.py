import numpy as np
import pytest

import oracles
from oracles import decision_value, predict, reference_bias, reference_dual_solve
from qsarq import feature_maps, kernels, svm
from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import (
    KernelConfig,
    LINEAR,
    POLY,
    QUANTUM_EXACT,
    QUANTUM_SHOTS,
    RBF,
    GramMatrix,
    dataset_digest,
    gram,
)
from qsarq.svm import (
    SvmConfig,
    SvmModel,
    decision_values,
    load_svm_model,
    save_svm_model,
    train,
)

LIN = KernelConfig(kind=LINEAR)


def identity_gram(y):
    n = len(y)
    feats = np.eye(n)
    return gram(LIN, feats), feats


def random_problem(rng, n, d=2, gamma=1.0):
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    if np.all(y == y[0]):
        y[0] = -y[0]
    gm = gram(KernelConfig(kind=RBF, gamma=gamma), X)
    return X, y, gm


def test_two_point_analytic_dual():
    gm, feats = identity_gram([1, -1])
    model = train(gm, [1, -1], SvmConfig(C=1.0), features=feats)
    assert np.array_equal(model.alphas, [1.0, 1.0])
    assert model.bias == 0.0
    assert decision_value(model, feats[0]) == 1.0
    assert decision_value(model, feats[1]) == -1.0
    assert model.converged


def test_hard_margin_separable():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(3.0, 0.2, (6, 2)), rng.normal(-3.0, 0.2, (6, 2))])
    y = np.array([1] * 6 + [-1] * 6)
    gm = gram(LIN, X)
    model = train(gm, y, SvmConfig(C=1e6), features=X)
    preds = [predict(model, x) for x in X]
    assert np.array_equal(preds, y)


def test_xor_rbf_separates_linear_does_not():
    X = np.array([
        [0.0, 0.0], [1.0, 1.0], [0.1, 0.1], [0.9, 0.9],
        [0.0, 1.0], [1.0, 0.0], [0.1, 0.9], [0.9, 0.1],
    ])
    y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    rbf_model = train(gram(KernelConfig(kind=RBF, gamma=1.0), X), y,
                      SvmConfig(C=1.0), features=X)
    rbf_acc = np.mean([predict(rbf_model, x) == t for x, t in zip(X, y)])
    assert rbf_acc == 1.0
    lin_model = train(gram(LIN, X), y, SvmConfig(C=1.0), features=X)
    lin_acc = np.mean([predict(lin_model, x) == t for x, t in zip(X, y)])
    assert lin_acc <= 0.75
    # cross-check the linear accuracy against the reference dual solve
    K = gram(LIN, X).entries
    alpha = reference_dual_solve(K, y.astype(float), 1.0)
    bias = reference_bias(K, y.astype(float), alpha, 1.0)
    ref = np.sign(K @ (alpha * y) + bias)
    assert np.mean(ref == y) <= 0.75


def test_feasibility_and_kkt_on_random_datasets():
    rng = np.random.default_rng(21)
    cfg = SvmConfig(C=1.0)
    for _ in range(10):
        n = int(rng.integers(6, 20))
        X, y, gm = random_problem(rng, n)
        model = train(gm, y, cfg, features=X)
        assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= cfg.C)
        assert abs(np.sum(model.alphas * model.labels)) <= 1e-8
        if not model.converged:
            continue
        f = gm.entries @ (model.alphas * model.labels) + model.bias
        margin = y * f
        slack = 1e-8 * cfg.C  # clipping dust near the box bounds
        for i in range(n):
            if model.alphas[i] <= slack:
                assert margin[i] >= 1.0 - cfg.tol
            elif model.alphas[i] >= cfg.C - slack:
                assert margin[i] <= 1.0 + cfg.tol
            else:
                assert abs(margin[i] - 1.0) <= cfg.tol


def test_dual_objective_nondecreasing():
    rng = np.random.default_rng(17)
    for _ in range(5):
        _, y, gm = random_problem(rng, 16)
        model = train(gm, y, SvmConfig(C=1.0))
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-10)


def test_decision_values_match_projected_gradient_oracle():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        X, y, gm = random_problem(rng, n)
        model = train(gm, y, SvmConfig(C=1.0, tol=1e-6), features=X)
        alpha_ref = reference_dual_solve(gm.entries, y.astype(float), 1.0)
        bias_ref = reference_bias(gm.entries, y.astype(float), alpha_ref, 1.0)
        f_ref = gm.entries @ (alpha_ref * y) + bias_ref
        f_model = np.array([decision_value(model, x) for x in X])
        assert np.max(np.abs(f_model - f_ref)) <= 1e-4


def test_training_is_deterministic():
    rng = np.random.default_rng(9)
    X, y, gm = random_problem(rng, 14)
    first = train(gm, y, SvmConfig(C=0.7), features=X)
    second = train(gm, y, SvmConfig(C=0.7), features=X)
    assert np.array_equal(first.alphas, second.alphas)
    assert first.bias == second.bias


def test_degenerate_model_returns_bias():
    model = SvmModel(
        alphas=np.zeros(3),
        bias=0.25,
        labels=np.array([1, -1, 1]),
        kernel_config=LIN,
        training_features=np.eye(3),
    )
    assert decision_value(model, [5.0, 1.0, -2.0]) == 0.25


def test_support_vector_query_with_orthogonal_features():
    gm, feats = identity_gram([1, 1, -1, -1])
    model = train(gm, [1, 1, -1, -1], SvmConfig(C=2.0), features=feats)
    i = int(model.support_indices[0])
    expected = model.alphas[i] * model.labels[i] + model.bias
    assert abs(decision_value(model, feats[i]) - expected) <= 1e-12


def test_predict_tie_goes_positive():
    model = SvmModel(
        alphas=np.zeros(2),
        bias=0.0,
        labels=np.array([1, -1]),
        kernel_config=LIN,
        training_features=np.eye(2),
    )
    assert predict(model, [0.3, 0.3]) == 1


def test_train_input_validation():
    gm, feats = identity_gram([1, -1])
    with pytest.raises(ValueError):
        train(gm, [1, 1])  # single class
    with pytest.raises(ValueError):
        train(gm, [1, 0])  # bad label alphabet
    with pytest.raises(ValueError):
        train(gm, [1])  # length mismatch
    bad = GramMatrix(entries=np.array([[1.0, np.nan], [np.nan, 1.0]]),
                     kernel_config=LIN, dataset_digest=gm.dataset_digest)
    with pytest.raises(ValueError):
        train(bad, [1, -1])
    with pytest.raises(ValueError):
        train(gm, [1, -1], features=np.eye(3))  # wrong row count
    with pytest.raises(ValueError):
        train(gm, [1, -1], features=np.eye(2) * 2.0)  # digest mismatch


def test_iteration_budget_flags_nonconverged():
    rng = np.random.default_rng(33)
    X, y, gm = random_problem(rng, 20)
    model = train(gm, y, SvmConfig(C=1.0, max_iters=1))
    assert not model.converged


def test_model_round_trip_preserves_decision_values(tmp_path):
    rng = np.random.default_rng(2)
    spec = FeatureMapSpec("zz", 2, reps=1)
    cfg = KernelConfig(kind=QUANTUM_EXACT, feature_map=spec)
    X = rng.random((8, 2))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
    if np.all(y == y[0]):
        y[0] = -y[0]
    model = train(gram(cfg, X), y, SvmConfig(C=1.0), features=X)
    path = tmp_path / "model.txt"
    save_svm_model(model, path)
    loaded = load_svm_model(path)
    assert loaded.converged == model.converged
    queries = rng.random((5, 2))
    for q in queries:
        assert decision_value(loaded, q) == decision_value(model, q)


def test_loading_rejects_other_formats(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_svm_model(path)


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 3, reps=2)),
    KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("custom", 3, reps=2),
                 shots=128, rng_seed=6),
    KernelConfig(kind=LINEAR),
    KernelConfig(kind=POLY, degree=2, offset=1.0),
    KernelConfig(kind=RBF, gamma=2.0),
], ids=lambda cfg: cfg.kind)
def test_decision_values_match_decision_value(cfg):
    rng = np.random.default_rng(5)
    X = rng.random((24, 3))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
    jitter = 0.05 if cfg.kind == QUANTUM_SHOTS else 0.0
    model = train(gram(cfg, X, jitter=jitter), y, SvmConfig(C=1.0), features=X)
    queries = np.vstack([rng.random((7, 3)), X[:3]])
    batched = decision_values(model, queries)
    reference = np.array([decision_value(model, q) for q in queries])
    assert batched.shape == (10,)
    assert np.max(np.abs(batched - reference)) <= 1e-12
    with pytest.raises(ValueError):
        decision_values(model, queries[:, :2])


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 3, reps=2)),
    KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("custom", 3, reps=2,
                                                                entanglement="full")),
    KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("zz", 3, reps=2),
                 shots=200, rng_seed=11),
    KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("custom", 3, reps=2,
                                                                entanglement="full"),
                 shots=200, rng_seed=11),
    KernelConfig(kind=LINEAR),
    KernelConfig(kind=RBF, gamma=0.7),
], ids=["zz-exact", "custom-exact", "zz-shots", "custom-shots", "linear", "rbf"])
def test_single_point_wrappers_match_the_gate_list_oracles(cfg):
    # feature_maps.encode, kernels.kernel_value and svm.decision_value run
    # the batched path on one point; the oracles run the gate list
    rng = np.random.default_rng(21)
    A, B = rng.random((6, 3)), rng.random((4, 3))
    B[1] = A[2]
    if cfg.feature_map is not None:
        for a in A:
            state = feature_maps.encode(cfg.feature_map, a)
            ref = oracles.encode(cfg.feature_map, a).amplitudes
            assert np.max(np.abs(state - ref)) <= 1e-12
    for a in A:
        for b in B:
            value, ref = kernels.kernel_value(cfg, a, b), oracles.kernel_value(cfg, a, b)
            if cfg.kind == QUANTUM_SHOTS:
                assert value == ref
            else:
                assert abs(value - ref) <= 1e-12
    X = rng.random((24, 3))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
    jitter = 0.05 if cfg.kind == QUANTUM_SHOTS else 0.0
    model = train(gram(cfg, X, jitter=jitter), y, SvmConfig(C=1.0), features=X)
    for a in A:
        assert abs(svm.decision_value(model, a) - decision_value(model, a)) <= 1e-12


def test_indefinite_pair_moves_to_the_box_corner():
    # K_00 + K_11 - 2 K_01 < 0: the curvature along the pair is replaced by
    # TAU, and the objective, unbounded on the line, is maximized at the box
    K = np.array([[1.0, 1.2], [1.2, 1.0]])
    gm = GramMatrix(entries=K, kernel_config=LIN, dataset_digest="indefinite")
    model = train(gm, [1, -1], SvmConfig(C=0.5))
    assert np.array_equal(model.alphas, [0.5, 0.5])
    assert model.converged
    trace = np.array(model.objective_trace)
    assert np.all(np.diff(trace) >= 0.0) and trace[-1] > trace[0]


def test_support_set_stable_under_gram_rounding():
    # SMO's last clip can leave multipliers of about 1e-17; they are snapped
    # to 0, so a rounding-level change of K does not change the support set
    spec = FeatureMapSpec("zz", 3, reps=2)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 3))
        y = np.where(X[:, 0] + 0.3 * X[:, 1] + 0.2 * rng.standard_normal(30) > 0.6, 1, -1)
        for cfg in (LIN, KernelConfig(kind=QUANTUM_EXACT, feature_map=spec)):
            gm = gram(cfg, X)
            noise = 1e-13 * rng.standard_normal((30, 30))
            perturbed = GramMatrix(gm.entries + (noise + noise.T) / 2, cfg,
                                   gm.dataset_digest)
            model = train(gm, y, SvmConfig(C=1.0))
            again = train(perturbed, y, SvmConfig(C=1.0))
            assert model.support_indices.size == again.support_indices.size
            assert np.all(model.alphas[model.support_indices] > 1e-8)
