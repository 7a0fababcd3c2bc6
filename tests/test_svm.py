import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest

import oracles
from oracles import decision_value, predict, reference_bias, reference_dual_solve
from qsarq import feature_maps, fields, kernels, pipeline, regression, svm
from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import (
    KernelConfig,
    LINEAR,
    POLY,
    QUANTUM_EXACT,
    QUANTUM_SHOTS,
    RBF,
    GramMatrix,
    gram,
)
from qsarq.svm import (
    SvmConfig,
    SvmModel,
    decision_values,
    load_svm_model,
    save_svm_model,
    solve_dual,
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
    model = train(gm, [1, -1], SvmConfig(C=1.0))
    assert np.array_equal(model.support_vectors, feats)
    assert np.array_equal(model.dual_coef, [1.0, -1.0])
    assert model.bias == 0.0
    assert decision_value(model, feats[0]) == 1.0
    assert decision_value(model, feats[1]) == -1.0
    assert model.converged


def test_hard_margin_separable():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(3.0, 0.2, (6, 2)), rng.normal(-3.0, 0.2, (6, 2))])
    y = np.array([1] * 6 + [-1] * 6)
    gm = gram(LIN, X)
    model = train(gm, y, SvmConfig(C=1e6))
    preds = [predict(model, x) for x in X]
    assert np.array_equal(preds, y)


def test_xor_rbf_separates_linear_does_not():
    X = np.array([
        [0.0, 0.0], [1.0, 1.0], [0.1, 0.1], [0.9, 0.9],
        [0.0, 1.0], [1.0, 0.0], [0.1, 0.9], [0.9, 0.1],
    ])
    y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    rbf_model = train(gram(KernelConfig(kind=RBF, gamma=1.0), X), y,
                      SvmConfig(C=1.0))
    rbf_acc = np.mean([predict(rbf_model, x) == t for x, t in zip(X, y)])
    assert rbf_acc == 1.0
    lin_model = train(gram(LIN, X), y, SvmConfig(C=1.0))
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
        alphas, bias, converged = solve_dual(gm, y, cfg)
        assert np.all(alphas >= 0.0) and np.all(alphas <= cfg.C)
        assert abs(np.sum(alphas * y)) <= 1e-8
        if not converged:
            continue
        f = gm.entries @ (alphas * y) + bias
        margin = y * f
        slack = 1e-8 * cfg.C  # clipping dust near the box bounds
        for i in range(n):
            if alphas[i] <= slack:
                assert margin[i] >= 1.0 - cfg.tol
            elif alphas[i] >= cfg.C - slack:
                assert margin[i] <= 1.0 + cfg.tol
            else:
                assert abs(margin[i] - 1.0) <= cfg.tol


def dual_objective(gm, y, alphas):
    """sum(a) - 1/2 (a y)^T K (a y), which SMO raises: minus the f it minimizes."""
    ay = alphas * np.asarray(y, dtype=np.float64)
    return alphas.sum() - 0.5 * ay @ gm.entries @ ay


def test_dual_objective_nondecreasing():
    # the objective of the multipliers returned as the update budget grows
    rng = np.random.default_rng(17)
    for _ in range(5):
        _, y, gm = random_problem(rng, 16)
        solves = [solve_dual(gm, y, SvmConfig(C=1.0, max_iters=m)) for m in range(1, 60)]
        assert not solves[0][2] and solves[-1][2]
        objectives = [dual_objective(gm, y, alphas) for alphas, _, _ in solves]
        assert np.all(np.diff(objectives) >= -1e-10)


def assert_state_is_consistent(gm, y, cfg):
    """The bias, read off SMO's kept scores, against the bias computed from K."""
    alphas, bias, _ = solve_dual(gm, y, cfg)
    y = np.asarray(y, dtype=np.float64)
    assert abs(bias - reference_bias(gm.entries, y, alphas, cfg.C)) <= 1e-12
    return alphas


def test_bias_reads_scores_consistent_with_the_multipliers():
    rng = np.random.default_rng(44)
    for _ in range(40):
        _, y, gm = random_problem(rng, int(rng.integers(4, 30)), gamma=rng.uniform(0.2, 3.0))
        cfg = SvmConfig(C=float(rng.choice([0.1, 1.0, 10.0])), tol=float(rng.choice([1e-3, 0.1])),
                        max_iters=int(rng.choice([5, 100_000])))
        assert_state_is_consistent(gm, y, cfg)


def test_snap_onto_the_cap_moves_the_gradient_too():
    # one step takes both multipliers to 1, within the clipping slack of
    # C = 1 + 5e-9; the snap puts them at C, which moves the scores by
    # about 1e-9, so scores left behind give the wrong bias
    K = np.array([[1.0, 0.5], [0.5, 2.0]])
    gm = GramMatrix(entries=K, kernel_config=LIN, rows=np.eye(2))
    C = 1.0 + 5e-9
    alphas = assert_state_is_consistent(gm, [1, -1], SvmConfig(C=C))
    assert np.array_equal(alphas, [C, C])


def test_decision_values_match_projected_gradient_oracle():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        X, y, gm = random_problem(rng, n)
        model = train(gm, y, SvmConfig(C=1.0, tol=1e-6))
        alpha_ref = reference_dual_solve(gm.entries, y.astype(float), 1.0)
        bias_ref = reference_bias(gm.entries, y.astype(float), alpha_ref, 1.0)
        f_ref = gm.entries @ (alpha_ref * y) + bias_ref
        f_model = np.array([decision_value(model, x) for x in X])
        assert np.max(np.abs(f_model - f_ref)) <= 1e-4


def test_training_is_deterministic():
    rng = np.random.default_rng(9)
    X, y, gm = random_problem(rng, 14)
    first = solve_dual(gm, y, SvmConfig(C=0.7))
    second = solve_dual(gm, y, SvmConfig(C=0.7))
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


ZZ3 = FeatureMapSpec("zz", 3, reps=2)


GOLDEN_CFGS = [LIN, KernelConfig(kind=RBF, gamma=0.7),
               KernelConfig(kind=QUANTUM_EXACT, feature_map=ZZ3),
               KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ3, shots=128, rng_seed=4)]


def golden_problem():
    rng = np.random.default_rng(31)
    X = rng.random((40, 3))
    return X, np.where(X[:, 0] + X[:, 1] + 0.3 * rng.standard_normal(40) > 1.0, 1, -1)


# frozen from seeded solves: the sha256 prefix of the multipliers' bytes, repr(bias),
# converged; the Gram entries are exactly rounded (`oracles.exactly_rounded_gram`),
# so no BLAS kernel or CPU-dispatched loop changes the bits SMO is given
@pytest.mark.parametrize("cfg, svm_cfg, golden", [
    (GOLDEN_CFGS[0], SvmConfig(C=1.0), ("0c07d7cdf88478b5", "-2.182881900917795", True)),
    (GOLDEN_CFGS[1], SvmConfig(C=2.0), ("5a392a83fb292581", "0.1599333148887969", True)),
    (GOLDEN_CFGS[2], SvmConfig(C=1.0), ("0ac0b68499325a00", "-0.21943152627708398", True)),
    (GOLDEN_CFGS[3], SvmConfig(C=1.0, jitter=0.05),
     ("d84f8269b9e94b6d", "-0.23006594201622407", True)),
    (GOLDEN_CFGS[1], SvmConfig(C=2.0, max_iters=9),
     ("bcd7a1152e27fc4a", "0.46029563798581724", False)),
], ids=["linear", "rbf", "zz-exact", "zz-shots", "rbf-max-iters"])
def test_seeded_solves_give_the_golden_bits(cfg, svm_cfg, golden):
    X, y = golden_problem()
    gm = GramMatrix(oracles.exactly_rounded_gram(cfg, X), cfg, X)
    alphas, bias, converged = solve_dual(gm, y, svm_cfg)
    assert (hashlib.sha256(alphas.tobytes()).hexdigest()[:16], repr(bias), converged) == golden


@pytest.mark.parametrize("cfg", GOLDEN_CFGS[:3], ids=["linear", "rbf", "zz-exact"])
def test_gram_is_the_exactly_rounded_matrix_to_1e12(cfg):
    X, _ = golden_problem()
    assert np.max(np.abs(gram(cfg, X).entries - oracles.exactly_rounded_gram(cfg, X))) <= 1e-12


def test_jitter_goes_on_a_copy_of_the_diagonal():
    X, y = golden_problem()
    gm = gram(GOLDEN_CFGS[3], X)
    entries = gm.entries.copy()
    jittered = GramMatrix(entries + 0.5 * np.eye(40), gm.kernel_config, X)
    got = solve_dual(gm, y, SvmConfig(jitter=0.5))
    assert np.array_equal(gm.entries, entries)
    want = solve_dual(jittered, y, SvmConfig())
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_smo_converges_with_no_jitter_on_an_indefinite_16_shot_matrix():
    rng = np.random.default_rng(3)
    X = rng.random((90, 3))
    y = np.where(X[:, 0] + X[:, 1] + 0.3 * rng.standard_normal(90) > 1.0, 1, -1)
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ3, shots=16, rng_seed=2)
    gm = gram(cfg, X)
    assert np.linalg.eigvalsh(gm.entries)[0] < 0.0
    alphas, _, converged = solve_dual(gm, y, SvmConfig(C=1.0))
    assert converged and np.count_nonzero(alphas) > 0


def test_svm_config_refuses_a_negative_jitter():
    for jitter in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            SvmConfig(jitter=jitter)


NAN = float("nan")
LINE = (np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), regression.BasisSpec(regression.AFFINE, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: SvmConfig(C=NAN), "C must be > 0"),
    (lambda: SvmConfig(tol=NAN), "tol must be > 0"),
    (lambda: regression.AnnealSchedule(t0=NAN), "t0 must be > 0"),
    (lambda: regression.fit_annealing(*LINE, regression.AnnealSchedule(), seed=0, ridge=NAN),
     "ridge must be >= 0"),
    (lambda: regression.fit_least_squares(*LINE, ridge=NAN), "ridge must be >= 0"),
], ids=["svm C", "svm tol", "anneal t0", "anneal ridge", "least-squares ridge"])
def test_nan_solver_settings_are_refused_naming_the_setting(make, message):
    # NaN fails every comparison, so a bound written as `x <= 0` lets it through
    with pytest.raises(ValueError, match=message):
        make()


NUMBER_BAD = [NAN, math.inf, -math.inf, True, "1"]
COUNT_BAD = [NAN, math.inf, -math.inf, True, 10.0, "10"]
SETTING_CASES = [
    (owner, make, setting, bad)
    for owner, make, settings in [
        ("SvmConfig", SvmConfig, {"C": NUMBER_BAD, "tol": NUMBER_BAD, "jitter": NUMBER_BAD,
                                  "max_iters": COUNT_BAD}),
        ("AnnealSchedule", regression.AnnealSchedule,
         {"t0": NUMBER_BAD, "cooling": NUMBER_BAD, "iterations": COUNT_BAD}),
        ("BasisSpec", lambda **kw: regression.BasisSpec(**{"kind": regression.AFFINE,
                                                           "n_features": 1, **kw}),
         {"n_features": COUNT_BAD}),
        ("fit_least_squares", lambda **kw: regression.fit_least_squares(*LINE, **kw),
         {"ridge": NUMBER_BAD, "threshold": NUMBER_BAD}),
        ("fit_annealing", lambda **kw: regression.fit_annealing(
            *LINE, regression.AnnealSchedule(), **{"seed": 0, **kw}),
         {"ridge": NUMBER_BAD, "threshold": NUMBER_BAD, "seed": COUNT_BAD}),
        ("split_indices", lambda **kw: pipeline.split_indices(**{"n_rows": 10, "fraction": 0.5,
                                                                  "seed": 0, **kw}),
         {"fraction": NUMBER_BAD, "seed": COUNT_BAD}),
    ]
    for setting, bads in settings.items() for bad in bads
]


@pytest.mark.parametrize("owner, make, setting, bad", SETTING_CASES,
                         ids=[f"{o}-{s}-{b!r}" for o, _, s, b in SETTING_CASES])
def test_bad_setting_values_are_refused_naming_the_setting(owner, make, setting, bad):
    # a value the config rule refuses is refused here too, before any numpy
    # work: a RuntimeWarning from the solver fails the test (pyproject.toml)
    with pytest.raises(ValueError, match=rf"(^|: ){setting} must be "):
        make(**{setting: bad})


FM2 = FeatureMapSpec("zz", 2)
ABOVE_0, BELOW_1 = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)


def shots_kernel(**kw):
    return KernelConfig(**{"kind": QUANTUM_SHOTS, "feature_map": FM2, "shots": 1, "rng_seed": 0,
                           **kw})


def experiment(**kw):
    return pipeline.ExperimentConfig(**{"input": "data.csv", "seed": 0, "split": 0.5,
                                        "models": [pipeline.RegEntry(name="ls", kind="reg_ls")],
                                        **kw})


# (setting, build from one value, a limit of its bound, the nearest value past that limit)
BOUNDS = [
    ("shots", lambda v: shots_kernel(shots=v), 1, 0),
    ("shots", lambda v: shots_kernel(shots=v), 2**63 - 1, 2**63),
    ("rng_seed", lambda v: shots_kernel(rng_seed=v), 0, -1),
    ("degree", lambda v: KernelConfig(kind=POLY, degree=v, offset=0.0), 1, 0),
    ("degree", lambda v: KernelConfig(kind=POLY, degree=v, offset=0.0),
     int(sys.float_info.max), int(sys.float_info.max) + 1),
    ("offset", lambda v: KernelConfig(kind=POLY, degree=2, offset=v), 0.0, -ABOVE_0),
    ("gamma", lambda v: KernelConfig(kind=RBF, gamma=v), ABOVE_0, 0.0),
    ("n_qubits", lambda v: FeatureMapSpec("zz", v), 1, 0),
    ("reps", lambda v: FeatureMapSpec("zz", 2, reps=v), 1, 0),
    ("reps", lambda v: FeatureMapSpec("zz", 2, reps=v), feature_maps.MAX_REPS,
     feature_maps.MAX_REPS + 1),
    ("pca_k", lambda v: pipeline.DataConfig(input="data.csv", pca_k=v), 1, 0),
    ("seed", lambda v: experiment(seed=v), 0, -1),
    ("split", lambda v: experiment(split=v), ABOVE_0, 0.0),
    ("split", lambda v: experiment(split=v), BELOW_1, 1.0),
    ("max_iters", lambda v: SvmConfig(max_iters=v), 1, 0),
    ("max_iters", lambda v: SvmConfig(max_iters=v), svm.MAX_SVM_ITERS, svm.MAX_SVM_ITERS + 1),
    ("iteration", lambda v: regression.AnnealSchedule(iterations=v), 1, 0),
    ("iteration", lambda v: regression.AnnealSchedule(iterations=v), regression.MAX_ANNEAL_ITERS,
     regression.MAX_ANNEAL_ITERS + 1),
    ("cooling", lambda v: regression.AnnealSchedule(cooling=v), ABOVE_0, 0.0),
    ("cooling", lambda v: regression.AnnealSchedule(cooling=v), BELOW_1, 1.0),
    ("fraction", lambda v: pipeline.split_indices(10, v, 0), BELOW_1, 1.0),
    ("seed", lambda v: pipeline.split_indices(10, 0.5, v), 0, -1),
]


BOUND_IDS = [f"{s}-{limit:.17g}" for s, _, limit, _ in BOUNDS]
# a repeated id is numbered _0, _1, ... so that each is unique
BOUND_IDS = [f"{i}_{BOUND_IDS[:k].count(i)}" if BOUND_IDS.count(i) > 1 else i
             for k, i in enumerate(BOUND_IDS)]


@pytest.mark.parametrize("setting, make, limit, past", BOUNDS, ids=BOUND_IDS)
def test_each_bound_accepts_its_limit_and_refuses_the_nearest_value_past_it(setting, make, limit,
                                                                            past):
    make(limit)
    with pytest.raises(ValueError, match=setting):
        make(past)


# the settings each kernel kind requires, so that a kind's own values build
KERNEL_PARAMS = {QUANTUM_EXACT: {"feature_map": {"family": "zz", "n_qubits": 2}},
                 QUANTUM_SHOTS: {"feature_map": {"family": "zz", "n_qubits": 2}, "shots": 1,
                                 "rng_seed": 0},
                 POLY: {"degree": 2, "offset": 1.0}, RBF: {"gamma": 1.0}}
# (test id, setting, build from one value, every value it takes)
CHOICES = [
    ("kernel kind", "kind",
     lambda v: KernelConfig.from_dict({"kind": v, **KERNEL_PARAMS.get(v, {})}),
     [QUANTUM_EXACT, QUANTUM_SHOTS, LINEAR, POLY, RBF]),
    ("family", "family", lambda v: FeatureMapSpec.from_dict({"family": v, "n_qubits": 2}),
     ["zz", "custom"]),
    ("entanglement", "entanglement",
     lambda v: FeatureMapSpec.from_dict({"family": "zz", "n_qubits": 2, "entanglement": v}),
     ["linear", "full"]),
    ("basis kind", "kind", lambda v: regression.BasisSpec(v, 2), ["affine", "poly2"]),
    ("row basis", "basis",
     lambda v: pipeline._model_entry({"name": "m", "kind": "reg_ls", "basis": v}),
     ["affine", "poly2"]),
    ("row target", "target",
     lambda v: pipeline._model_entry({"name": "m", "kind": "reg_ls", "target": v}),
     ["label", "activity"]),
]


@pytest.mark.parametrize("setting, make, takes", [c[1:] for c in CHOICES],
                         ids=[c[0] for c in CHOICES])
def test_each_choice_accepts_its_values_and_refuses_near_misses(setting, make, takes):
    for value in takes:
        make(value)
    near = [variant(v) for v in takes for variant in (str.upper, " {}".format, "{} ".format)]
    for value in ["ZZ", " zz", "zz ", "Linear", "", None, 1, *near]:
        with pytest.raises(ValueError, match=setting):
            make(value)


# numpy numbers, each of which numpy warned of an overflow for when compared with the
# largest float or made absolute; the rule holds each as the Python number it equals
@pytest.mark.parametrize("make, refusal", [
    (lambda: regression.AnnealSchedule(cooling=np.float32(0.25)), None),
    (lambda: SvmConfig(C=np.float16(2)), None),
    (lambda: fields.check_value(np.int64(-2**63), float, "x"), None),
    (lambda: KernelConfig(kind=POLY, degree=np.float32(2.0), offset=1.0),
     "degree must be an integer, got np.float32(2.0)"),
    (lambda: fields.check_value(np.float32(np.inf), float, "x"),
     "x must be a finite number, got np.float32(inf)"),
], ids=["float32 cooling", "float16 C", "int64 minimum", "float32 degree", "float32 inf"])
def test_numpy_numbers_are_held_to_the_rule_without_a_warning(make, refusal):
    if refusal is None:
        make()
    else:
        with pytest.raises(ValueError, match=re.escape(refusal)):
            make()


def test_degenerate_model_returns_bias():
    model = SvmModel(
        support_vectors=np.empty((0, 3)),
        dual_coef=np.empty(0),
        bias=0.25,
        kernel_config=LIN,
    )
    assert decision_value(model, [5.0, 1.0, -2.0]) == 0.25


def test_support_vector_query_with_orthogonal_features():
    gm, feats = identity_gram([1, 1, -1, -1])
    model = train(gm, [1, 1, -1, -1], SvmConfig(C=2.0))
    expected = model.dual_coef[0] + model.bias
    assert abs(decision_value(model, model.support_vectors[0]) - expected) <= 1e-12


def test_predict_tie_goes_positive():
    model = SvmModel(
        support_vectors=np.empty((0, 2)),
        dual_coef=np.empty(0),
        bias=0.0,
        kernel_config=LIN,
    )
    assert predict(model, [0.3, 0.3]) == 1


def test_train_input_validation():
    gm, feats = identity_gram([1, -1])
    cfg = SvmConfig()
    with pytest.raises(ValueError):
        train(gm, [1, 1], cfg)  # single class
    with pytest.raises(ValueError):
        train(gm, [1, 0], cfg)  # bad label alphabet
    with pytest.raises(ValueError):
        train(gm, [1], cfg)  # length mismatch
    bad = GramMatrix(entries=np.array([[1.0, np.nan], [np.nan, 1.0]]),
                     kernel_config=LIN, rows=feats)
    with pytest.raises(ValueError, match="non-finite"):  # with rows, as a built matrix
        train(bad, [1, -1], cfg)


def test_train_on_a_loaded_gram_matrix_takes_its_rows(tmp_path):
    feats = np.random.default_rng(8).random((4, 2))
    kernels.save_gram(gram(LIN, feats), tmp_path / "k.gram")
    loaded = kernels.load_gram(tmp_path / "k.gram")
    assert loaded.rows.tobytes() == feats.tobytes()
    y = [1, -1, 1, -1]
    built, again = train(gram(LIN, feats), y, SvmConfig()), train(loaded, y, SvmConfig())
    assert np.array_equal(again.dual_coef, built.dual_coef)
    assert again.support_vectors.tobytes() == built.support_vectors.tobytes()


def test_iteration_budget_flags_nonconverged():
    rng = np.random.default_rng(33)
    X, y, gm = random_problem(rng, 20)
    assert not solve_dual(gm, y, SvmConfig(C=1.0, max_iters=1))[2]


@pytest.mark.parametrize("max_iters", [0, -5])
def test_iteration_budget_below_one_is_refused(max_iters):
    with pytest.raises(ValueError, match=f"max_iters must be >= 1, got {max_iters}"):
        SvmConfig(max_iters=max_iters)


@pytest.mark.parametrize("max_iters", [svm.MAX_SVM_ITERS + 1, 10**30])
def test_iteration_budget_above_the_cap_is_refused(max_iters):
    with pytest.raises(ValueError, match=f"max_iters must be <= {svm.MAX_SVM_ITERS}, "
                                         f"got {max_iters}"):
        SvmConfig(max_iters=max_iters)


def test_model_round_trip_preserves_decision_values(tmp_path):
    rng = np.random.default_rng(2)
    spec = FeatureMapSpec("zz", 2, reps=1)
    cfg = KernelConfig(kind=QUANTUM_EXACT, feature_map=spec)
    X = rng.random((8, 2))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
    if np.all(y == y[0]):
        y[0] = -y[0]
    model = train(gram(cfg, X), y, SvmConfig(C=1.0))
    path = tmp_path / "model.txt"
    save_svm_model(model, path)
    loaded = load_svm_model(path)
    assert loaded.converged == model.converged
    queries = rng.random((5, 2))
    for q in queries:
        assert decision_value(loaded, q) == decision_value(model, q)


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 3, reps=2)),
    KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("zz", 3, reps=1),
                 shots=128, rng_seed=4),
    KernelConfig(kind=RBF, gamma=2.0),
], ids=lambda cfg: cfg.kind)
def test_saved_model_is_the_support_set_and_scores_bit_for_bit(tmp_path, cfg):
    rng = np.random.default_rng(8)
    X = rng.random((30, 3))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, 1, -1)
    gm = gram(cfg, X)
    svm_cfg = SvmConfig(C=1.0, jitter=0.05 if cfg.kind == QUANTUM_SHOTS else 0.0)
    alphas = solve_dual(gm, y, svm_cfg)[0]
    model = train(gm, y, svm_cfg)
    path = tmp_path / "model"
    save_svm_model(model, path)
    sv = alphas > 0.0
    header = json.loads(path.read_bytes().partition(b"\n")[0])
    assert 0 < header["support_vectors"][0] == np.count_nonzero(sv) < 30
    loaded = load_svm_model(path)
    assert np.array_equal(loaded.support_vectors, X[sv])
    assert np.array_equal(loaded.dual_coef, alphas[sv] * y[sv])
    queries = np.vstack([rng.random((9, 3)), X])
    assert decision_values(loaded, queries).tobytes() == decision_values(model, queries).tobytes()


def test_model_without_support_vectors_scores_its_bias_after_loading(tmp_path):
    # training leaves no support vector when SMO stops before its first update
    # (a tol of 2 or more does: every score starts at +-1); a 0 x d array is
    # saved as its shape alone, with no bytes
    model = SvmModel(support_vectors=np.empty((0, 3)), dual_coef=np.empty(0), bias=-0.5,
                     kernel_config=LIN)
    save_svm_model(model, tmp_path / "model")
    loaded = load_svm_model(tmp_path / "model")
    queries = np.random.default_rng(1).random((4, 3))
    assert np.array_equal(decision_values(loaded, queries), [-0.5] * 4)
    assert np.array_equal(decision_values(model, queries), [-0.5] * 4)


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
    model = train(gram(cfg, X), y, SvmConfig(C=1.0, jitter=jitter))
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
    model = train(gram(cfg, X), y, SvmConfig(C=1.0, jitter=jitter))
    for a in A:
        assert abs(svm.decision_value(model, a) - decision_value(model, a)) <= 1e-12


def test_indefinite_pair_moves_to_the_box_corner():
    # K_00 + K_11 - 2 K_01 < 0: the curvature along the pair is replaced by
    # TAU, and the objective, unbounded on the line, is maximized at the box
    K = np.array([[1.0, 1.2], [1.2, 1.0]])
    gm = GramMatrix(entries=K, kernel_config=LIN, rows=np.eye(2))
    alphas, _, converged = solve_dual(gm, [1, -1], SvmConfig(C=0.5))
    assert np.array_equal(alphas, [0.5, 0.5])
    assert converged
    assert dual_objective(gm, [1, -1], alphas) > 0.0  # its value at a = 0


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
            perturbed = GramMatrix(gm.entries + (noise + noise.T) / 2, cfg, X)
            alphas = solve_dual(gm, y, SvmConfig(C=1.0))[0]
            again = solve_dual(perturbed, y, SvmConfig(C=1.0))[0]
            assert np.count_nonzero(alphas) == np.count_nonzero(again)
            assert np.all(alphas[alphas > 0.0] > 1e-8)


def test_kernel_with_large_entries_keeps_its_support_set():
    # a cubic kernel on coordinates up to 100 has entries near 1e13, so
    # every multiplier is far below 1e-8 * C; the dust slack at 0 follows
    # the largest multiplier, and the solution is not snapped away
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 100.0, size=(20, 3))
    y = np.where(X[:, 0] > 50.0, 1, -1)
    assert np.mean(y == 1) == 0.55
    model = train(gram(KernelConfig(kind=POLY, degree=3, offset=1.0), X), y,
                  SvmConfig(C=1.0))
    assert model.dual_coef.size >= 2
    assert abs(model.dual_coef.sum()) <= 1e-12 * np.abs(model.dual_coef).sum()
    predicted = np.where(decision_values(model, X) >= 0.0, 1, -1)
    assert np.mean(predicted == y) > 0.55
