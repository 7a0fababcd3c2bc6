import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import gaussian_solve, reference_anneal
from qsarq import regression
from qsarq.regression import (
    AFFINE,
    ANNEAL_BLOCK,
    POLY2,
    MAX_ANNEAL_ITERS,
    AnnealSchedule,
    BasisSpec,
    expand,
    fit_annealing,
    fit_least_squares,
    load_reg_model,
    predict_labels,
    save_reg_model,
)

LINE_X = np.array([[0.0], [1.0]])
LINE_Y = np.array([0.0, 1.0])
LINE_SCHEDULE = AnnealSchedule(t0=1.0, cooling=0.999, iterations=10_000)


def test_basis_sizes():
    assert BasisSpec(AFFINE, 4).size == 5
    assert BasisSpec(POLY2, 4).size == 5 + 10
    with pytest.raises(ValueError):
        BasisSpec("cubic", 4)


def test_expand_poly2_layout():
    phi = expand(BasisSpec(POLY2, 2), [2.0, 3.0])
    # 1, x1, x2, x1*x1, x1*x2, x2*x2
    assert np.array_equal(phi, [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])


def test_expand_dimension_check():
    with pytest.raises(ValueError):
        expand(BasisSpec(AFFINE, 3), [1.0, 2.0])


def test_exact_line_fit():
    model = fit_least_squares(LINE_X, LINE_Y, BasisSpec(AFFINE, 1))
    assert np.allclose(model.coefficients, [0.0, 1.0], atol=1e-12, rtol=0)


def test_constant_targets_hit_intercept():
    X = np.random.default_rng(0).standard_normal((6, 3))
    model = fit_least_squares(X, np.full(6, 2.5), BasisSpec(AFFINE, 3))
    assert abs(model.coefficients[0] - 2.5) <= 1e-10
    assert np.max(np.abs(model.coefficients[1:])) <= 1e-10


def test_ridge_matches_closed_form_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    basis = BasisSpec(AFFINE, 2)
    lam = 0.1
    model = fit_least_squares(X, y, basis, ridge=lam)
    phi = expand(basis, X)
    oracle = gaussian_solve(phi.T @ phi + lam * np.eye(basis.size), phi.T @ y)
    assert np.max(np.abs(model.coefficients - oracle)) <= 1e-8


def test_gradient_residual_is_small():
    rng = np.random.default_rng(14)
    for lam in (0.0, 0.3):
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        basis = BasisSpec(POLY2, 3)
        model = fit_least_squares(X, y, basis, ridge=lam)
        phi = expand(basis, X)
        grad = phi.T @ (phi @ model.coefficients - y) + lam * model.coefficients
        bound = 1e-8 * max(1.0, float(np.max(np.abs(phi.T @ y))))
        assert np.max(np.abs(grad)) <= bound


def test_rank_deficient_design_gives_the_minimum_norm_solution():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    y = np.array([1.0, 2.0, 3.0])
    model = fit_least_squares(X, y, BasisSpec(AFFINE, 2))
    phi = expand(BasisSpec(AFFINE, 2), X)
    assert np.max(np.abs(phi @ model.coefficients - y)) <= 1e-10
    # minimum-norm: no solution with the same residual has smaller norm;
    # compare against the pseudo-inverse route
    pinv_q = np.linalg.pinv(phi) @ y
    assert np.linalg.norm(model.coefficients) <= np.linalg.norm(pinv_q) + 1e-10


def test_local_optimality_probe():
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        basis = BasisSpec(AFFINE, 2)
        model = fit_least_squares(X, y, basis)
        phi = expand(basis, X)

        def loss(q):
            r = phi @ q - y
            return float(r @ r)

        base = loss(model.coefficients)
        for idx in range(basis.size):
            for delta in (1e-3, -1e-3):
                probe = model.coefficients.copy()
                probe[idx] += delta
                assert loss(probe) >= base - 1e-12


def test_annealing_zero_targets_stay_at_zero_loss():
    model = fit_annealing(LINE_X, np.zeros(2), BasisSpec(AFFINE, 1),
                          LINE_SCHEDULE, seed=1)
    assert model.loss == 0.0


def test_annealing_line_fit_golden():
    model = fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1),
                          LINE_SCHEDULE, seed=7)
    assert model.loss <= 1e-3
    # frozen from the first seeded run of the blocked stream
    assert abs(model.loss - 2.4710458718150995e-07) <= 1e-12


def test_annealing_best_loss_never_increases():
    # the fit starts at q = 0, whose loss is ||y||^2, and returns the best
    # coefficients it saw; a schedule this hot ends its walk far from the start
    for seed in range(20):
        model = fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1),
                              AnnealSchedule(t0=100.0, cooling=0.999, iterations=20), seed=seed)
        assert model.loss <= LINE_Y @ LINE_Y


def test_annealing_never_beats_least_squares():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    basis = BasisSpec(AFFINE, 2)
    ls = fit_least_squares(X, y, basis)
    sa = fit_annealing(X, y, basis, AnnealSchedule(2.0, 0.999, 5000), seed=11)
    assert sa.loss >= ls.loss - 1e-12


def test_annealing_seed_determinism():
    a = fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1), LINE_SCHEDULE, seed=42)
    b = fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1), LINE_SCHEDULE, seed=42)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.loss == b.loss
    c = fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1), LINE_SCHEDULE, seed=43)
    assert not np.array_equal(a.coefficients, c.coefficients)


# 3 features give affine 4 coefficients and poly2 10, so at ridge 0 poly2 on 1,
# 4 or 7 rows (and affine on 1) has a singular normal matrix
@pytest.mark.parametrize("rows", [1, 4, 7, 12])
@pytest.mark.parametrize("kind", [AFFINE, POLY2])
@pytest.mark.parametrize("ridge", [0.0, 0.01])
def test_annealing_walks_the_stream_as_the_step_by_step_reference(monkeypatch, kind, ridge,
                                                                  rows):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((rows, 3))
    y = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    basis = BasisSpec(kind, 3)
    objective = regression._objective
    for iterations in (1, ANNEAL_BLOCK - 1, ANNEAL_BLOCK, ANNEAL_BLOCK + 1, 3 * ANNEAL_BLOCK + 7):
        schedule = AnnealSchedule(t0=1.0, cooling=0.99, iterations=iterations)
        states = []  # the fit computes the loss of its start and of each accepted state

        def recording(phi, targets, q, ridge):
            states.append(q.copy())
            return objective(phi, targets, q, ridge)

        monkeypatch.setattr(regression, "_objective", recording)
        model = fit_annealing(X, y, basis, schedule, seed=9, ridge=ridge)
        monkeypatch.setattr(regression, "_objective", objective)
        walk = reference_anneal(X, y, basis, schedule, seed=9, ridge=ridge)
        assert len(states) == len(walk.states), iterations
        assert all(np.array_equal(a, b) for a, b in zip(states, walk.states)), iterations
        assert np.array_equal(model.coefficients, walk.best), iterations
        assert abs(model.loss - walk.loss) <= 1e-12 * walk.loss, iterations
        assert model.loss == objective(expand(basis, X), y, model.coefficients, ridge)
    assert 1 < len(walk.states) < iterations // 2  # steps were both accepted and refused


def test_normal_bound_exceeds_numpys_largest_standard_normal_draw():
    # numpy's ziggurat returns r + x in its tail, x = -log1p(-u) / r with u a 53-bit
    # uniform below 1, so x <= 53 ln 2 / r; every other draw is below r
    r = 3.6541528853610088
    assert regression._NORMAL_BOUND > r + 53 * math.log(2) / r > 13.7


class CountingGenerator(np.random.Generator):
    """`default_rng(seed)`'s stream, counting its standard-normal blocks."""

    blocks = 0

    def standard_normal(self, *args, **kwargs):
        CountingGenerator.blocks += 1
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("kind", [AFFINE, POLY2])
def test_annealing_stops_drawing_once_no_move_can_change_q(monkeypatch, kind):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 3))
    y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    basis = BasisSpec(kind, 3)
    blocks = 40
    schedule = AnnealSchedule(t0=1.0, cooling=0.9, iterations=blocks * ANNEAL_BLOCK)
    states = []  # the fit computes the loss of its start and of each accepted state
    objective = regression._objective

    def recording(phi, targets, q, ridge):
        states.append(q.copy())
        return objective(phi, targets, q, ridge)

    CountingGenerator.blocks = 0
    with monkeypatch.context() as patch:
        patch.setattr(regression, "_objective", recording)
        patch.setattr(np.random, "default_rng",
                      lambda seed: CountingGenerator(np.random.PCG64(seed)))
        model = fit_annealing(X, y, basis, schedule, seed=9)
    drawn = CountingGenerator.blocks
    assert 1 < drawn < blocks  # the walk stopped drawing
    # the stream past the stop, at the fit's temperatures: no move changes q
    q, replay, temp = states[-1], np.random.default_rng(9), schedule.t0
    for block in range(blocks):
        normals = replay.standard_normal((ANNEAL_BLOCK, basis.size))
        replay.random(ANNEAL_BLOCK)
        for z in normals:
            assert block < drawn or np.array_equal(q + math.sqrt(temp) * z, q)
            temp *= schedule.cooling
    with monkeypatch.context() as patch:  # a walk that never stops ends where it did
        patch.setattr(regression, "_NORMAL_BOUND", math.inf)
        full = fit_annealing(X, y, basis, schedule, seed=9)
    assert np.array_equal(full.coefficients, model.coefficients) and full.loss == model.loss


@pytest.mark.parametrize("t0, scale", [(1e-300, 1.0), (1.0, 1e150)],
                         ids=["tiny_t0", "huge_targets"])
def test_annealing_raises_no_floating_point_warning(t0, scale):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 2))
    y = scale * rng.standard_normal(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ridge in (0.0, 0.5):
            model = fit_annealing(X, y, BasisSpec(POLY2, 2),
                                  AnnealSchedule(t0=t0, cooling=0.9, iterations=3000),
                                  seed=4, ridge=ridge)
            assert np.isfinite(model.loss) and np.all(np.isfinite(model.coefficients))


def test_annealing_memory_does_not_grow_with_the_steps():
    X = np.random.default_rng(3).standard_normal((40, 3))
    y = X @ [1.0, -2.0, 0.5] + 0.3
    tracemalloc.start()
    try:
        fit_annealing(X, y, BasisSpec(AFFINE, 3),
                      AnnealSchedule(t0=1.0, cooling=0.99, iterations=200_000), seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        AnnealSchedule(t0=0.0, cooling=0.9, iterations=10)
    with pytest.raises(ValueError):
        AnnealSchedule(t0=1.0, cooling=1.0, iterations=10)
    with pytest.raises(ValueError):
        AnnealSchedule(t0=1.0, cooling=0.9, iterations=0)


def test_annealing_refuses_more_than_the_iteration_cap():
    assert MAX_ANNEAL_ITERS >= 100 * 10_000  # the default AnnealSchedule.iterations
    for n_iters in (MAX_ANNEAL_ITERS + 1, 10**30):
        with pytest.raises(ValueError, match="iteration count must be between"):
            fit_annealing(LINE_X, LINE_Y, BasisSpec(AFFINE, 1),
                          AnnealSchedule(t0=1.0, cooling=0.9, iterations=n_iters), seed=0)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_least_squares(LINE_X, LINE_Y, BasisSpec(AFFINE, 1), ridge=-0.1)
    with pytest.raises(ValueError):
        fit_least_squares(LINE_X, np.zeros(3), BasisSpec(AFFINE, 1))


def test_predict_label_threshold_rules():
    model = fit_least_squares(LINE_X, LINE_Y, BasisSpec(AFFINE, 1), threshold=0.5)
    assert predict_labels(model, [[0.9]]).tolist() == [1]
    assert predict_labels(model, [[0.1]]).tolist() == [-1]
    assert predict_labels(model, [[0.5]]).tolist() == [1]  # exact threshold counts positive


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    model = fit_least_squares(X, y, BasisSpec(POLY2, 3), ridge=0.05, threshold=0.2)
    path = tmp_path / "reg.model"
    save_reg_model(model, path)
    loaded = load_reg_model(path)
    assert loaded.basis == model.basis
    assert loaded.threshold == model.threshold
    for q in rng.standard_normal((4, 3)):
        assert expand(loaded.basis, q) @ loaded.coefficients == (
            expand(model.basis, q) @ model.coefficients)
