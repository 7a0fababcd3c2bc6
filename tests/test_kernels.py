import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    circuit_unitary,
    encode,
    encoding_circuit,
    jacobi_eigh,
    kernel_value,
    reference_shot_rows,
    shot_estimate,
)
from qsarq import kernels
from qsarq.errors import InternalConsistencyError, ResourceLimitError
from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import (
    LINEAR,
    POLY,
    QUANTUM_EXACT,
    QUANTUM_SHOTS,
    RBF,
    GramMatrix,
    KernelConfig,
    _clamp_unit,
    cross_gram,
    gram,
    load_gram,
    save_gram,
)
from qsarq.pipeline import dataset_digest

ZZ2 = FeatureMapSpec("zz", 2, reps=1, entanglement="linear")
EXACT2 = KernelConfig(kind=QUANTUM_EXACT, feature_map=ZZ2)

# |<phi(0.1,0.2)|phi(0.3,0.4)>|^2 from the dense-matrix oracle, frozen
ZZ2_KERNEL_ORACLE = 0.1507164787529231


def test_config_requires_exact_parameter_set():
    with pytest.raises(ValueError):
        KernelConfig(kind=QUANTUM_EXACT)  # missing feature map
    with pytest.raises(ValueError):
        KernelConfig(kind=LINEAR, gamma=0.5)  # extraneous parameter
    with pytest.raises(ValueError):
        KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=100)  # no seed
    with pytest.raises(ValueError):
        KernelConfig(kind=RBF, gamma=-1.0)
    with pytest.raises(ValueError):
        KernelConfig(kind=POLY, degree=0, offset=1.0)


def test_config_dict_round_trip():
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=512, rng_seed=9)
    assert KernelConfig.from_dict(cfg.to_dict()) == cfg


def test_quantum_self_kernel_is_one():
    x = [0.37, 0.81]
    assert abs(kernel_value(EXACT2, x, x) - 1.0) <= 1e-12


def test_poly_kernel_direct_formula():
    cfg = KernelConfig(kind=POLY, degree=2, offset=1.0)
    assert kernel_value(cfg, [1.0, 1.0], [1.0, 1.0]) == 9.0


def test_linear_and_rbf_kernels():
    assert kernel_value(KernelConfig(kind=LINEAR), [1.0, 2.0], [3.0, 4.0]) == 11.0
    cfg = KernelConfig(kind=RBF, gamma=0.5)
    assert abs(kernel_value(cfg, [1.0, 0.0], [0.0, 0.0]) - math.exp(-0.5)) <= 1e-15


def test_zz_kernel_matches_dense_oracle():
    x, x2 = [0.1, 0.2], [0.3, 0.4]
    value = kernel_value(EXACT2, x, x2)
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    a = circuit_unitary(encoding_circuit(ZZ2, x), 2) @ zero
    b = circuit_unitary(encoding_circuit(ZZ2, x2), 2) @ zero
    oracle = abs(np.vdot(a, b)) ** 2
    assert abs(value - oracle) <= 1e-10
    assert abs(value - ZZ2_KERNEL_ORACLE) <= 1e-10


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_value(KernelConfig(kind=LINEAR), [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        kernel_value(EXACT2, [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])


def test_clamp_rejects_large_excursions():
    assert _clamp_unit(1.0 + 5e-13) == 1.0
    assert _clamp_unit(-5e-13) == 0.0
    with pytest.raises(InternalConsistencyError):
        _clamp_unit(1.0 + 1e-9)


def test_shot_estimate_certain_fidelity():
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=17, rng_seed=0)
    assert shot_estimate(cfg, [0.5, 0.5], [0.5, 0.5]) == 1.0


def test_single_shot_is_bernoulli():
    for seed in range(20):
        cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=1, rng_seed=seed)
        assert shot_estimate(cfg, [0.1, 0.2], [0.3, 0.4]) in (0.0, 1.0)


def test_shot_estimate_frozen_golden():
    # seed 42, 1e5 shots around the frozen oracle fidelity; value frozen
    # from the first seeded run of the per-row stream rule and bounded by 5
    # binomial sigmas
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=100_000, rng_seed=42)
    estimate = shot_estimate(cfg, [0.1, 0.2], [0.3, 0.4])
    assert estimate == 15061 / 100_000
    p = ZZ2_KERNEL_ORACLE
    assert abs(estimate - p) <= 5.0 * math.sqrt(p * (1 - p) / 100_000)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**70, np.int64(7)])
def test_shot_stream_seed_is_the_list_of_the_seed_and_the_row_digest(seed):
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=64, rng_seed=seed)
    x = np.array([0.1, 0.2])
    p = np.linspace(0.0, 1.0, 40)
    words = np.frombuffer(kernels._row_digest(x)[:16], dtype="<u4")
    expected = np.random.default_rng([seed, *words]).binomial(64, p) / 64
    assert np.array_equal(kernels._shot_draws(cfg, x, p), expected)


def test_shot_estimate_deterministic_and_batch_independent():
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=1000, rng_seed=7)
    a = shot_estimate(cfg, [0.1, 0.2], [0.3, 0.4])
    assert shot_estimate(cfg, [0.1, 0.2], [0.3, 0.4]) == a
    # the query's own stream: other queries in the batch do not move its draw
    batch = cross_gram(cfg, [[0.9, 0.8], [0.1, 0.2], [0.5, 0.6]], [[0.3, 0.4]])
    assert batch[1, 0] == a


def test_shot_error_shrinks_with_shots():
    p = ZZ2_KERNEL_ORACLE
    mean_abs_err = []
    for shots in (100, 10_000):
        errs = []
        for seed in range(100):
            cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2,
                               shots=shots, rng_seed=seed)
            errs.append(abs(shot_estimate(cfg, [0.1, 0.2], [0.3, 0.4]) - p))
        mean_abs_err.append(np.mean(errs))
        sigma = math.sqrt(p * (1 - p) / shots)
        spread = np.std([e for e in errs])  # rough scale check only
        assert spread <= 3.0 * sigma
    assert mean_abs_err[1] < mean_abs_err[0]


def test_gram_single_row_quantum():
    gm = gram(EXACT2, [[0.2, 0.9]])
    assert gm.size == 1
    assert abs(gm.entries[0, 0] - 1.0) <= 1e-12


def test_gram_linear_orthonormal_rows():
    gm = gram(KernelConfig(kind=LINEAR), np.eye(2))
    assert np.array_equal(gm.entries, np.eye(2))


def test_gram_matches_entrywise_recomputation_and_is_psd():
    rng = np.random.default_rng(31)
    spec = FeatureMapSpec("zz", 3, reps=1, entanglement="full")
    cfg = KernelConfig(kind=QUANTUM_EXACT, feature_map=spec)
    X = rng.random((4, 3))
    gm = gram(cfg, X)
    for i in range(4):
        for j in range(4):
            assert abs(gm.entries[i, j] - kernel_value(cfg, X[i], X[j])) <= 1e-12
    eigvals, _ = jacobi_eigh(gm.entries)
    assert eigvals.min() >= -1e-9


def test_gram_invariants_random_datasets():
    rng = np.random.default_rng(8)
    for family in ("zz", "custom"):
        n = int(rng.integers(2, 5))
        spec = FeatureMapSpec(family, n, reps=2, entanglement="linear")
        cfg = KernelConfig(kind=QUANTUM_EXACT, feature_map=spec)
        X = rng.random((10, n))
        gm = gram(cfg, X)
        assert np.max(np.abs(gm.entries - gm.entries.T)) <= 1e-12
        assert np.max(np.abs(np.diag(gm.entries) - 1.0)) <= 1e-10
        assert gm.entries.min() >= 0.0 and gm.entries.max() <= 1.0


def test_gram_shots_symmetric_with_pinned_diagonal():
    cfg = KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=64, rng_seed=5)
    X = np.random.default_rng(1).random((6, 2))
    gm = gram(cfg, X)
    assert np.array_equal(gm.entries, gm.entries.T)
    assert np.array_equal(np.diag(gm.entries), np.ones(6))
    # rerun is identical: a row's stream depends only on rng_seed and the row
    assert np.array_equal(gram(cfg, X).entries, gm.entries)


def test_gram_batched_matches_per_pair_reference():
    rng = np.random.default_rng(12)
    X = rng.random((9, 3))
    spec = FeatureMapSpec("custom", 3, reps=1)
    shots = KernelConfig(kind=QUANTUM_SHOTS, feature_map=spec, shots=256, rng_seed=4)
    for cfg in (
        KernelConfig(kind=QUANTUM_EXACT, feature_map=spec),
        KernelConfig(kind=QUANTUM_EXACT,
                     feature_map=FeatureMapSpec("zz", 3, reps=2, entanglement="full")),
        KernelConfig(kind=LINEAR),
        KernelConfig(kind=POLY, degree=3, offset=0.5),
        KernelConfig(kind=RBF, gamma=1.5),
    ):
        batched = gram(cfg, X).entries
        per_pair = np.array([[kernel_value(cfg, a, b) for b in X] for a in X])
        assert np.array_equal(batched, batched.T)
        if cfg.kind == QUANTUM_EXACT:
            assert np.max(np.abs(batched - per_pair)) <= 1e-12
        else:  # matrix products and the column-wise RBF sum round unlike np.dot
            assert np.all(np.abs(batched - per_pair)
                          <= 1e-12 * np.maximum(1.0, np.abs(per_pair)))
    # shot entry (i, j), i < j, is the j-th draw of X[i]'s stream, mirrored
    batched = gram(shots, X).entries
    assert np.array_equal(batched, batched.T)
    upper = np.triu(reference_shot_rows(shots, X, X), 1)
    assert np.array_equal(batched, upper + upper.T + np.eye(9))


# written by save_gram, in the text form it had before the JSON envelope, before
# Gram matrices were built from stacked states
PARENT_SHOT_GRAM = """3
1.05 0.35999999999999999 0.46000000000000002
0.35999999999999999 1.05 0.42999999999999999
0.46000000000000002 0.42999999999999999 1.05
digest=fe280ac4daadfc23cb3ae975a1bc866d3f55ac9176fffcea371f3ecf2d700baf \
config={"feature_map": {"entanglement": "linear", "family": "zz", "n_qubits": 2, \
"reps": 2}, "kind": "quantum_shots", "rng_seed": 3, "shots": 100}
"""
PARENT_EXACT_GRAM = """3
0.99999999999999845 0.40834425305506489 0.48372959425918755
0.40834425305506489 0.99999999999999867 0.41443387164205131
0.48372959425918755 0.41443387164205131 0.99999999999999822
digest=fe280ac4daadfc23cb3ae975a1bc866d3f55ac9176fffcea371f3ecf2d700baf \
config={"feature_map": {"entanglement": "linear", "family": "zz", "n_qubits": 2, \
"reps": 2}, "kind": "quantum_exact"}
"""
PARENT_X = np.array([[0.1, 0.7], [0.4, 0.25], [0.9, 0.55]])


def parse_parent_gram(text):
    """Entries, dataset digest and kernel config of a Gram file in the old text form."""
    lines = text.splitlines()
    n = int(lines[0])
    entries = np.array([[float(v) for v in line.split()] for line in lines[1:n + 1]])
    digest, _, config = lines[n + 1].removeprefix("digest=").partition(" config=")
    return entries, digest, KernelConfig.from_dict(json.loads(config))


def test_gram_file_round_trips_byte_identically(tmp_path):
    for text in (PARENT_SHOT_GRAM, PARENT_EXACT_GRAM):
        entries, digest, cfg = parse_parent_gram(text)
        assert digest == dataset_digest(PARENT_X)  # the rows the old file was built over
        first, again = tmp_path / "first.gram", tmp_path / "again.gram"
        save_gram(GramMatrix(entries, cfg, PARENT_X), first)
        loaded = load_gram(first)
        save_gram(loaded, again)
        assert again.read_bytes() == first.read_bytes()
        assert np.array_equal(loaded.entries, entries)
        assert loaded.rows.tobytes() == PARENT_X.tobytes()
        assert (loaded.kernel_config, loaded.rows.shape) == (cfg, (3, 2))


def test_gram_file_with_a_jitter_is_refused_naming_the_file(tmp_path):
    # files written while the jitter was the Gram matrix's, not SMO's: rerun `qsarq gram`
    path = tmp_path / "old.gram"
    save_gram(gram(KernelConfig(kind=LINEAR), PARENT_X), path)
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps({**json.loads(head), "jitter": 0.05}).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: gram artifact with missing key(s) [] and unknown key(s) ['jitter']")):
        load_gram(path)


def test_gram_files_unchanged_for_the_same_config(tmp_path):
    spec = FeatureMapSpec("zz", 2, reps=2)
    shots = KernelConfig(kind=QUANTUM_SHOTS, feature_map=spec, shots=100, rng_seed=3)
    save_gram(gram(shots, PARENT_X), tmp_path / "shots.gram")
    saved = load_gram(tmp_path / "shots.gram")
    upper = np.triu(reference_shot_rows(shots, PARENT_X, PARENT_X), 1)
    assert np.array_equal(saved.entries, upper + upper.T + np.eye(3))
    # the old file (drawn from other shot streams) held jitter 0.05 on its
    # diagonal, which SMO now adds
    old, digest, cfg = parse_parent_gram(PARENT_SHOT_GRAM)
    assert np.array_equal(np.diag(old), np.diag(saved.entries) + 0.05)
    assert (saved.kernel_config, dataset_digest(saved.rows)) == (cfg, digest)
    before = parse_parent_gram(PARENT_EXACT_GRAM)[0]
    after = gram(KernelConfig(kind=QUANTUM_EXACT, feature_map=spec), PARENT_X).entries
    assert np.max(np.abs(after - before)) <= 1e-12


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 3, reps=2)),
    KernelConfig(kind=QUANTUM_SHOTS, feature_map=FeatureMapSpec("custom", 3, reps=2,
                                                                entanglement="full"),
                 shots=200, rng_seed=11),
    KernelConfig(kind=LINEAR),
    KernelConfig(kind=POLY, degree=2, offset=1.0),
    KernelConfig(kind=RBF, gamma=0.7),
], ids=lambda cfg: cfg.kind)
def test_cross_gram_matches_kernel_value(cfg):
    rng = np.random.default_rng(21)
    A, B = rng.random((6, 3)), rng.random((4, 3))
    B[1] = A[2]  # a shared row: the self-pair is drawn, not pinned
    K = cross_gram(cfg, A, B)
    assert K.shape == (6, 4)
    if cfg.kind == QUANTUM_SHOTS:
        # row i is A[i]'s stream over B in order; its first draw is kernel_value's
        assert np.array_equal(K, reference_shot_rows(cfg, A, B))
        assert np.array_equal(K[:, 0], [kernel_value(cfg, a, B[0]) for a in A])
    else:
        ref = np.array([[kernel_value(cfg, a, b) for b in B] for a in A])
        assert np.max(np.abs(K - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())
    assert cross_gram(cfg, A, B[:0]).shape == (6, 0)


def test_cross_gram_input_validation():
    with pytest.raises(ValueError):
        cross_gram(KernelConfig(kind=LINEAR), np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        cross_gram(KernelConfig(kind=LINEAR), np.ones(3), np.ones((2, 3)))
    with pytest.raises(ValueError):
        cross_gram(EXACT2, np.ones((2, 3)), np.ones((2, 3)))  # map has 2 qubits


def test_state_stack_budget_checked_before_allocating():
    # 5 states on 24 qubits would take 1.25 GiB, over the 1 GiB budget
    cfg = KernelConfig(kind=QUANTUM_EXACT,
                       feature_map=FeatureMapSpec("zz", 24, reps=1))
    X = np.full((5, 24), 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            gram(cfg, X)
        with pytest.raises(ResourceLimitError):
            cross_gram(cfg, X[:1], X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kernel_matrix_budget_checked_before_encoding():
    # 12 000^2 float64 entries take 1.07 GiB, over the 1 GiB budget
    cfg = KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 1, reps=1))
    X = np.full((12_000, 1), 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="12000 x 12000 kernel matrix"):
            gram(cfg, X)
        with pytest.raises(ResourceLimitError, match="12000 x 12000 kernel matrix"):
            cross_gram(cfg, X, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cross_gram_blocks_stay_small_for_many_query_rows():
    # each block of query rows is sized by its output and its encoded rows;
    # sized by the output alone, all 2000 rows are encoded at once (32 MiB)
    cfg = KernelConfig(kind=QUANTUM_EXACT,
                       feature_map=FeatureMapSpec("zz", 10, reps=2, entanglement="full"))
    rng = np.random.default_rng(8)
    A, B = rng.random((2000, 10)), rng.random((3, 10))
    tracemalloc.start()
    try:
        K = cross_gram(cfg, A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K.shape == (2000, 3)
    assert peak <= 4 << 20


def test_gram_blocks_stay_small_beside_the_state_stack():
    # the first tile is sized by its output and its states' conjugate (13
    # states here), and each later tile's conjugates overwrite spent rows of
    # the stack; a new conjugate per 32-row tile would take 512 KiB
    cfg = KernelConfig(kind=QUANTUM_EXACT,
                       feature_map=FeatureMapSpec("zz", 10, reps=2, entanglement="linear"))
    n = 320
    X = np.random.default_rng(9).random((n, 10))
    tracemalloc.start()
    try:
        gm = gram(cfg, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gm.size == n
    assert peak <= n * (16 << 10) + n * n * 8 + (1 << 19)  # the stack, the output, 512 KiB


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT,
                 feature_map=FeatureMapSpec("zz", 10, reps=2, entanglement="linear")),
    KernelConfig(kind=RBF, gamma=1.5),
], ids=lambda cfg: cfg.kind)
def test_gram_tiles_write_only_the_tail_of_the_result(monkeypatch, cfg):
    # while the states live, the tiles fill the triangle and each tile's own
    # lower part at the end of the buffer; its leading pages stay untouched
    n = 320
    X = np.random.default_rng(10).random((n, 10))
    starts, ends = [], []
    kernel_block = kernels._kernel_block

    def recording(cfg, a, b, out, conj_out=None):
        starts.append(out.ctypes.data)
        ends.append(out.ctypes.data + out.nbytes)
        kernel_block(cfg, a, b, out, conj_out)

    monkeypatch.setattr(kernels, "_kernel_block", recording)
    entries = gram(cfg, X).entries
    base = entries.ctypes.data
    tail = n * (n + 1) // 2 + n * kernels._tile_rows(cfg, n) // 2
    assert len(starts) > 1
    assert min(starts) >= base + 8 * (n * n - tail)
    assert max(ends) == base + entries.nbytes
    if cfg.kind == QUANTUM_EXACT:  # at this size a quantum tile is at most TILE_ROWS tall
        assert min(starts) >= base + 8 * (n * n - n * (n + 1) // 2 - n * kernels.TILE_ROWS)


@pytest.mark.parametrize("cfg", [
    KernelConfig(kind=QUANTUM_EXACT,
                 feature_map=FeatureMapSpec("zz", 3, reps=2, entanglement="full")),
    KernelConfig(kind=RBF, gamma=1.5),
], ids=lambda cfg: cfg.kind)
def test_gram_tiles_of_any_height_agree_with_the_per_entry_reference(monkeypatch, cfg):
    n = 70
    X = np.random.default_rng(13).random((n, 3))
    if cfg.kind == QUANTUM_EXACT:  # states encoded gate by gate, then one product per entry
        states = [encode(cfg.feature_map, x).amplitudes for x in X]
        reference = np.array([[abs(np.vdot(a, b)) ** 2 for b in states] for a in states])
    else:
        reference = np.array([[kernel_value(cfg, a, b) for b in X] for a in X])
    results = []
    for rows in (1, 13, 32, n):
        monkeypatch.setattr(kernels, "_tile_rows", lambda cfg, n: rows)
        K = gram(cfg, X).entries
        assert np.array_equal(K, K.T), rows
        assert np.max(np.abs(K - reference)) <= 1e-12, rows
        results.append(K)
    for rows, K in zip((13, 32, n), results[1:]):
        assert np.max(np.abs(K - results[0])) <= 1e-15, rows


def test_gram_tiles_are_at_least_tile_rows_tall_at_benchmark_size():
    cfg = KernelConfig(kind=QUANTUM_EXACT,
                       feature_map=FeatureMapSpec("zz", 10, reps=2, entanglement="full"))
    assert kernels.TILE_ROWS == 32
    assert kernels._tile_rows(cfg, 440) >= 32 and kernels._tile_rows(cfg, 1500) >= 32


def test_gram_input_validation():
    with pytest.raises(ValueError):
        gram(KernelConfig(kind=LINEAR), [])
    with pytest.raises(ValueError):
        gram(KernelConfig(kind=LINEAR), [[1.0, 2.0], [3.0]])


def test_gram_text_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    X = rng.random((5, 2))
    gm = gram(EXACT2, X)
    path = tmp_path / "kernel.gram"
    save_gram(gm, path)
    loaded = load_gram(path)
    assert np.array_equal(loaded.entries, gm.entries)  # the float64 bytes round-trip exactly
    assert loaded.rows.shape == gm.rows.shape and loaded.rows.tobytes() == gm.rows.tobytes()
    assert loaded.kernel_config == gm.kernel_config


@pytest.mark.parametrize("cfg", [
    EXACT2, KernelConfig(kind=QUANTUM_SHOTS, feature_map=ZZ2, shots=64, rng_seed=4),
], ids=lambda cfg: cfg.kind)
def test_built_gram_matrix_holds_its_rows_and_their_digest(cfg):
    X = np.random.default_rng(5).random((4, 2))
    gm = gram(cfg, X)
    assert gm.rows is X  # not a copy
    assert dataset_digest(gram(cfg, X.tolist()).rows) == dataset_digest(X)


# run in a fresh interpreter: whether hashlib is loaded beyond numpy's modules
# once an exact Gram matrix is built, and once it is saved (sys.argv[1])
HASHLIB_AT_SAVE = """
import json, sys
import numpy as np
baseline = set(sys.modules)
from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import QUANTUM_EXACT, KernelConfig, gram, save_gram

gm = gram(KernelConfig(kind=QUANTUM_EXACT, feature_map=FeatureMapSpec("zz", 2)),
          np.linspace(0.0, 1.0, 10).reshape(5, 2))  # numpy.random imports hashlib
built = "hashlib" in set(sys.modules) - baseline
save_gram(gm, sys.argv[1])
print(json.dumps([built, "hashlib" in set(sys.modules) - baseline]))
"""


def test_exact_gram_hashes_nothing_when_built_or_saved(tmp_path):
    # a Gram file holds its rows, not their hash, so neither step loads OpenSSL
    src = str(Path(kernels.__file__).parents[1])  # the directory holding qsarq
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", HASHLIB_AT_SAVE, str(tmp_path / "k.gram")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, False]


def test_load_gram_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.gram"
    path.write_text("2\n1 0\n0 1\n", encoding="utf-8")  # missing footer
    with pytest.raises(ValueError):
        load_gram(path)


# the shot stream rule (see qsarq.kernels) over small random feature matrices


@st.composite
def shot_configs(draw):
    spec = FeatureMapSpec(draw(st.sampled_from(["zz", "custom"])), 2, reps=2)
    return KernelConfig(kind=QUANTUM_SHOTS, feature_map=spec,
                        shots=draw(st.integers(1, 10**6)), rng_seed=draw(st.integers(0, 2**40)))


FEATURE_ROWS = st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                        min_size=1, max_size=7).map(np.array)
STREAM_PROPERTY = settings(max_examples=40, deadline=None)


@STREAM_PROPERTY
@given(shot_configs(), FEATURE_ROWS, st.integers(1, 7))
def test_shot_gram_is_prefix_stable(cfg, X, m):
    m = min(m, len(X))
    assert np.array_equal(gram(cfg, X[:m]).entries, gram(cfg, X).entries[:m, :m])


@STREAM_PROPERTY
@given(shot_configs(), FEATURE_ROWS, FEATURE_ROWS)
def test_shot_cross_gram_rows_ignore_the_batch_and_columns_are_prefix_stable(cfg, A, B):
    K = cross_gram(cfg, A, B)
    for i in range(len(A)):
        assert np.array_equal(cross_gram(cfg, A[i:i + 1], B)[0], K[i])
    for k in range(len(B)):
        assert np.array_equal(cross_gram(cfg, A, B[:k]), K[:, :k])


@STREAM_PROPERTY
@given(shot_configs(), FEATURE_ROWS)
def test_shot_gram_upper_triangle_is_cross_gram_of_itself(cfg, X):
    upper = np.triu_indices(len(X), 1)
    assert np.array_equal(gram(cfg, X).entries[upper], cross_gram(cfg, X, X)[upper])


@STREAM_PROPERTY
@given(shot_configs(), FEATURE_ROWS, FEATURE_ROWS)
def test_shot_entries_are_shot_fractions_in_the_unit_interval(cfg, A, B):
    for K in (gram(cfg, A).entries, cross_gram(cfg, A, B)):
        assert np.array_equal(np.rint(K * cfg.shots) / cfg.shots, K)
        assert K.min() >= 0.0 and K.max() <= 1.0
