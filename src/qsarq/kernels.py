"""Kernel evaluation and Gram-matrix assembly.

Quantum kernels measure the fidelity |<phi(x)|phi(x')>|^2 between encoded
states, either exactly from the statevectors or through seeded binomial
shot sampling. Classical kernels (linear, polynomial, RBF) act directly
on the feature vectors. A Gram matrix is its kernel over its rows: it is
symmetric by construction and carries the kernel configuration and the
float64 feature rows it was built over, in memory and in a Gram file alike
(`save_gram`), and no solver setting (the SVM's jitter is SMO's). So a
matrix's provenance is its rows: `qsarq train --gram` compares them with
the config's data byte for byte, and `svm.train` takes its support vectors
from them. Nothing here hashes but the shot streams (below).

Shot sampling has one rule. A query row x owns one stream,
``default_rng([rng_seed, *w])`` with w the four ``<u4`` words of the first
16 bytes of the SHA-256 of x's ``<f8`` bytes; its entries against rows
b_0, b_1, ... are the stream's draws ``binomial(shots, p_j) / shots`` in
column order. The rest of a query's batch does not change its stream, but
rows encoded together round differently from a row encoded alone, so a
query's exact entries, and the fidelities p_j its draws are made at, equal
those of the query alone up to rounding only. `cross_gram` is not symmetric
in its arguments. `gram` mirrors the upper triangle of ``cross_gram(X, X)``,
so appending rows changes no earlier entry's stream, and its value only by
rounding.

`gram` and `cross_gram` take one path for every kind. Rows become
operands once (quantum kinds: `encode_batch`'s complex stack of states;
classical kinds: the feature rows), and one block evaluator gives the exact
kernel values between two operand blocks: |conj(A) B^T|^2 from one complex
matrix product, the column-wise RBF sum, or the dot products. While the
stack of states lives, `gram` writes only the tiles of its upper triangle,
one after another into the tail of its n x n result; the square is formed
after the stack is freed. So its peak memory is the larger of stack +
triangle and the square, not their sum.
The tests check both against a per-entry reference that encodes quantum
rows gate by gate (``tests/oracles.py``).
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal

import numpy as np

from . import artifact
from .errors import InternalConsistencyError, ResourceLimitError
from .feature_maps import BLOCK_BYTES, DEFAULT_STACK_BYTES, FeatureMapSpec, encode_batch
from .fields import SEED, check_fields, from_mapping

QUANTUM_EXACT = "quantum_exact"
QUANTUM_SHOTS = "quantum_shots"
LINEAR = "linear"
POLY = "poly"
RBF = "rbf"

QUANTUM_KINDS = frozenset({QUANTUM_EXACT, QUANTUM_SHOTS})

# rounding slack before a quantum kernel value is considered corrupt
_CLAMP_SLACK = 1e-12
_MAX_SHOTS = 2**63 - 1  # numpy's binomial takes an int64 count
# fewest rows per tile of gram's fidelity product: BLAS runs the complex product
# of thinner row blocks well below its peak rate
TILE_ROWS = 32


@dataclass(frozen=True)
class KernelConfig:
    """Kernel kind plus exactly the parameters that kind needs."""

    kind: Literal["quantum_exact", "quantum_shots", "linear", "poly", "rbf"]
    feature_map: FeatureMapSpec | None = None
    shots: Annotated[int, ">=", 1, "<=", _MAX_SHOTS] | None = None
    rng_seed: SEED | None = None
    # a degree too large for a float would overflow the kernel's power
    degree: Annotated[int, ">=", 1, "<=", sys.float_info.max] | None = None
    offset: Annotated[float, ">=", 0] | None = None
    gamma: Annotated[float, ">", 0] | None = None

    def __post_init__(self):
        check_fields(self)
        required = {
            QUANTUM_EXACT: ("feature_map",),
            QUANTUM_SHOTS: ("feature_map", "shots", "rng_seed"),
            LINEAR: (),
            POLY: ("degree", "offset"),
            RBF: ("gamma",),
        }[self.kind]
        all_params = ("feature_map", "shots", "rng_seed", "degree", "offset", "gamma")
        for name in all_params:
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{self.kind} kernel requires {name}")
            if name not in required and value is not None:
                raise ValueError(f"{self.kind} kernel does not take {name}")

    def describe(self) -> str:
        """Short human-readable tag for reports."""
        if self.kind == QUANTUM_EXACT:
            fm = self.feature_map
            return f"q | {fm.family} {fm.entanglement} r{fm.reps}"
        if self.kind == QUANTUM_SHOTS:
            fm = self.feature_map
            return f"q | {fm.family} {fm.entanglement} r{fm.reps} shots={self.shots}"
        if self.kind == LINEAR:
            return "c | linear"
        if self.kind == POLY:
            return f"c | poly d={self.degree} c={self.offset:g}"
        return f"c | rbf gamma={self.gamma:g}"

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelConfig":
        fm = d.get("feature_map")
        if fm is not None:
            d = {**d, "feature_map": FeatureMapSpec.from_dict(fm)}
        return from_mapping(cls, d, "kernel")


@dataclass(eq=False)
class GramMatrix:
    """Symmetric kernel matrix with its provenance: the kernel and `rows`,
    the float64 feature rows it was built over, one per matrix row
    (`gram` keeps the caller's array when it is one, not a copy, so it must
    not change while the matrix is used)."""

    entries: np.ndarray = field(repr=False)
    kernel_config: KernelConfig
    rows: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _clamp_unit(value):
    """Clip fidelities into [0, 1]; larger excursions than rounding (NaN included)
    are errors. A float64 array is clipped in place and returned, with no
    temporary; a scalar comes back as a scalar."""
    arr = np.asarray(value, dtype=np.float64)
    if not (arr.min(initial=0.0) >= -_CLAMP_SLACK and arr.max(initial=0.0) <= 1.0 + _CLAMP_SLACK):
        worst = float(arr.flat[np.argmax(np.abs(arr - 0.5))])
        raise InternalConsistencyError(
            f"quantum kernel value {worst!r} outside [0, 1] beyond rounding slack"
        )
    return np.clip(arr, 0.0, 1.0, out=arr)[()]


def _row_digest(x: np.ndarray) -> bytes:
    import hashlib  # imported here so that commands that hash nothing never load OpenSSL

    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).digest()


def _shot_draws(cfg: KernelConfig, x: np.ndarray, p):
    """The first draws of row x's shot stream at fidelities `p` (module docstring)."""
    # default_rng([rng_seed, *w]) seeds from rng_seed's 32-bit words, least
    # significant first, then w; one uint32 array of those words is the same
    # seed, and numpy takes it without converting each element
    seed = int(cfg.rng_seed)
    head = seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")
    rng = np.random.default_rng(np.frombuffer(head + _row_digest(x)[:16], dtype="<u4"))
    return rng.binomial(cfg.shots, p) / cfg.shots


def _operands(cfg: KernelConfig, X: np.ndarray) -> np.ndarray:
    """The rows of X as `_kernel_block` takes them: for quantum kinds the
    (rows, 2^n) complex stack of encoded states, for classical kinds X.
    Rows holding NaN or +-inf are refused for every kind."""
    if cfg.kind in QUANTUM_KINDS:
        return encode_batch(cfg.feature_map, X)  # which refuses them itself
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite values")
    return X


def _kernel_block(cfg: KernelConfig, a: np.ndarray, b: np.ndarray, out: np.ndarray,
                  conj_out: np.ndarray | None = None) -> None:
    """Write the exact kernel values between every operand row of `a` and every
    one of `b` into `out`, a (len(a), len(b)) float64 array or view. Quantum
    kinds write the conjugates of `a` to `conj_out` (default: a new array)."""
    if cfg.kind in QUANTUM_KINDS:  # |<a|b>|^2; BLAS reads the view b.T
        z = np.conj(a, out=conj_out) @ b.T
        np.square(z.real, out=out)
        out += np.square(z.imag, out=z.imag)  # z's own storage: no third temporary
        _clamp_unit(out)
    elif cfg.kind == RBF:
        sq = np.zeros((a.shape[0], b.shape[0]))
        for col in range(a.shape[1]):
            diff = a[:, col, None] - b[None, :, col]
            sq += diff * diff
        out[...] = np.exp(-cfg.gamma * sq)
    elif cfg.kind == LINEAR:
        out[...] = a @ b.T
    else:
        out[...] = (a @ b.T + cfg.offset) ** cfg.degree


def _block_rows(cfg: KernelConfig, rows: int, columns: int) -> int:
    """Rows per block of a rows x columns kernel matrix: their outputs and (quantum
    kinds) states take ~BLOCK_BYTES. The matrix must fit the state-stack budget."""
    if 8 * rows * columns > DEFAULT_STACK_BYTES:
        raise ResourceLimitError(f"a {rows} x {columns} kernel matrix needs {8 * rows * columns}"
                                 f" bytes, over the budget of {DEFAULT_STACK_BYTES} bytes")
    encoded = 16 << cfg.feature_map.n_qubits if cfg.kind in QUANTUM_KINDS else 0
    return max(1, BLOCK_BYTES // max(1, 8 * columns + encoded))


def _tile_rows(cfg: KernelConfig, n: int) -> int:
    """Rows per tile of `gram`'s n x n matrix: `_block_rows`, raised to TILE_ROWS
    (or n). Past the first tile, the conjugates a tile needs take no new memory."""
    return max(_block_rows(cfg, n, n), min(n, TILE_ROWS))


def gram(cfg: KernelConfig, X) -> GramMatrix:
    """Kernel matrix over the rows of X, exactly symmetric.

    The matrix must fit the state-stack budget (n <= 11 585). X becomes one
    operand stack, and only then is the n x n result allocated. Each tile
    of its rows is evaluated against the columns from the tile's first row
    on, into the tail of the result, tile after tile: while the stack lives,
    the tiles fill the last n(n+1)/2 entries plus the entries below the
    diagonal within each tile (fewer than n * `_tile_rows` / 2). The
    leading pages of the result are not touched, so a buffer fresh from the
    allocator keeps them out of memory. Once
    the stack is freed, each row's upper part moves forward into place and
    the lower triangle is mirrored from it. So the peak memory is the
    larger of stack + triangle and the square, not their sum.

    A quantum tile is one complex product of its conjugated states with the
    stack. Its conjugates overwrite rows of the stack that earlier tiles
    have spent, so past the first tile (`_block_rows` tall, with a new array
    of conjugates, as `cross_gram`'s blocks) they take no memory, and a tile
    is as tall as the rows spent, up to `_tile_rows` (at least TILE_ROWS, so
    that BLAS runs the product near its peak rate). Entries equal the
    per-entry reference's (``tests/oracles.py``) up to rounding, whose last
    bit may vary with the tile heights. A shot-sampled entry (i, j), i < j,
    is then the j-th draw of X[i]'s shot stream, drawn in place and
    mirrored: the upper triangle is ``cross_gram(cfg, X, X)``'s,
    ``gram(X[:m])`` is the leading m x m block of ``gram(X)``, and the
    diagonal is 1; such a matrix need not be positive semidefinite. The
    matrix holds the float64 rows of X (X itself, not a copy, when X is a
    2-D float64 array).
    """
    feats = np.asarray(X, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats.reshape(1, -1)
    if feats.ndim != 2 or feats.size == 0:
        raise ValueError("X must be a non-empty 2-D feature matrix")
    n = feats.shape[0]
    step, tiles = _tile_rows(cfg, n), []
    r0, rows = 0, min(n, _block_rows(cfg, n, n))
    while r0 < n:
        tiles.append((r0, rows))
        # the next tile's conjugates overwrite the rows spent: it is no taller
        r0, rows = r0 + rows, min(step, r0 + rows, n - r0 - rows)
    ops = _operands(cfg, feats)
    entries = np.empty((n, n))
    flat = entries.reshape(-1)
    start = at = n * n - sum(rows * (n - r0) for r0, rows in tiles)
    for r0, rows in tiles:
        block = flat[at:at + rows * (n - r0)].reshape(rows, n - r0)
        _kernel_block(cfg, ops[r0:r0 + rows], ops[r0:], block, ops[r0 - rows:r0] if r0 else None)
        at += block.size
    del ops  # free the stack before the square is formed: it raises its peak RSS
    # row i's block row starts at or after entry (i, r0), so one forward pass
    # moves every row's upper part into place before its source is overwritten
    at = start
    for r0, rows in tiles:
        for i in range(r0, r0 + rows):
            flat[i * n + i:(i + 1) * n] = flat[at + i - r0:at + n - r0]
            at += n - r0
    for i in range(n - 1):
        entries[i + 1:, i] = entries[i, i + 1:]
    if cfg.kind == QUANTUM_SHOTS:
        for i in reversed(range(n)):  # rows below i are drawn; row i is still exact
            drawn = _shot_draws(cfg, feats[i], entries[i])[i + 1:]
            entries[i, i + 1:] = entries[i + 1:, i] = drawn
        # self-fidelity is known; sampling adds nothing
        np.fill_diagonal(entries, 1.0)
    return GramMatrix(entries, cfg, feats)


def cross_gram(cfg: KernelConfig, A, B) -> np.ndarray:
    """Kernel values K(A_i, B_j) for every row of A and every row of B.

    Exact and classical entry (i, j) equals the per-entry reference's
    K(A[i], B[j]) (``tests/oracles.py``) up to rounding. A shot-sampled row i
    is the draws of A[i]'s own shot stream over the rows of B in order, column
    j = 0 being the stream's first draw; the other rows of A change only the
    rounding of the fidelities it draws at (module docstring).
    The result is not symmetric in A and B. B becomes one operand stack; rows
    of A become operands a block at a time (`_block_rows`, the rule of
    `gram`'s first tile, and its budget) and are evaluated against it.
    """
    a = np.asarray(A, dtype=np.float64)
    b = np.asarray(B, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            "A and B must be 2-D feature matrices with the same number of columns"
        )
    step = _block_rows(cfg, a.shape[0], b.shape[0])
    ops_b = _operands(cfg, b)
    out = np.empty((a.shape[0], b.shape[0]))
    for r0 in range(0, a.shape[0], step):
        _kernel_block(cfg, _operands(cfg, a[r0:r0 + step]), ops_b, out[r0:r0 + step])
    if cfg.kind == QUANTUM_SHOTS:
        for i, row in enumerate(a):
            out[i] = _shot_draws(cfg, row, out[i])
    return out


def kernel_value(cfg: KernelConfig, x, x2) -> float:
    """One kernel entry K(x, x2): ``cross_gram(cfg, [x], [x2])[0, 0]``.

    Kept only because the benchmark's tracer wraps this name; it goes when
    the package records its own stages (ROADMAP item 1).
    """
    return float(cross_gram(cfg, [x], [x2])[0, 0])


def save_gram(gm: GramMatrix, path) -> None:
    """Write `gm` as a `gram` artifact (see `qsarq.artifact`): the upper
    triangle of its entries, row i from entry i on, then its rows, as raw
    float64 bytes. Entries that are not bitwise symmetric raise a ValueError
    naming `path` before anything is written."""
    artifact.save(path, artifact.GRAM, {
        "entries": gm.entries, "kernel_config": gm.kernel_config.to_dict(), "rows": gm.rows})


def load_gram(path) -> GramMatrix:
    """The Gram matrix of a `gram` artifact: each stored upper-triangle row is
    mirrored into place, so the entries are exactly symmetric. A fault of the
    file (a file of an earlier version or layout included) raises a ValueError
    naming `path`."""
    return artifact.load(path, {artifact.GRAM: lambda f: GramMatrix(
        f["entries"], KernelConfig.from_dict(f["kernel_config"]), f["rows"])})
