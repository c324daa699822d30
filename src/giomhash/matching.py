"""Local greedy similarity over hashed point codes, plus the Hamming baseline.

The pair budget n_p follows a sigmoid of the smaller template's point count,
so small templates are compared on few pairs and large ones on up to max_np.
Greedy-unique selection repeatedly takes the best remaining pair and retires
its row and column; flat selection just takes the top n_p matrix entries.

One kernel scores every comparison: lgs_scores takes pairs in blocks,
lgs_match_detail is a block of one and similarity_matrix a single matrix.
Distances come from gram matrices of the integer codes, which is exact, so
scores are bit-identical to a direct per-pair distance computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import BioHashCode
from .model import HashedTemplate, MatchScore


@dataclass(frozen=True)
class LgsParams:
    min_np: int = 4
    max_np: int = 12
    mu_p: float = 20.0
    tau_p: float = 0.4
    greedy_unique: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_np", int(self.min_np))
        object.__setattr__(self, "max_np", int(self.max_np))
        object.__setattr__(self, "mu_p", float(self.mu_p))
        object.__setattr__(self, "tau_p", float(self.tau_p))
        object.__setattr__(self, "greedy_unique", bool(self.greedy_unique))
        if not 1 <= self.min_np <= self.max_np:
            raise ValueError(f"need 1 <= min_np <= max_np, got [{self.min_np}, {self.max_np}]")
        if not (math.isfinite(self.mu_p) and math.isfinite(self.tau_p)):
            raise ValueError("mu_p and tau_p must be finite")


def _sigmoid(t: float) -> float:
    if t > 700.0:
        return 1.0
    if t < -700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-t))


def np_select(n_a: int, n_b: int, params: LgsParams = LgsParams()) -> int:
    """Pair budget: min_np + round(Z * (max_np - min_np)), clamped by both sizes.

    Z is the sigmoid 1 / (1 + exp(-tau_p * (v - mu_p))) of v = min(n_a, n_b).
    """
    n_a, n_b = int(n_a), int(n_b)
    if n_a < 1 or n_b < 1:
        raise ValueError("template sizes must be >= 1")
    v = min(n_a, n_b)
    z = _sigmoid(params.tau_p * (v - params.mu_p))
    raw = params.min_np + round(z * (params.max_np - params.min_np))
    return min(max(raw, params.min_np), params.max_np, n_a, n_b)


def _check_codes(codes: np.ndarray, q: int, label: str) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"{label}: expected an (N, m) code array, got shape {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"{label}: codes must be integers")
    if codes.size and (codes.min() < 1 or codes.max() > q):
        raise ValueError(f"{label}: code indices must lie in [1, {q}]")
    return codes


def point_similarity(a, b, q: int) -> float:
    """1 - Euclidean distance between two index codes, normalized by its maximum.

    The maximum distance is (q - 1) * sqrt(m), attained by codes all-1 vs
    all-q, so the result lies in [0, 1].
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape != b.shape or a.shape[0] != 1:
        raise ValueError(f"expected two equal-length index vectors, got {a.shape} and {b.shape}")
    q = int(q)
    _check_codes(a, q, "a")
    _check_codes(b, q, "b")
    return float(similarity_matrix(a, b, q)[0, 0])


def similarity_matrix(codes_a, codes_b, q: int) -> np.ndarray:
    """Pairwise point similarities between two code arrays, shape (N_A, N_B)."""
    codes_a = np.asarray(codes_a)
    codes_b = np.asarray(codes_b)
    if codes_a.shape[1] != codes_b.shape[1]:
        raise ValueError(f"code lengths differ: {codes_a.shape[1]} vs {codes_b.shape[1]}")
    return _similarities(codes_a[None].astype(float), codes_b[None].astype(float), q)[0]


# Pairs are scored in blocks whose padded float64 code stacks hold at most
# 2 MiB (one pair at least), so the scorer's working memory does not grow
# with the number of pairs.
_BLOCK_FLOATS = 1 << 18


def _similarities(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Point similarities of float64 code stacks a (P, A, m) and b (P, B, m), shape (P, A, B).

    Squared distances come from ||a||^2 + ||b||^2 - 2 a.b with batched
    matmuls. For integer codes in [1, q] every partial sum is an integer
    below 4*m*q^2, so while that bound is under 2^53 the result is the exact
    sum of squared differences, and the similarities are bit-identical to
    those of a direct distance computation.
    """
    m, q = int(a.shape[-1]), int(q)
    # float64 holds every integer below 2^53 exactly
    if 4 * m * q * q >= 1 << 53:
        raise ValueError(
            f"m={m}, q={q} is too large for exact scoring: need 4*m*q^2 < 2^53, got {4 * m * q * q}"
        )
    sq = np.matmul(a, b.transpose(0, 2, 1))
    sq *= -2.0
    sq += np.einsum("pam,pam->pa", a, a)[:, :, None]
    sq += np.einsum("pbm,pbm->pb", b, b)[:, None, :]
    # only non-integer input can round below zero
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    sq /= (q - 1) * math.sqrt(m)
    np.subtract(1.0, sq, out=sq)
    return np.clip(sq, 0.0, 1.0, out=sq)


def _greedy_picks(work: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy-unique picks on a (P, A, B) stack: `steps` (row, col) index arrays of shape (P, steps).

    Each step takes every matrix's first maximum in row-major order and
    retires its row and column with -1. Modifies `work`.
    """
    p, _, b = work.shape
    flat = work.reshape(p, -1)
    index = np.arange(p)
    rows = np.empty((p, steps), dtype=np.intp)
    cols = np.empty((p, steps), dtype=np.intp)
    for k in range(steps):
        row, col = np.divmod(flat.argmax(axis=1), b)
        rows[:, k], cols[:, k] = row, col
        work[index, row] = -1.0
        work[index, :, col] = -1.0
    return rows, cols


def _flat_picks(sim: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The `steps` largest entries of each (A, B) matrix, first in row-major order among equals."""
    p, _, b = sim.shape
    order = np.argsort(-sim.reshape(p, -1), axis=1, kind="stable")[:, :steps]
    return np.divmod(order, b)


def _prepare(
    a: HashedTemplate, b: HashedTemplate, params: LgsParams, allow_cross_key: bool
) -> tuple[HashedTemplate, HashedTemplate, int, bool]:
    """Check a pair and put it in the canonical (n_points, code bytes) order: (first, second, n_p, swapped).

    Canonical orientation makes greedy tie-breaking symmetric in (a, b).
    """
    if a.m != b.m:
        raise ValueError(f"code length mismatch: m={a.m} vs m={b.m}")
    if a.q != b.q:
        raise ValueError(f"index range mismatch: q={a.q} vs q={b.q}")
    if not allow_cross_key and a.key_fingerprint != b.key_fingerprint:
        raise ValueError(
            f"key fingerprint mismatch ({a.key_fingerprint} vs {b.key_fingerprint}); "
            "templates hashed under different keys are not comparable"
        )
    if a.n_points != b.n_points:
        swapped = b.n_points < a.n_points
    else:
        swapped = b.codes.tobytes() < a.codes.tobytes()
    first, second = (b, a) if swapped else (a, b)
    return first, second, np_select(a.n_points, b.n_points, params), swapped


def _match_block(block, greedy: bool):
    """Score a block of (first, second, n_p) triples sharing m and q.

    Returns (rows, cols, values, scores): the picked rows of `first`, columns
    of `second` and their similarities, each (P, max n_p) in pick order (a
    pair's entries past its own n_p are filler), and the (P,) mean scores.
    The codes are stacked into zero-padded (P, A, m) and (P, B, m) float64
    arrays; pad cells of the similarity stack hold -2, below every real or
    retired entry, and the padded layout keeps each matrix's row-major order,
    so every pair's picks and ties are those of its own matrix.
    """
    firsts, seconds, n_ps = zip(*block)
    n_a = np.array([t.n_points for t in firsts])
    n_b = np.array([t.n_points for t in seconds])
    stack_a = np.zeros((len(block), n_a.max(), firsts[0].m))
    stack_b = np.zeros((len(block), n_b.max(), firsts[0].m))
    for i, (first, second) in enumerate(zip(firsts, seconds)):
        stack_a[i, : n_a[i]] = first.codes
        stack_b[i, : n_b[i]] = second.codes
    sim = _similarities(stack_a, stack_b, firsts[0].q)
    pad_rows = np.arange(sim.shape[1]) >= n_a[:, None]
    pad_cols = np.arange(sim.shape[2]) >= n_b[:, None]
    sim[pad_rows[:, :, None] | pad_cols[:, None, :]] = -2.0
    n_ps = np.array(n_ps)
    steps = int(n_ps.max())
    if greedy:
        rows, cols = _greedy_picks(sim.copy(), steps)
    else:
        rows, cols = _flat_picks(sim, steps)
    values = sim[np.arange(len(block))[:, None], rows, cols]
    scores = np.empty(len(block))
    for n_p in set(n_ps.tolist()):
        chosen = n_ps == n_p
        scores[chosen] = values[chosen, :n_p].mean(axis=1)
    return rows, cols, values, scores


def lgs_scores(pairs, params: LgsParams = LgsParams(), allow_cross_key: bool = False) -> list[float]:
    """lgs_match(a, b, params, allow_cross_key).value for every (a, b) in `pairs`, in order.

    `pairs` may be any iterable of template pairs, a generator included.
    Pairs go through in blocks whose padded code stacks hold at most about
    2 MiB of float64 (one pair at least), so beyond the returned list the
    working memory does not grow with the number of pairs. A pair that fails
    lgs_match's checks raises the same error.
    """
    scores: list[float] = []
    block: list[tuple[HashedTemplate, HashedTemplate, int]] = []
    rows_a = rows_b = 0
    for a, b in pairs:
        first, second, n_p, _ = _prepare(a, b, params, allow_cross_key)
        rows_a, rows_b = max(rows_a, first.n_points), max(rows_b, second.n_points)
        if block and (
            (a.m, a.q) != (block[0][0].m, block[0][0].q)
            or (len(block) + 1) * (rows_a + rows_b) * a.m > _BLOCK_FLOATS
        ):
            scores.extend(_match_block(block, params.greedy_unique)[3].tolist())
            block = []
            rows_a, rows_b = first.n_points, second.n_points
        block.append((first, second, n_p))
    if block:
        scores.extend(_match_block(block, params.greedy_unique)[3].tolist())
    return scores


def lgs_match(
    a: HashedTemplate,
    b: HashedTemplate,
    params: LgsParams = LgsParams(),
    allow_cross_key: bool = False,
) -> MatchScore:
    """Mean similarity of the selected n_p point pairs, in [0, 1].

    Templates hashed under different keys are not comparable; such calls
    raise unless allow_cross_key is set (the security experiments construct
    cross-key comparisons deliberately).
    """
    score, _, _ = lgs_match_detail(a, b, params, allow_cross_key)
    return score


def lgs_match_detail(
    a: HashedTemplate,
    b: HashedTemplate,
    params: LgsParams = LgsParams(),
    allow_cross_key: bool = False,
) -> tuple[MatchScore, list[tuple[int, int, float]], int]:
    """lgs_match plus the selected (row_in_a, row_in_b, similarity) pairs and n_p."""
    first, second, n_p, swapped = _prepare(a, b, params, allow_cross_key)
    rows, cols, values, scores = _match_block([(first, second, n_p)], params.greedy_unique)
    picks = zip(rows[0].tolist(), cols[0].tolist(), values[0].tolist())
    selected = [(c, r, s) if swapped else (r, c, s) for r, c, s in picks]
    return MatchScore(float(scores[0])), selected, n_p


def hamming_similarity(a: BioHashCode, b: BioHashCode) -> float:
    """1 - normalized Hamming distance between two bit codes."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"code length mismatch: {a.bits.shape} vs {b.bits.shape}")
    return float(1.0 - np.mean(a.bits != b.bits))
