"""Local greedy similarity over hashed point codes.

The pair budget n_p follows a sigmoid of the smaller template's point count,
so small templates are compared on few pairs and large ones on up to max_np.
Pairs are selected greedily, as in MCC's local greedy similarity: each of
the n_p steps takes the best remaining pair and retires its row and column,
so every point is used at most once.

One kernel scores every comparison. pack_templates concatenates the integer
codes of templates that share one code length m and index range q;
packed_scores reads its pairs of template indices once, groups them by the
sizes of their two templates and scores each group in blocks, each gathered
from the pack by index, converted to float64 and never padded.
evaluation.score_pairs packs a keyed set of templates for a batch of pairs,
and lgs_match_detail a pair's two templates. point_similarity is the score
of two one-point templates: their pair budget is 1, so it is the one point
similarity. Distances come from gram matrices of the integer codes, which is
exact, so scores are bit-identical to a direct per-pair distance computation.
Every score is a built-in float, from lgs_match and packed_scores alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HashedTemplate, _integer, _one_point, _real


@dataclass(frozen=True)
class LgsParams:
    min_np: int = 4
    max_np: int = 12
    mu_p: float = 20.0
    tau_p: float = 0.4

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_np", _integer(self.min_np, "min_np"))
        object.__setattr__(self, "max_np", _integer(self.max_np, "max_np"))
        object.__setattr__(self, "mu_p", _real(self.mu_p, "mu_p"))
        object.__setattr__(self, "tau_p", _real(self.tau_p, "tau_p"))
        if not 1 <= self.min_np <= self.max_np:
            raise ValueError(f"need 1 <= min_np <= max_np, got [{self.min_np}, {self.max_np}]")


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
    n_a, n_b = _integer(n_a, "n_a"), _integer(n_b, "n_b")
    if n_a < 1 or n_b < 1:
        raise ValueError("template sizes must be >= 1")
    v = min(n_a, n_b)
    z = _sigmoid(params.tau_p * (v - params.mu_p))
    raw = params.min_np + round(z * (params.max_np - params.min_np))
    return min(max(raw, params.min_np), params.max_np, n_a, n_b)


# Pairs are scored in blocks whose float64 code stacks, similarity stack and
# its greedy copy hold at most 2 MiB together (one pair at least), so a
# block does not grow with the number of pairs.
_BLOCK_FLOATS = 1 << 18


def _similarities(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Point similarities of float64 code stacks a (P, A, m) and b (P, B, m), shape (P, A, B).

    Squared distances come from ||a||^2 + ||b||^2 - 2 a.b with batched
    matmuls and einsum row norms. For integer codes in [1, q] every partial
    sum is an integer below 4*m*q^2, so while that bound is under 2^53 the
    result is the exact sum of squared differences, and the similarities are
    bit-identical to those of a direct distance computation.
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


def _check_pair(a: HashedTemplate, b: HashedTemplate) -> None:
    """Raise lgs_match's ValueError if a and b differ in code length m or index range q."""
    if a.m != b.m:
        raise ValueError(f"code length mismatch: m={a.m} vs m={b.m}")
    if a.q != b.q:
        raise ValueError(f"index range mismatch: q={a.q} vs q={b.q}")


def check_one_key(templates) -> None:
    """Raise lgs_match's ValueError for the first template hashed under another key than the first one."""
    templates = tuple(templates)
    for template in templates[1:]:
        if template.key_fingerprint != templates[0].key_fingerprint:
            raise ValueError(
                f"key fingerprint mismatch ({templates[0].key_fingerprint} vs {template.key_fingerprint}); "
                "templates hashed under different keys are not comparable"
            )


@dataclass(frozen=True, eq=False)
class PackedTemplates:
    """Templates of one code length m and index range q, their integer codes concatenated.

    `codes` (rows, m) holds every template's rows back to back, in their one
    type code_dtype(q), and `q` the shared index range. Per template:
    `offsets` and `sizes` locate its rows, and `ranks` is its place in the
    canonical (n_points, code bytes) order, equal ones sharing a rank. A
    pack holds no key fingerprints; its callers decide whether keys must
    agree (check_one_key).
    """

    codes: np.ndarray
    q: int
    offsets: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray


def _canonical_ranks(codes: np.ndarray, offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Dense ranks of the templates by (n_points, code bytes), one size at a time.

    The bytes are the pack's rows in code_dtype(q). One size's bytes are held at once.
    """
    ranks = np.empty(len(sizes), dtype=np.intp)
    rank = -1
    for size in np.unique(sizes).tolist():
        previous = None
        for key, i in sorted((codes[offsets[i] : offsets[i] + size].tobytes(), i) for i in np.flatnonzero(sizes == size).tolist()):
            if key != previous:
                rank, previous = rank + 1, key
            ranks[i] = rank
    return ranks


def pack_templates(templates) -> PackedTemplates:
    """Pack templates for packed_scores; pairs then name them by position.

    Every template must share the first one's m and q: the first that does
    not raises lgs_match's ValueError for (first template, it).
    """
    templates = tuple(templates)
    for template in templates[1:]:
        _check_pair(templates[0], template)
    sizes = np.array([t.n_points for t in templates], dtype=np.intp)
    codes = np.concatenate([t.codes for t in templates]) if templates else np.zeros((0, 1), dtype=np.uint8)
    offsets = np.cumsum(sizes) - sizes
    return PackedTemplates(
        codes=codes,
        q=templates[0].q if templates else 2,
        offsets=offsets,
        sizes=sizes,
        ranks=_canonical_ranks(codes, offsets, sizes),
    )


def _prepare(packed: PackedTemplates, ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Put each index pair in canonical order: (first, second, swapped) arrays.

    Canonical orientation makes greedy tie-breaking symmetric in (a, b).
    """
    swapped = packed.ranks[ib] < packed.ranks[ia]
    return np.where(swapped, ib, ia), np.where(swapped, ia, ib), swapped


def _match_block(packed: PackedTemplates, first: np.ndarray, second: np.ndarray, n_p: int):
    """Score a block of canonical (first, second) template index pairs of one shape.

    Every `first` template has one size A and every `second` one size B, so
    each side's codes are gathered from the pack and converted to a float64
    (P, A, m) or (P, B, m) stack, and n_p pairs are picked greedily from each
    similarity matrix. Returns (rows, cols, values, scores): the picked rows
    of `first`, columns of `second` and their similarities, each (P, n_p) in
    pick order, and the (P,) mean scores.
    """
    rows_a = packed.offsets[first][:, None] + np.arange(packed.sizes[first[0]])
    rows_b = packed.offsets[second][:, None] + np.arange(packed.sizes[second[0]])
    sim = _similarities(packed.codes[rows_a].astype(float), packed.codes[rows_b].astype(float), packed.q)
    rows, cols = _greedy_picks(sim.copy(), n_p)
    values = sim[np.arange(len(first))[:, None], rows, cols]
    return rows, cols, values, values.mean(axis=1)


def packed_scores(packed: PackedTemplates, pairs, params: LgsParams = LgsParams()) -> list[float]:
    """lgs_match of the packed templates i and j, for every (i, j) in `pairs`, in order.

    `pairs` may be any iterable of index pairs. It is read once into index
    arrays, a few dozen bytes per pair. Pairs are then grouped by shape, the
    sizes of their canonical first and second templates, and each shape is
    scored with its one n_p in blocks whose stacks stay within _BLOCK_FLOATS.
    """
    flat = np.fromiter((i for pair in pairs for i in pair), dtype=np.intp)
    first, second, _ = _prepare(packed, flat[0::2], flat[1::2])
    sizes_a, sizes_b = packed.sizes[first], packed.sizes[second]
    shapes = sizes_a * (int(packed.sizes.max(initial=0)) + 1) + sizes_b
    order = np.argsort(shapes, kind="stable")
    scores = np.empty(len(order))
    for group in np.split(order, np.flatnonzero(np.diff(shapes[order])) + 1) if len(order) else ():
        n_a, n_b = int(sizes_a[group[0]]), int(sizes_b[group[0]])
        n_p = np_select(n_a, n_b, params)
        step = max(1, _BLOCK_FLOATS // ((n_a + n_b) * packed.codes.shape[1] + 2 * n_a * n_b))
        for start in range(0, len(group), step):
            block = group[start : start + step]
            scores[block] = _match_block(packed, first[block], second[block], n_p)[3]
    return scores.tolist()


def lgs_match(a: HashedTemplate, b: HashedTemplate, params: LgsParams = LgsParams()) -> float:
    """Mean similarity of the selected n_p point pairs, a float in [0, 1].

    Templates hashed under different keys are not comparable and raise;
    the security experiments score cross-key pairs through
    evaluation.score_pairs(..., hashed_b=).
    """
    score, _, _ = lgs_match_detail(a, b, params)
    return score


def lgs_match_detail(
    a: HashedTemplate, b: HashedTemplate, params: LgsParams = LgsParams()
) -> tuple[float, list[tuple[int, int, float]], int]:
    """lgs_match plus the selected (row_in_a, row_in_b, similarity) pairs and n_p."""
    packed = pack_templates((a, b))
    check_one_key((a, b))
    first, second, swapped = _prepare(packed, np.array([0]), np.array([1]))
    n_p = np_select(a.n_points, b.n_points, params)
    rows, cols, values, scores = _match_block(packed, first, second, n_p)
    picks = zip(rows[0].tolist(), cols[0].tolist(), values[0].tolist())
    selected = [(c, r, s) if swapped[0] else (r, c, s) for r, c, s in picks]
    return float(scores[0]), selected, n_p


def point_similarity(a, b, q: int) -> float:
    """1 - Euclidean distance between two index codes, normalized by its maximum.

    The maximum distance is (q - 1) * sqrt(m), attained by codes all-1 vs
    all-q, so the result lies in [0, 1]. It is lgs_match of a and b taken
    as one-point templates, whose pair budget is 1. a and b are each a
    length-m vector or a (1, m) matrix: an integer array or a list of ints.
    """
    a, b = _one_point(a, q), _one_point(b, q)
    if a.codes.shape != b.codes.shape or a.n_points != 1:
        raise ValueError(f"expected two equal-length index vectors, got {a.codes.shape} and {b.codes.shape}")
    return lgs_match(a, b)
