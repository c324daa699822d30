"""Local greedy similarity over hashed point codes.

The pair budget n_p follows a sigmoid of the smaller template's point count,
so small templates are compared on few pairs and large ones on up to max_np.
Greedy-unique selection repeatedly takes the best remaining pair and retires
its row and column; flat selection just takes the top n_p matrix entries.

One kernel scores every comparison. pack_templates converts a set of
templates that share one code length m and index range q to float64 once,
with row norms; packed_scores reads its pairs of template indices once,
groups them by the sizes of their two templates and scores each group in
blocks, each gathered from the packed array by index with no padding.
evaluation.score_pairs packs a keyed set of templates for a batch of pairs,
lgs_match_detail a pair's two templates, and similarity_matrix is a single
matrix. Distances come from gram matrices of the integer codes, which is
exact, so scores are bit-identical to a direct per-pair distance computation.
Every score is a built-in float, from lgs_match and packed_scores alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HashedTemplate, _integer, _real


@dataclass(frozen=True)
class LgsParams:
    min_np: int = 4
    max_np: int = 12
    mu_p: float = 20.0
    tau_p: float = 0.4
    greedy_unique: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_np", _integer(self.min_np, "min_np"))
        object.__setattr__(self, "max_np", _integer(self.max_np, "max_np"))
        object.__setattr__(self, "mu_p", _real(self.mu_p, "mu_p"))
        object.__setattr__(self, "tau_p", _real(self.tau_p, "tau_p"))
        # bool() would read any non-empty string, "no" included, as True
        if not isinstance(self.greedy_unique, (bool, np.bool_)):
            raise ValueError(f"greedy_unique must be a bool, got {self.greedy_unique!r}")
        object.__setattr__(self, "greedy_unique", bool(self.greedy_unique))
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
    return float(similarity_matrix(a, b, q)[0, 0])


def similarity_matrix(codes_a, codes_b, q: int) -> np.ndarray:
    """Pairwise point similarities between two (N, m) integer code arrays in [1, q], shape (N_A, N_B)."""
    q = _integer(q, "q")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    codes_a = _check_codes(codes_a, q, "codes_a")
    codes_b = _check_codes(codes_b, q, "codes_b")
    if codes_a.shape[1] != codes_b.shape[1]:
        raise ValueError(f"code lengths differ: {codes_a.shape[1]} vs {codes_b.shape[1]}")
    a, b = codes_a[None].astype(float), codes_b[None].astype(float)
    return _similarities(a, b, np.einsum("pam,pam->pa", a, a), np.einsum("pbm,pbm->pb", b, b), q)[0]


# Pairs are scored in blocks whose float64 code stacks, similarity stack and
# its greedy copy hold at most 2 MiB together (one pair at least), so a
# block does not grow with the number of pairs.
_BLOCK_FLOATS = 1 << 18


def _similarities(a: np.ndarray, b: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray, q: int) -> np.ndarray:
    """Point similarities of float64 code stacks a (P, A, m) and b (P, B, m), shape (P, A, B).

    norms_a (P, A) and norms_b (P, B) are the rows' squared norms. Squared
    distances come from ||a||^2 + ||b||^2 - 2 a.b with batched matmuls. For
    integer codes in [1, q] every partial sum is an integer below 4*m*q^2,
    so while that bound is under 2^53 the result is the exact sum of squared
    differences, and the similarities are bit-identical to those of a direct
    distance computation.
    """
    m, q = int(a.shape[-1]), int(q)
    # float64 holds every integer below 2^53 exactly
    if 4 * m * q * q >= 1 << 53:
        raise ValueError(
            f"m={m}, q={q} is too large for exact scoring: need 4*m*q^2 < 2^53, got {4 * m * q * q}"
        )
    sq = np.matmul(a, b.transpose(0, 2, 1))
    sq *= -2.0
    sq += norms_a[:, :, None]
    sq += norms_b[:, None, :]
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


def _check_pair(a: HashedTemplate, b: HashedTemplate, allow_cross_key: bool) -> None:
    """Raise lgs_match's ValueError if a and b are not comparable."""
    if a.m != b.m:
        raise ValueError(f"code length mismatch: m={a.m} vs m={b.m}")
    if a.q != b.q:
        raise ValueError(f"index range mismatch: q={a.q} vs q={b.q}")
    if not allow_cross_key and a.key_fingerprint != b.key_fingerprint:
        raise ValueError(
            f"key fingerprint mismatch ({a.key_fingerprint} vs {b.key_fingerprint}); "
            "templates hashed under different keys are not comparable"
        )


@dataclass(frozen=True, eq=False)
class PackedTemplates:
    """Templates of one code length m and index range q, each code row converted to float64 once.

    `codes` (rows, m) holds every template's rows back to back, `norms`
    their squared norms and `q` the shared index range. Per template:
    `offsets` and `sizes` locate its rows, `fingerprints` numbers its key
    fingerprint, and `ranks` is its place in the canonical
    (n_points, code bytes) order, equal keys sharing a rank.
    """

    templates: tuple[HashedTemplate, ...]
    codes: np.ndarray
    norms: np.ndarray
    q: int
    offsets: np.ndarray
    sizes: np.ndarray
    fingerprints: np.ndarray
    ranks: np.ndarray


def _canonical_ranks(templates, sizes: np.ndarray) -> np.ndarray:
    """Dense ranks of the templates by (n_points, code bytes).

    Templates are ranked one size at a time, so at most one size's code
    bytes are held at once.
    """
    ranks = np.empty(len(templates), dtype=np.intp)
    rank = -1
    for size in np.unique(sizes).tolist():
        previous = None
        for key, i in sorted((templates[i].codes.tobytes(), i) for i in np.flatnonzero(sizes == size).tolist()):
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
        _check_pair(templates[0], template, allow_cross_key=True)
    width, q = (templates[0].m, templates[0].q) if templates else (1, 2)
    sizes = np.array([t.n_points for t in templates], dtype=np.intp)
    codes = np.zeros((int(sizes.sum()), width))
    offsets = np.zeros(len(templates), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    for template, offset in zip(templates, offsets.tolist()):
        codes[offset : offset + template.n_points] = template.codes
    _, fingerprints = np.unique([t.key_fingerprint for t in templates], return_inverse=True)
    return PackedTemplates(
        templates=templates,
        codes=codes,
        norms=np.einsum("rm,rm->r", codes, codes),
        q=q,
        offsets=offsets,
        sizes=sizes,
        fingerprints=fingerprints,
        ranks=_canonical_ranks(templates, sizes),
    )


def _prepare(
    packed: PackedTemplates, ia: np.ndarray, ib: np.ndarray, allow_cross_key: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check index pairs and put each in canonical order: (first, second, swapped) arrays.

    The pack shares one m and q, so only key fingerprints are checked: without
    allow_cross_key the first pair whose fingerprints differ raises
    _check_pair's error. Canonical orientation makes greedy tie-breaking
    symmetric in (a, b).
    """
    if not allow_cross_key:
        bad = packed.fingerprints[ia] != packed.fingerprints[ib]
        if bad.any():
            i = int(bad.argmax())
            _check_pair(packed.templates[ia[i]], packed.templates[ib[i]], allow_cross_key)
    swapped = packed.ranks[ib] < packed.ranks[ia]
    return np.where(swapped, ib, ia), np.where(swapped, ia, ib), swapped


def _match_block(packed: PackedTemplates, first: np.ndarray, second: np.ndarray, n_p: int, greedy: bool):
    """Score a block of canonical (first, second) template index pairs of one shape.

    Every `first` template has one size A and every `second` one size B, so
    each side's codes and norms are gathered from the packed array into a
    (P, A, m) or (P, B, m) stack. Returns (rows, cols, values, scores): the
    picked rows of `first`, columns of `second` and their similarities, each
    (P, n_p) in pick order, and the (P,) mean scores.
    """
    rows_a = packed.offsets[first][:, None] + np.arange(packed.sizes[first[0]])
    rows_b = packed.offsets[second][:, None] + np.arange(packed.sizes[second[0]])
    sim = _similarities(packed.codes[rows_a], packed.codes[rows_b], packed.norms[rows_a], packed.norms[rows_b], packed.q)
    if greedy:
        rows, cols = _greedy_picks(sim.copy(), n_p)
    else:
        rows, cols = _flat_picks(sim, n_p)
    values = sim[np.arange(len(first))[:, None], rows, cols]
    return rows, cols, values, values.mean(axis=1)


def packed_scores(
    packed: PackedTemplates, pairs, params: LgsParams = LgsParams(), allow_cross_key: bool = False
) -> list[float]:
    """lgs_match(packed.templates[i], packed.templates[j], ...) for every (i, j) in `pairs`, in order.

    `pairs` may be any iterable of index pairs. It is read once into index
    arrays, a few dozen bytes per pair. Pairs are then grouped by shape, the
    sizes of their canonical first and second templates, and each shape is
    scored with its one n_p in blocks whose stacks stay within _BLOCK_FLOATS.
    """
    flat = np.fromiter((i for pair in pairs for i in pair), dtype=np.intp)
    first, second, _ = _prepare(packed, flat[0::2], flat[1::2], allow_cross_key)
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
            scores[block] = _match_block(packed, first[block], second[block], n_p, params.greedy_unique)[3]
    return scores.tolist()


def lgs_match(
    a: HashedTemplate,
    b: HashedTemplate,
    params: LgsParams = LgsParams(),
    allow_cross_key: bool = False,
) -> float:
    """Mean similarity of the selected n_p point pairs, a float in [0, 1].

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
) -> tuple[float, list[tuple[int, int, float]], int]:
    """lgs_match plus the selected (row_in_a, row_in_b, similarity) pairs and n_p."""
    packed = pack_templates((a, b))
    first, second, swapped = _prepare(packed, np.array([0]), np.array([1]), allow_cross_key)
    n_p = np_select(a.n_points, b.n_points, params)
    rows, cols, values, scores = _match_block(packed, first, second, n_p, params.greedy_unique)
    picks = zip(rows[0].tolist(), cols[0].tolist(), values[0].tolist())
    selected = [(c, r, s) if swapped[0] else (r, c, s) for r, c, s in picks]
    return float(scores[0]), selected, n_p
