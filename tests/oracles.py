"""Independent reference implementations used to check the package.

Everything here is written with plain loops and stdlib math, deliberately
avoiding the vectorized code paths under test, except the frozen sections
below, each of which keeps an earlier vectorised form to compare against bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_hash(vector, matrices):
    """1-based argmax indices of vector against each matrix, first-wins ties."""
    code = []
    for mat in matrices:
        d = len(mat)
        q = len(mat[0])
        proj = [sum(vector[a] * mat[a][j] for a in range(d)) for j in range(q)]
        best = 0
        for j in range(1, q):
            if proj[j] > proj[best]:
                best = j
        code.append(best + 1)
    return code


def oracle_point_similarity(a, b, q):
    dist = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    sim = 1.0 - dist / ((q - 1) * math.sqrt(len(a)))
    return min(1.0, max(0.0, sim))


def oracle_similarity_matrix(codes_a, codes_b, q):
    return [[oracle_point_similarity(a, b, q) for b in codes_b] for a in codes_a]


def oracle_greedy_score_set(sim, n_p):
    """All mean scores reachable by greedy unique selection under any tie order.

    Exponential in ties; intended for matrices up to about 5 x 5.
    """
    rows = len(sim)
    cols = len(sim[0])
    results = set()

    def recurse(used_rows, used_cols, picked):
        if len(picked) == n_p:
            results.add(round(sum(picked) / n_p, 12))
            return
        best = None
        for r in range(rows):
            if r in used_rows:
                continue
            for c in range(cols):
                if c in used_cols:
                    continue
                if best is None or sim[r][c] > best:
                    best = sim[r][c]
        if best is None:
            return
        for r in range(rows):
            if r in used_rows:
                continue
            for c in range(cols):
                if c in used_cols or sim[r][c] != best:
                    continue
                recurse(used_rows | {r}, used_cols | {c}, picked + [best])

    recurse(frozenset(), frozenset(), [])
    return results


def oracle_eer(genuine, impostor):
    """Brute-force threshold scan; first minimizer of |FMR - FNMR| wins."""
    thresholds = sorted(set(genuine) | set(impostor))
    best_diff = None
    best_eer = None
    for t in thresholds:
        fmr = sum(1 for s in impostor if s >= t) / len(impostor)
        fnmr = sum(1 for s in genuine if s < t) / len(genuine)
        diff = abs(fmr - fnmr)
        if best_diff is None or diff < best_diff:
            best_diff = diff
            best_eer = (fmr + fnmr) / 2.0
    return best_eer


def oracle_wrap(theta):
    while theta < 0.0:
        theta += 2.0 * math.pi
    while theta >= 2.0 * math.pi:
        theta -= 2.0 * math.pi
    return theta


def oracle_angle_distance(a, b):
    delta = abs(oracle_wrap(a) - oracle_wrap(b))
    return min(delta, 2.0 * math.pi - delta)


def oracle_cylinders(template, params):
    """Per-cell loop encoder mirroring the documented construction."""
    points = template.points.tolist()
    g = 2.0 * params.radius / params.ns
    out = []
    for k, (xk, yk, tk) in enumerate(points):
        cells = []
        for ix in range(params.ns):
            for iy in range(params.ns):
                cx = -params.radius + g * (ix + 0.5)
                cy = -params.radius + g * (iy + 0.5)
                outside = math.hypot(cx, cy) > params.radius
                ax = xk + math.cos(tk) * cx - math.sin(tk) * cy
                ay = yk + math.sin(tk) * cx + math.cos(tk) * cy
                for h in range(1, params.nd + 1):
                    if outside:
                        cells.append(0.0)
                        continue
                    phi = (2.0 * h - 1.0) * math.pi / params.nd
                    total = 0.0
                    for l, (xl, yl, tl) in enumerate(points):
                        if l == k:
                            continue
                        if math.hypot(xl - xk, yl - yk) > params.radius:
                            continue
                        spatial = math.exp(-((ax - xl) ** 2 + (ay - yl) ** 2) / (2.0 * params.sigma_s**2))
                        delta = oracle_angle_distance(phi, tk - tl)
                        directional = math.exp(-(delta**2) / (2.0 * params.sigma_d**2))
                        total += spatial * directional
                    cells.append(min(total, 1.0))
        out.append(cells)
    return out


# ---------------------------------------------------------------------------
# frozen cylinder encoder
#
# The vectorised encoder as it stood before its rotation and pair distances
# were written out as plain arithmetic: (n, 2, 2) rotation matrices applied
# with an einsum, distances from a transposed (2, n, n) difference stack,
# and a layout built per call. Kept verbatim so the package's cylinders can
# be required to equal it byte for byte.


def _reference_cell_layout(params):
    g = 2.0 * params.radius / params.ns
    axis = -params.radius + g * (np.arange(params.ns) + 0.5)
    ci, cj = np.meshgrid(axis, axis, indexing="ij")
    centers = np.stack([ci.ravel(), cj.ravel()], axis=1)
    in_circle = np.hypot(centers[:, 0], centers[:, 1]) <= params.radius
    directions = (2.0 * np.arange(1, params.nd + 1) - 1.0) * math.pi / params.nd
    return centers, in_circle, directions


def _reference_angle_distance(a, b):
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % (2.0 * math.pi)
    return np.minimum(delta, 2.0 * math.pi - delta)


def reference_encode_cylinders(template, params):
    xy = np.ascontiguousarray(template.points[:, :2])
    theta = np.ascontiguousarray(template.points[:, 2])
    n = len(template)
    centers, in_circle, directions = _reference_cell_layout(params)

    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rot = np.stack(
        [np.stack([cos_t, -sin_t], axis=1), np.stack([sin_t, cos_t], axis=1)],
        axis=1,
    )  # (n, 2, 2)
    cell_abs = xy[:, None, :] + np.einsum("kab,sb->ksa", rot, centers)  # (n, S, 2)

    dx = cell_abs[:, :, None, 0] - xy[None, None, :, 0]  # (n, S, n)
    dy = cell_abs[:, :, None, 1] - xy[None, None, :, 1]
    spatial = np.exp(-0.5 * (dx**2 + dy**2) / params.sigma_s**2)

    pair_dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    neighbor = (pair_dist <= params.radius) & ~np.eye(n, dtype=bool)  # (n, n)
    spatial = spatial * neighbor[:, None, :]

    rel_angle = _reference_angle_distance(
        directions[:, None, None], (theta[:, None] - theta[None, :])[None, :, :]
    )  # (nd, n, n)
    directional = np.exp(-0.5 * rel_angle**2 / params.sigma_d**2)

    values = np.einsum("ksl,hkl->ksh", spatial, directional)  # (n, S, nd)
    values[:, ~in_circle, :] = 0.0
    np.minimum(values, 1.0, out=values)
    return values.reshape(n, params.dim)


def oracle_genuine_count(fingers, samples):
    return fingers * samples * (samples - 1) // 2


def oracle_impostor_count(fingers):
    return fingers * (fingers - 1) // 2


# ---------------------------------------------------------------------------
# frozen per-pair scorer
#
# An exception to the plain-loop rule above: this is the per-pair
# scorer the batched one replaced (scipy's cdist, a greedy pick per
# matrix, np.mean), kept verbatim so the batched scores can be required
# to match it bit for bit, ties and orientation included.


def reference_similarity_matrix(codes_a, codes_b, q):
    from scipy.spatial.distance import cdist

    codes_a = np.asarray(codes_a)
    codes_b = np.asarray(codes_b)
    if codes_a.shape[1] != codes_b.shape[1]:
        raise ValueError(f"code lengths differ: {codes_a.shape[1]} vs {codes_b.shape[1]}")
    m = codes_a.shape[1]
    dist = cdist(codes_a.astype(float), codes_b.astype(float))
    sim = 1.0 - dist / ((q - 1) * math.sqrt(m))
    return np.clip(sim, 0.0, 1.0)


def _reference_greedy_pairs(sim, n_p):
    work = sim.copy()
    pairs = []
    for _ in range(n_p):
        flat = int(np.argmax(work))
        row, col = divmod(flat, work.shape[1])
        pairs.append((row, col))
        work[row, :] = -1.0
        work[:, col] = -1.0
    return pairs


def reference_lgs_match_detail(a, b, params, allow_cross_key=False):
    """(score value, selected (row_in_a, row_in_b, similarity) pairs, n_p) of one pair."""
    from giomhash.matching import np_select

    if a.m != b.m:
        raise ValueError(f"code length mismatch: m={a.m} vs m={b.m}")
    if a.q != b.q:
        raise ValueError(f"index range mismatch: q={a.q} vs q={b.q}")
    if not allow_cross_key and a.key_fingerprint != b.key_fingerprint:
        raise ValueError(
            f"key fingerprint mismatch ({a.key_fingerprint} vs {b.key_fingerprint}); "
            "templates hashed under different keys are not comparable"
        )
    swapped = (b.n_points, b.codes.tobytes()) < (a.n_points, a.codes.tobytes())
    first, second = (b, a) if swapped else (a, b)
    sim = reference_similarity_matrix(first.codes, second.codes, a.q)
    n_p = np_select(a.n_points, b.n_points, params)
    pairs = _reference_greedy_pairs(sim, n_p)
    selected = [(c, r, float(sim[r, c])) if swapped else (r, c, float(sim[r, c])) for r, c in pairs]
    return float(np.mean([s for _, _, s in selected])), selected, n_p


def reference_score_pairs(pairs, hashed, params, allow_cross_key=False, hashed_b=None):
    second = hashed if hashed_b is None else hashed_b
    return [
        reference_lgs_match_detail(hashed[x], second[y], params, allow_cross_key)[0] for x, y in pairs
    ]


# ---------------------------------------------------------------------------
# frozen preimage samplers
#
# The rejection sampler and volume estimate as first written, each with its
# own batch loop and its own seeding, kept so the shared batch loop can be
# required to draw exactly the same candidates at every batch boundary.


def reference_sample_preimage(system, attempts, seed, batch_size):
    remaining = int(attempts)
    batch_index = 0
    while remaining > 0:
        n = min(batch_size, remaining)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), batch_index]))
        if batch_index % 2 == 0:
            candidates = rng.standard_normal((n, system.variable_dim))
        else:
            candidates = rng.random((n, system.variable_dim))
        hits = system.satisfied(candidates)
        if hits.any():
            return candidates[int(np.argmax(hits))].copy()
        remaining -= n
        batch_index += 1
    return None


def reference_volume_estimate(system, samples, seed, batch_size):
    hits = 0
    done = 0
    batch_index = 0
    while done < samples:
        n = min(batch_size, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), batch_index]))
        candidates = rng.random((n, system.variable_dim))
        hits += int(system.satisfied(candidates).sum())
        done += n
        batch_index += 1
    return hits / samples


# ---------------------------------------------------------------------------
# frozen constraint builder
#
# build_inequalities as first written, one winner-minus-loser row at a time,
# kept so the per-matrix blocks can be required to give the same rows, in the
# same order, bit for bit.


def reference_build_inequalities(bank, code):
    rows = []
    for i, winner in enumerate(code):
        mat = bank.matrix(i)
        win_col = mat[:, winner - 1]
        for j in range(bank.q):
            if j != winner - 1:
                rows.append(win_col - mat[:, j])
    return np.array(rows)
