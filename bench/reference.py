"""Reference outputs for the benchmark, computed without importing giomhash.

This module freezes the pipeline's arithmetic as the package defines it when
the benchmark was introduced: cylinder encoding, per-index bank streams,
winner-index hashing, greedy local matching, the FVC pair protocol and the
EER sweep. Every step uses the same NumPy operations in the same order as
the package, so codes, scores and EERs agree bit for bit. An optimisation
that changes any of them shows up as a failed operation, not as a speed-up.

Two steps take an exact shortcut to keep the reference cheap:

- large row stacks are hashed in chunks, which leaves every row's
  projections unchanged;
- point distances come from one Gram product per template. Codes are small
  integers, so ||a||^2 + ||b||^2 - 2 a.b is the same exact integer as the
  sum of squared differences, and its square root is identical.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TWO_PI = 2.0 * math.pi
HASH_CHUNK_ROWS = 128


# ---------------------------------------------------------------------------
# digests of parsed content


def digest(value) -> str:
    """Short sha256 of nested lists/tuples/dicts of ints, floats, strings and arrays.

    Floats enter by their exact hex form and arrays by dtype, shape and
    bytes, so two digests agree only if every number agrees exactly.
    """
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, dict):
        h.update(b"{")
        for k in sorted(value):
            _feed(h, k)
            _feed(h, value[k])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, float):
        h.update(b"f" + value.hex().encode())
    elif isinstance(value, (bool, int, np.integer)):
        h.update(b"i" + str(int(value)).encode())
    elif isinstance(value, str):
        h.update(b"s" + value.encode() + b"\0")
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def codes_digest(codes: dict) -> str:
    """Digest of {(finger_id, sample_id): (N, m) int codes}, keyed in sorted order."""
    return digest({f"{k[0]}_{k[1]:02d}": np.asarray(v, dtype=np.int64) for k, v in codes.items()})


# ---------------------------------------------------------------------------
# encoder


def _cell_layout(radius: float, ns: int, nd: int):
    g = 2.0 * radius / ns
    axis = -radius + g * (np.arange(ns) + 0.5)
    ci, cj = np.meshgrid(axis, axis, indexing="ij")
    centers = np.stack([ci.ravel(), cj.ravel()], axis=1)
    in_circle = np.hypot(centers[:, 0], centers[:, 1]) <= radius
    directions = (2.0 * np.arange(1, nd + 1) - 1.0) * math.pi / nd
    return centers, in_circle, directions


def _angle_distance(a, b) -> np.ndarray:
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return np.minimum(delta, TWO_PI - delta)


def encode(xy: np.ndarray, theta: np.ndarray, radius: float, ns: int, nd: int) -> np.ndarray:
    """Flattened cylinders, one row per point, in the package's operation order."""
    sigma_s = radius / 7.5
    sigma_d = math.pi / 9.0
    n = xy.shape[0]
    centers, in_circle, directions = _cell_layout(radius, ns, nd)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rot = np.stack(
        [np.stack([cos_t, -sin_t], axis=1), np.stack([sin_t, cos_t], axis=1)],
        axis=1,
    )
    cell_abs = xy[:, None, :] + np.einsum("kab,sb->ksa", rot, centers)
    diff = cell_abs[:, :, None, :] - xy[None, None, :, :]
    spatial = np.exp(-0.5 * np.sum(diff**2, axis=-1) / sigma_s**2)
    pair_dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    neighbor = (pair_dist <= radius) & ~np.eye(n, dtype=bool)
    spatial = spatial * neighbor[:, None, :]
    rel_angle = _angle_distance(directions[:, None, None], (theta[:, None] - theta[None, :])[None, :, :])
    directional = np.exp(-0.5 * rel_angle**2 / sigma_d**2)
    values = np.einsum("ksl,hkl->ksh", spatial, directional)
    values[:, ~in_circle, :] = 0.0
    np.minimum(values, 1.0, out=values)
    return values.reshape(n, ns * ns * nd)


# ---------------------------------------------------------------------------
# bank and hashing


def key_fingerprint(seed: int, m: int, q: int, d: int) -> str:
    return hashlib.sha256(f"{seed}:{m}:{q}:{d}".encode()).hexdigest()[:16]


def bank_flat(seed: int, m: int, q: int, d: int) -> np.ndarray:
    """The (d, m*q) projection matrix; column block i is bank matrix i."""
    flat = np.empty((d, m * q))
    for i in range(m):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        flat[:, i * q : (i + 1) * q] = rng.standard_normal((d, q))
    return flat


def hash_rows(rows: np.ndarray, flat: np.ndarray, m: int, q: int) -> np.ndarray:
    """1-based winner index per row and matrix, shape (N, m)."""
    out = np.empty((rows.shape[0], m), dtype=np.int64)
    for lo in range(0, rows.shape[0], HASH_CHUNK_ROWS):
        chunk = np.ascontiguousarray(rows[lo : lo + HASH_CHUNK_ROWS])
        out[lo : lo + chunk.shape[0]] = np.argmax((chunk @ flat).reshape(chunk.shape[0], m, q), axis=2) + 1
    return out


def hash_stacked(cylinders: dict, flat: np.ndarray, m: int, q: int) -> dict:
    """Hash every template's rows as one stack, split back per template."""
    keys = list(cylinders)
    codes = hash_rows(np.vstack([cylinders[k] for k in keys]), flat, m, q)
    out = {}
    offset = 0
    for k in keys:
        n = cylinders[k].shape[0]
        out[k] = codes[offset : offset + n]
        offset += n
    return out


# ---------------------------------------------------------------------------
# matching


def np_select(n_a: int, n_b: int, min_np: int = 4, max_np: int = 12, mu_p: float = 20.0, tau_p: float = 0.4) -> int:
    v = min(n_a, n_b)
    t = tau_p * (v - mu_p)
    z = 1.0 if t > 700.0 else 0.0 if t < -700.0 else 1.0 / (1.0 + math.exp(-t))
    raw = min_np + round(z * (max_np - min_np))
    return min(max(raw, min_np), max_np, n_a, n_b)


def _greedy_score(sim: np.ndarray, n_p: int) -> float:
    work = sim.copy()
    picked = []
    for _ in range(n_p):
        row, col = divmod(int(np.argmax(work)), work.shape[1])
        picked.append(float(sim[row, col]))
        work[row, :] = -1.0
        work[:, col] = -1.0
    return float(np.mean(picked))


class Scorer:
    """Greedy local-similarity scores between templates of one gallery.

    `codes` maps template keys to (N, m) integer codes. Distances of every
    template against the whole gallery come from one Gram product, so
    scoring many pairs costs one matrix product per first template.
    """

    def __init__(self, codes: dict, q: int, second: dict | None = None):
        self.codes = codes
        self.second = codes if second is None else second
        self.q = q
        keys = list(self.second)
        self._offsets = {}
        offset = 0
        for k in keys:
            self._offsets[k] = (offset, offset + self.second[k].shape[0])
            offset += self.second[k].shape[0]
        self._stack = np.vstack([self.second[k] for k in keys]).astype(float)
        self._norms = np.einsum("ij,ij->i", self._stack, self._stack)
        self._row_key = None
        self._row_sim = None

    def _similarities(self, key) -> np.ndarray:
        if self._row_key != key:
            a = self.codes[key].astype(float)
            sq = np.einsum("ij,ij->i", a, a)[:, None] + self._norms[None, :] - 2.0 * (a @ self._stack.T)
            dist = np.sqrt(sq)
            m = a.shape[1]
            self._row_sim = np.clip(1.0 - dist / ((self.q - 1) * math.sqrt(m)), 0.0, 1.0)
            self._row_key = key
        return self._row_sim

    def score(self, key_a, key_b) -> float:
        a = self.codes[key_a]
        b = self.second[key_b]
        lo, hi = self._offsets[key_b]
        sim = self._similarities(key_a)[:, lo:hi]
        # the package orients the pair canonically before greedy selection
        if (b.shape[0], b.tobytes()) < (a.shape[0], a.tobytes()):
            sim = sim.T
        return _greedy_score(np.ascontiguousarray(sim), np_select(a.shape[0], b.shape[0]))


# ---------------------------------------------------------------------------
# protocol


def genuine_pairs(keys) -> list:
    by_finger: dict = {}
    for finger, sample in keys:
        by_finger.setdefault(finger, []).append(sample)
    pairs = []
    for finger in sorted(by_finger):
        samples = sorted(by_finger[finger])
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                pairs.append(((finger, samples[i]), (finger, samples[j])))
    return pairs


def first_samples(keys) -> list:
    firsts: dict = {}
    for finger, sample in keys:
        firsts[finger] = min(sample, firsts.get(finger, sample))
    return [(finger, firsts[finger]) for finger in sorted(firsts)]


def impostor_pairs(keys) -> list:
    firsts = first_samples(keys)
    return [(firsts[i], firsts[j]) for i in range(len(firsts)) for j in range(i + 1, len(firsts))]


def compute_eer(genuine, impostor) -> float:
    gen_sorted = np.sort(np.asarray(genuine, dtype=float))
    imp_sorted = np.sort(np.asarray(impostor, dtype=float))
    thresholds = np.unique(np.concatenate([gen_sorted, imp_sorted]))
    fmr = (imp_sorted.size - np.searchsorted(imp_sorted, thresholds, side="left")) / imp_sorted.size
    fnmr = np.searchsorted(gen_sorted, thresholds, side="left") / gen_sorted.size
    best = int(np.argmin(np.abs(fmr - fnmr)))
    return float((fmr[best] + fnmr[best]) / 2.0)


def evaluate(cylinders: dict, seed: int, m: int, q: int) -> dict:
    """Codes, genuine and impostor scores and EER of one protocol run."""
    d = next(iter(cylinders.values())).shape[1]
    codes = hash_stacked(cylinders, bank_flat(seed, m, q, d), m, q)
    scorer = Scorer(codes, q)
    keys = sorted(cylinders)
    genuine = [scorer.score(a, b) for a, b in genuine_pairs(keys)]
    impostor = [scorer.score(a, b) for a, b in impostor_pairs(keys)]
    return {
        "codes": codes,
        "genuine_scores": genuine,
        "impostor_scores": impostor,
        "eer": compute_eer(genuine, impostor),
    }


def trial_seed(base_seed: int, m: int, q: int, trial: int) -> int:
    return int(np.random.SeedSequence([int(base_seed), int(m), int(q), int(trial)]).generate_state(1, np.uint64)[0])


def sweep_records(cylinders: dict, m_list, q_list, trials: int, base_seed: int) -> list:
    """(m, q, trial, seed, eer) per sweep trial, in the sweep's loop order."""
    records = []
    for m in m_list:
        for q in q_list:
            for trial in range(trials):
                seed = trial_seed(base_seed, m, q, trial)
                records.append((m, q, trial, seed, evaluate(cylinders, seed, m, q)["eer"]))
    return records


def revoke_scores(cylinders: dict, base_seed: int, n_keys: int, fresh_seed: int, m: int, q: int) -> dict:
    """mated_genuine, genuine and impostor score sets of the renewal experiment."""
    d = next(iter(cylinders.values())).shape[1]
    under_base = hash_stacked(cylinders, bank_flat(base_seed, m, q, d), m, q)
    keys = sorted(cylinders)
    mated = []
    for finger_index, key in enumerate(first_samples(keys)):
        for key_index in range(n_keys):
            seq = np.random.SeedSequence([int(fresh_seed), finger_index, key_index])
            seed = int(seq.generate_state(1, np.uint64)[0])
            renewed = {key: hash_rows(cylinders[key], bank_flat(seed, m, q, d), m, q)}
            mated.append(Scorer({key: under_base[key]}, q, second=renewed).score(key, key))
    scorer = Scorer(under_base, q)
    return {
        "mated_genuine": mated,
        "genuine": [scorer.score(a, b) for a, b in genuine_pairs(keys)],
        "impostor": [scorer.score(a, b) for a, b in impostor_pairs(keys)],
    }
