"""Security and privacy experiments: inversion, unlinkability, revocability.

A protected code pins its preimage to an intersection of half-spaces through
the origin (winner column beats every loser column). The experiments probe
that cone by rejection sampling and Monte-Carlo volume, and measure score
distribution overlap for the unlinkability and revocability claims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evaluation import EncodedDataset, encode_dataset, first_samples, hash_dataset, protocol_pairs, protocol_scores, score_pairs
from .matching import LgsParams
from .mcc import MccParams
from .model import GaussianBank, HashKey, _frozen_array, _integer, _one_point
from .randomness import child_seed, stream

# Candidate batch sizes. They fix which stream each candidate comes from, so
# changing one changes every result drawn with it.
PREIMAGE_BATCH = 4096
VOLUME_BATCH = 65536

# 100 equal score bins over [0, 1]
HIST_EDGES = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True, eq=False)
class InequalitySystem:
    """Strict linear constraints <normal, x> > 0 describing a preimage cone."""

    normals: np.ndarray

    def __post_init__(self) -> None:
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim != 2:
            raise ValueError(f"normals must be (k, d), got shape {normals.shape}")
        object.__setattr__(self, "normals", _frozen_array(normals, float))

    @property
    def variable_dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.normals.shape[0]

    def satisfied(self, points) -> np.ndarray:
        """Boolean mask of rows satisfying every constraint strictly; with no constraints, every row."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.variable_dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {self.variable_dim}")
        return (pts @ self.normals.T > 0).all(axis=1)


def build_inequalities(bank: GaussianBank, code) -> InequalitySystem:
    """The m*(q-1) half-space constraints equivalent to observing `code`.

    Position i with winner j* contributes w_{j*} - w_j for every losing
    column j of matrix i.
    """
    if np.shape(code) != (bank.m,):
        raise ValueError(f"expected a code of length m={bank.m}, got shape {np.shape(code)}")
    code = _one_point(code, bank.q).codes[0]
    mats = map(bank.matrix, range(bank.m))
    blocks = [(mat[:, w - 1 : w] - np.delete(mat, w - 1, axis=1)).T for w, mat in zip(code.tolist(), mats)]
    return InequalitySystem(np.concatenate(blocks))


def _seeded_batches(total: int, batch: int, seed: int):
    """(index, generator, size) for consecutive batches covering `total` draws.

    Batch i draws from stream(seed, i).
    """
    for index, start in enumerate(range(0, total, batch)):
        yield index, stream(seed, index), min(batch, total - start)


def sample_preimage(system: InequalitySystem, attempts: int, seed: int) -> np.ndarray | None:
    """Rejection-sample a vector satisfying every constraint strictly.

    Candidate batches of PREIMAGE_BATCH alternate standard-normal draws with
    uniform draws over [0, 1]^d (the cylinder-value domain). Returns the
    first hit, or None once `attempts` candidates are exhausted.
    Reproducible from (seed, attempts).
    """
    attempts = _integer(attempts, "attempts")
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    for index, rng, n in _seeded_batches(attempts, PREIMAGE_BATCH, seed):
        shape = (n, system.variable_dim)
        candidates = rng.random(shape) if index % 2 else rng.standard_normal(shape)
        hits = system.satisfied(candidates)
        if hits.any():
            return candidates[int(np.argmax(hits))].copy()
    return None


def preimage_volume_estimate(system: InequalitySystem, samples: int, seed: int = 0) -> float:
    """Fraction of uniform-[0, 1]^d samples inside the cone, drawn in batches of VOLUME_BATCH.

    A larger fraction at fixed q and smaller m means the code constrains the
    input more weakly. An empty constraint set gives exactly 1.0.
    """
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    for _, rng, n in _seeded_batches(samples, VOLUME_BATCH, seed):
        hits += int(system.satisfied(rng.random((n, system.variable_dim))).sum())
    return hits / samples


def score_fractions(scores) -> np.ndarray:
    """Fraction of the scores in each bin of HIST_EDGES; an empty score set gives all zeros."""
    scores = np.asarray(list(scores), dtype=float)
    counts, _ = np.histogram(scores, bins=HIST_EDGES)
    return counts / max(scores.size, 1)


def histogram_intersection(a, b) -> float:
    """Overlap of two score samples: sum of per-bin minimum mass fractions."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("both score sets must be non-empty")
    return float(np.minimum(score_fractions(a), score_fractions(b)).sum())


def check_key_pair(key_a: HashKey, key_b: HashKey) -> None:
    """Raise ValueError unless the two keys of a cross-key experiment differ in seed and share (m, q, d)."""
    if key_a.seed == key_b.seed:
        raise ValueError("keys must have different seeds; identical keys make the experiment meaningless")
    if (key_a.m, key_a.q, key_a.d) != (key_b.m, key_b.q, key_b.d):
        raise ValueError("keys must share (m, q, d) so scores are comparable")


def unlinkability_experiment(
    dataset,
    key_a: HashKey,
    key_b: HashKey,
    mcc: MccParams = MccParams(),
    lgs: LgsParams = LgsParams(),
) -> tuple[list[float], list[float]]:
    """Cross-key score distributions: (mated_genuine, non_mated_impostor).

    Mated scores compare same-finger templates hashed under the two keys;
    non-mated scores compare different-finger templates across the keys. If
    the system is unlinkable the two distributions overlap heavily.
    """
    check_key_pair(key_a, key_b)
    protocol = protocol_pairs(dataset)
    encoded = encode_dataset(dataset, mcc)
    under_a, under_b = hash_dataset(encoded, key_a), hash_dataset(encoded, key_b)
    return protocol_scores(protocol, under_a, lgs, hashed_b=under_b)


def revocability_experiment(
    dataset,
    base_key: HashKey,
    n_keys: int,
    seed: int,
    mcc: MccParams = MccParams(),
    lgs: LgsParams = LgsParams(),
) -> tuple[list[float], list[float], list[float]]:
    """Renewal experiment: (mated_genuine, genuine, impostor) score sets.

    Every finger's first sample is re-hashed under n_keys fresh keys and
    matched against its base-key code, giving F * n_keys mated-genuine
    scores. Genuine and impostor scores under the base key provide the
    reference distributions. The fresh seed for finger f's k-th key is
    child_seed(seed, f, k).
    """
    n_keys = _integer(n_keys, "n_keys")
    if n_keys < 1:
        raise ValueError("n_keys must be >= 1")
    protocol = protocol_pairs(dataset)
    encoded = encode_dataset(dataset, mcc)
    under_base = hash_dataset(encoded, base_key)
    mated: list[float] = []
    # one finger's renewals at a time, so memory does not grow with the dataset
    for finger_index, template_key in enumerate(first_samples(dataset)):
        first = EncodedDataset(encoded.rows[encoded.ranges[template_key]], {template_key: slice(None)})
        renewed = {
            k: hash_dataset(first, replace(base_key, seed=child_seed(seed, finger_index, k)))[template_key]
            for k in range(n_keys)
        }
        base = {template_key: under_base[template_key]}
        pairs = [(template_key, key_index) for key_index in renewed]
        mated += score_pairs(pairs, base, lgs, hashed_b=renewed)
    return mated, *protocol_scores(protocol, under_base, lgs)
