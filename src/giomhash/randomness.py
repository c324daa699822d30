"""Seeded streams, bank derivation and orthonormal projection utilities.

Every seeded draw comes from `stream` and every derived seed from `child_seed`.
Bank matrices come from per-index streams, so matrix i is the same no matter
how many matrices the bank has and can be drawn on its own. Orthonormal
bases for the projection baselines come from modified Gram-Schmidt; LAPACK
QR is avoided because its sign conventions differ from plain Gram-Schmidt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import GaussianBank, HashKey, _frozen_array, _integer

GS_PIVOT_TOL = 1e-10
ORTHO_CHECK_TOL = 1e-8


def _seed_sequence(entropy) -> np.random.SeedSequence:
    # a float or a bool would otherwise be truncated to the stream of another integer
    return np.random.SeedSequence([_integer(e, "entropy") for e in entropy])


def stream(*entropy: int) -> np.random.Generator:
    """The generator seeded by the integers in entropy; equal entropy, equal draws."""
    return np.random.default_rng(_seed_sequence(entropy))


def child_seed(*entropy: int) -> int:
    """A 64-bit seed derived from the integers in entropy, for keys renewed or swept per index."""
    return int(_seed_sequence(entropy).generate_state(1, np.uint64)[0])


def bank_matrix(key: HashKey, index: int) -> np.ndarray:
    """The index-th d x q matrix of the bank derived from key.

    Each matrix draws from its own child stream, so streams never shift when
    m changes: bank_matrix(key, i) is prefix-stable in m.
    """
    if not 0 <= index < key.m:
        raise ValueError(f"matrix index {index} out of range for m={key.m}")
    return stream(key.seed, index).standard_normal((key.d, key.q))


def derive_bank(key: HashKey) -> GaussianBank:
    """The GaussianBank of key's shape whose matrix i is bank_matrix(key, i)."""
    return GaussianBank(key.m, key.d, key.q, functools.partial(bank_matrix, key))


@dataclass(frozen=True, eq=False)
class OrthoMatrix:
    """An n x k matrix with orthonormal columns."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[1] > ent.shape[0]:
            raise ValueError(f"expected n x k with k <= n, got shape {ent.shape}")
        gram = ent.T @ ent
        if not np.allclose(gram, np.eye(ent.shape[1]), atol=ORTHO_CHECK_TOL):
            raise ValueError("columns are not orthonormal")
        object.__setattr__(self, "entries", _frozen_array(ent, float))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]


def gram_schmidt(matrix) -> OrthoMatrix:
    """Orthonormalize the columns of matrix with modified Gram-Schmidt.

    Raises ValueError naming the offending column when a pivot norm falls
    below GS_PIVOT_TOL (rank deficiency).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    n, k = a.shape
    if k > n:
        raise ValueError(f"cannot orthonormalize {k} columns in {n} dimensions")
    basis = np.empty((n, k))
    for col in range(k):
        v = a[:, col].copy()
        for prev in range(col):
            v -= (basis[:, prev] @ v) * basis[:, prev]
        norm = np.linalg.norm(v)
        if norm < GS_PIVOT_TOL:
            raise ValueError(f"rank deficiency at column {col}: pivot norm {norm:.3e} < {GS_PIVOT_TOL}")
        basis[:, col] = v / norm
    return OrthoMatrix(basis)


def random_ortho(n: int, k: int, seed: int) -> OrthoMatrix:
    """A seeded random orthonormal n x k basis (Gram-Schmidt on Gaussian draws)."""
    return gram_schmidt(stream(seed).standard_normal((n, k)))


def random_projection(x, ortho: OrthoMatrix) -> np.ndarray:
    """Project x (length n) to k dimensions, scaled by sqrt(n/k).

    The scaling makes squared distances unbiased estimates of the originals,
    which is what the Johnson-Lindenstrauss guarantee is stated for.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ortho.n,):
        raise ValueError(f"expected input of shape ({ortho.n},), got {x.shape}")
    return math.sqrt(ortho.n / ortho.k) * (ortho.entries.T @ x)


def jl_dimension(n_points: int, eps: float) -> int:
    """Smallest embedding dimension covered by the distortion bound for eps."""
    if n_points < 2:
        raise ValueError("need at least two points")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    denom = eps**2 / 2.0 - eps**3 / 3.0
    return math.ceil(4.0 * math.log(n_points) / denom)
