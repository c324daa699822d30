"""Winner-index transforms.

giom_hash maps every row of a cylinder set through m Gaussian matrices and
keeps only the 1-based argmax column per matrix, giving an N x m index code.
iom_hash is the single fixed-vector case. Both, and evaluation.hash_dataset,
go through the one blocked kernel hash_rows. rmf_features keeps the max value
instead of its index, and biohash is the classic sign-threshold baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CylinderSet, GaussianBank, HashedTemplate, _frozen_array, _real
from .randomness import OrthoMatrix


@dataclass(frozen=True, eq=False)
class RmfVector:
    """Max-of-projections features, scaled by 1/sqrt(m)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or not np.isfinite(vals).all():
            raise ValueError("values must be a finite 1-d array")
        object.__setattr__(self, "values", _frozen_array(vals, float))


@dataclass(frozen=True, eq=False)
class BioHashCode:
    """Binary code from thresholded orthonormal projections."""

    bits: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be a 1-d array of 0/1")
        object.__setattr__(self, "bits", _frozen_array(bits, np.uint8))
        object.__setattr__(self, "tau", _real(self.tau, "tau"))


def _check_rows(rows: np.ndarray, bank: GaussianBank) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected (N, d) rows, got shape {rows.shape}")
    if rows.shape[1] != bank.d:
        raise ValueError(f"feature dimension {rows.shape[1]} does not match bank d={bank.d}")
    if not np.isfinite(rows).all():
        raise ValueError("features must be finite")
    return rows


# Rows are hashed 128 at a time against blocks of whole matrices, so one
# block's projection holds about 2 MiB of float64 whatever the dataset size.
_ROW_CHUNK = 128
_BLOCK_FLOATS = 1 << 18


def _block_matrices(q: int) -> int:
    """Matrices per projection block for alphabet size q (at least one)."""
    return max(1, _BLOCK_FLOATS // (_ROW_CHUNK * q))


def hash_rows(rows, bank: GaussianBank) -> np.ndarray:
    """1-based winner indices for each row and matrix, shape (N, m).

    Ties resolve to the smallest column index (numpy argmax convention).
    Rows go through in chunks of 128 against blocks of whole matrices, so
    beyond the (N, m) int64 result the working memory is one block's
    projection, about 2 MiB, independent of N and m. A block never splits a
    matrix, which keeps the first-wins tie rule.
    """
    rows = _check_rows(rows, bank)
    n, m, q = rows.shape[0], bank.m, bank.q
    flat = bank.flat()
    step = _block_matrices(q)
    codes = np.empty((n, m), dtype=np.int64)
    for lo in range(0, n, _ROW_CHUNK):
        chunk = rows[lo : lo + _ROW_CHUNK]
        c = chunk.shape[0]
        for j in range(0, m, step):
            k = min(step, m - j)
            proj = chunk @ flat[:, j * q : (j + k) * q]
            np.argmax(proj.reshape(c, k, q), axis=2, out=codes[lo : lo + c, j : j + k])
    codes += 1
    return codes


def giom_hash(cylinders: CylinderSet, bank: GaussianBank) -> HashedTemplate:
    """Hash a variable-size cylinder set into an N x m protected index code."""
    codes = hash_rows(cylinders.vectors, bank)
    codes.flags.writeable = False
    return HashedTemplate(codes=codes, q=bank.q, key_fingerprint=bank.fingerprint())


def iom_hash(x, bank: GaussianBank) -> np.ndarray:
    """Hash a single feature vector into a length-m index code."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    return hash_rows(x[None, :], bank)[0]


def rmf_features(x, bank: GaussianBank) -> RmfVector:
    """Length-m vector of per-matrix maxima, scaled by 1/sqrt(m)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    proj = (_check_rows(x[None, :], bank) @ bank.flat()).reshape(bank.m, bank.q)
    return RmfVector(proj.max(axis=1) / np.sqrt(bank.m))


def biohash(x, ortho: OrthoMatrix, tau: float = 0.0) -> BioHashCode:
    """Threshold the k orthonormal projections of x at tau.

    A projection exactly equal to tau yields bit 0 (strict inequality).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ortho.n,):
        raise ValueError(f"expected input of shape ({ortho.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    tau = _real(tau, "tau")
    bits = (ortho.entries.T @ x - tau > 0.0).astype(np.uint8)
    return BioHashCode(bits=bits, tau=tau)
