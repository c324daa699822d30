"""Winner-index transforms.

giom_hash maps every row of a cylinder set through m Gaussian matrices and
keeps only the 1-based argmax column per matrix, giving an N x m index code.
iom_hash is the single fixed-vector case (Jin et al.'s IoM hashing). Both,
and evaluation.hash_dataset, go through the one blocked kernel hash_rows.
"""

from __future__ import annotations

import numpy as np

from .model import CylinderSet, GaussianBank, HashedTemplate


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
