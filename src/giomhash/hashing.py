"""Winner-index transforms.

hash_rows maps every row of an (N, d) array through m Gaussian matrices and
keeps only the 1-based argmax column per matrix, giving an N x m index code;
evaluation.hash_dataset hashes a whole dataset's rows with it in one call.
A one-row array is the single fixed-vector case (Jin et al.'s IoM hashing).
"""

from __future__ import annotations

import numpy as np

from .model import GaussianBank, code_dtype


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
    The bank goes through in blocks of k whole matrices, written side by
    side into one reused (d, k*q) buffer that every 128-row chunk is
    projected against. Beyond the (N, m) code_dtype(q) result the working
    memory is that buffer, one chunk's projection (about 2 MiB) and the
    (chunk, k) intp index array np.argmax casts into the codes (up to 1 MiB),
    independent of N and m. A block never splits a matrix, which keeps the
    first-wins tie rule. Every call reads all m matrices (see GaussianBank),
    so hash a whole row stack in one call rather than a call per template.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected (N, d) rows, got shape {rows.shape}")
    if rows.shape[1] != bank.d:
        raise ValueError(f"feature dimension {rows.shape[1]} does not match bank d={bank.d}")
    n, m, q = rows.shape[0], bank.m, bank.q
    # one chunk's mask at a time, so the check holds no (N, d) array
    if not all(np.isfinite(rows[lo : lo + _ROW_CHUNK]).all() for lo in range(0, n, _ROW_CHUNK)):
        raise ValueError("features must be finite")
    step = min(_block_matrices(q), m)
    buf = np.empty((bank.d, step * q))
    codes = np.empty((n, m), dtype=code_dtype(q))  # 1-based, so it must hold q itself
    for j in range(0, m, step):
        k = min(step, m - j)
        for i in range(k):
            buf[:, i * q : (i + 1) * q] = bank.matrix(j + i)
        block = buf[:, : k * q]
        for lo in range(0, n, _ROW_CHUNK):
            chunk = rows[lo : lo + _ROW_CHUNK]
            c = chunk.shape[0]
            np.argmax((chunk @ block).reshape(c, k, q), axis=2, out=codes[lo : lo + c, j : j + k])
    codes += 1
    return codes

