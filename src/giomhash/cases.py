"""Bundled worked examples for the inversion case studies.

Two small hand-checkable fixtures: a square case (m equals the feature
dimension) whose preimage cone has a known closed-form description, and an
underdetermined case (m below the feature dimension). Both are used by exact
regression tests and by `giom analyze --mode invert`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GaussianBank, _frozen_array


@dataclass(frozen=True, eq=False)
class InversionCase:
    """One fixed input vector, its bank, and the expected hash output."""

    name: str
    vector: np.ndarray
    bank: GaussianBank
    expected_code: np.ndarray
    expected_projections: np.ndarray | None = None

    def __post_init__(self) -> None:
        for field in ("vector", "expected_code", "expected_projections"):
            arr = getattr(self, field)
            if arr is not None:
                dtype = np.int64 if field == "expected_code" else float
                object.__setattr__(self, field, _frozen_array(arr, dtype))


def _case_square() -> InversionCase:
    mats = np.array(
        [
            [[0.2, -0.4], [-0.6, -0.1], [0.4, 0.9]],
            [[0.3, 0.7], [0.3, -0.3], [-0.1, 0.5]],
            [[0.1, -0.4], [0.2, -0.6], [0.7, 0.1]],
        ]
    )
    return InversionCase(
        name="square",
        vector=np.array([0.8, 0.1, 0.7]),
        bank=GaussianBank.of(mats),
        expected_code=np.array([1, 2, 1]),
        expected_projections=np.array([[0.38, 0.30], [0.20, 0.88], [0.59, -0.31]]),
    )


def _case_underdetermined() -> InversionCase:
    mats = np.array(
        [
            [[0.2, -0.4], [-0.6, -0.1], [0.4, 0.9], [0.9, 0.5]],
            [[0.3, 0.7], [0.3, -0.3], [-0.1, 0.5], [0.4, 0.1]],
        ]
    )
    return InversionCase(
        name="underdetermined",
        vector=np.array([0.8, 0.1, 0.7, 0.5]),
        bank=GaussianBank.of(mats),
        expected_code=np.array([1, 2]),
    )


CASES: dict[int, InversionCase] = {1: _case_square(), 2: _case_underdetermined()}


def get_case(number: int) -> InversionCase:
    if number not in CASES:
        raise ValueError(f"unknown case {number}; available: {sorted(CASES)}")
    return CASES[number]


def square_case_region(points) -> np.ndarray:
    """Hand-solved preimage region for the square case, strict interior.

    The closed form (x1 > 0, -x1/14 < x2 <= 14 x1/15, (3 x2 - 2 x1)/3 < x3 <
    (6 x1 - 5 x2)/5) was derived assuming sign conditions that hold on the
    cylinder-value domain [0, 1]^3; on that domain it coincides exactly with
    the three-constraint inequality system. It is not equivalent on all of
    R^3.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError(f"expected points of dimension 3, got shape {pts.shape}")
    x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
    return (
        (x1 > 0)
        & (x2 > -x1 / 14.0)
        & (x2 <= 14.0 * x1 / 15.0)
        & (x3 > (3.0 * x2 - 2.0 * x1) / 3.0)
        & (x3 < (6.0 * x1 - 5.0 * x2) / 5.0)
    )
