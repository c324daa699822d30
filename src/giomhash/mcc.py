"""Simplified cylinder-code encoder and a synthetic minutiae dataset generator.

Each minutia gets a 3-d histogram of its neighborhood, discretized into
ns x ns spatial cells by nd directional cells and flattened row-major with
the directional index fastest. Cell values are products of a spatial and a
wrapped-angular Gaussian kernel summed over neighbors, clamped to [0, 1].
A template's cylinders are one read-only (n, d) float64 row array, which
evaluation.encode_dataset writes into its dataset-wide row stack. Only the
real-valued cell core is implemented; validity masks, consolidation
and bit quantization of the full construction are out of scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import TWO_PI, MinutiaeTemplate, _frozen_array, _integer, _real, _shown, file_stem, save_minutiae
from .randomness import stream


@dataclass(frozen=True)
class MccParams:
    """Cylinder geometry and kernel spreads.

    sigma_s defaults to radius / 7.5 when not given; all knobs are exposed
    because no single canonical setting exists for the simplified encoder.
    """

    radius: float = 70.0
    ns: int = 16
    nd: int = 6
    sigma_s: float | None = None
    sigma_d: float = math.pi / 9.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", _real(self.radius, "radius"))
        object.__setattr__(self, "ns", _integer(self.ns, "ns"))
        object.__setattr__(self, "nd", _integer(self.nd, "nd"))
        if self.sigma_s is None:
            object.__setattr__(self, "sigma_s", self.radius / 7.5)
        else:
            object.__setattr__(self, "sigma_s", _real(self.sigma_s, "sigma_s"))
        object.__setattr__(self, "sigma_d", _real(self.sigma_d, "sigma_d"))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.ns < 2:
            raise ValueError("ns must be >= 2")
        if self.nd < 1:
            raise ValueError("nd must be >= 1")
        for name in ("sigma_s", "sigma_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {_shown(getattr(self, name))}")

    @property
    def dim(self) -> int:
        return self.ns * self.ns * self.nd


@functools.lru_cache(maxsize=16)
def _cell_layout(params: MccParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only cell centres cx, cy (ns*ns,), their in-circle mask and directions (nd,), memoised per MccParams."""
    g = 2.0 * params.radius / params.ns
    axis = -params.radius + g * (np.arange(params.ns) + 0.5)
    ci, cj = np.meshgrid(axis, axis, indexing="ij")
    cx, cy = ci.ravel(), cj.ravel()
    in_circle = np.hypot(cx, cy) <= params.radius
    directions = (2.0 * np.arange(1, params.nd + 1) - 1.0) * math.pi / params.nd
    return tuple(_frozen_array(a, a.dtype) for a in (cx, cy, in_circle, directions))


def wrapped_angle_distance(a, b) -> np.ndarray:
    """Distance on the circle: min(|a-b|, 2*pi - |a-b|), inputs in radians."""
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return np.minimum(delta, TWO_PI - delta)


def encode_cylinders(template: MinutiaeTemplate, params: MccParams = MccParams()) -> np.ndarray:
    """One flattened cylinder per minutia, cells indexed (ix, iy, direction).

    Returns a read-only (n, params.dim) float64 array with every cell in
    [0, 1], one row per minutia in template order. Cell centers rotate into
    the central minutia's frame, so the encoding is invariant to rigid motion
    of the whole template. Neighbors are the other minutiae within `radius`
    of the central one; a minutia never contributes to its own cylinder, so
    an isolated minutia encodes to all zeros.
    """
    # contiguous copies of the columns: NumPy's vectorised cos and sin may round otherwise on strided input
    x, y, theta = np.ascontiguousarray(template.points.T)
    n = len(template)
    cx, cy, in_circle, directions = _cell_layout(params)

    # each cell centre rotated by the central minutia's theta_k and moved to its position: (n, S)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cell_x = x[:, None] + (cos_t[:, None] * cx - sin_t[:, None] * cy)
    cell_y = y[:, None] + (sin_t[:, None] * cx + cos_t[:, None] * cy)

    dx = cell_x[:, :, None] - x  # (n, S, n)
    dy = cell_y[:, :, None] - y
    spatial = np.exp(-0.5 * (dx**2 + dy**2) / params.sigma_s**2)

    pair_dist = np.hypot(x[:, None] - x, y[:, None] - y)
    neighbor = (pair_dist <= params.radius) & ~np.eye(n, dtype=bool)  # (n, n)
    spatial = spatial * neighbor[:, None, :]

    rel_angle = wrapped_angle_distance(
        directions[:, None, None], (theta[:, None] - theta[None, :])[None, :, :]
    )  # (nd, n, n)
    directional = np.exp(-0.5 * rel_angle**2 / params.sigma_d**2)

    values = np.einsum("ksl,hkl->ksh", spatial, directional)  # (n, S, nd)
    values[:, ~in_circle, :] = 0.0
    # sums of products of exp() terms are never negative, so the cap bounds every cell to [0, 1]
    np.minimum(values, 1.0, out=values)
    values.flags.writeable = False
    return values.reshape(n, params.dim)


@dataclass(frozen=True)
class SynthParams:
    """Shape of the synthetic dataset standing in for scanner data."""

    fingers: int = 10
    samples_per_finger: int = 8
    minutiae_range: tuple[int, int] = (15, 30)
    jitter_pos: float = 5.0
    jitter_theta: float = 0.1
    drop_rate: float = 0.05
    field_size: float = 500.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "fingers", _integer(self.fingers, "fingers"))
        object.__setattr__(self, "samples_per_finger", _integer(self.samples_per_finger, "samples_per_finger"))
        lo, hi = (_integer(v, "minutiae_range") for v in self.minutiae_range)
        object.__setattr__(self, "minutiae_range", (lo, hi))
        for name in ("jitter_pos", "jitter_theta", "drop_rate", "field_size"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("fingers", "samples_per_finger"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {_shown(getattr(self, name))}")
        if lo < 1:
            raise ValueError("minutiae_range minimum must be >= 1")
        if lo > hi:
            raise ValueError(f"minutiae_range min {lo} > max {hi}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")
        for name in ("jitter_pos", "jitter_theta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {_shown(getattr(self, name))}")
        if self.field_size <= 0:
            raise ValueError("field_size must be positive")


_DROP_RETRIES = 100


def synth_dataset(seed: int, params: SynthParams = SynthParams()) -> list[MinutiaeTemplate]:
    """Reproducible synthetic dataset: one master template per finger, jittered samples.

    Each finger draws from its own child stream of the seed, so adding
    fingers never changes existing ones. Samples perturb master positions
    and angles by the jitter std-devs and drop minutiae with drop_rate; a
    sample that would lose every minutia is redrawn, and persistent total
    drop (e.g. drop_rate = 1) is an error.
    """
    lo, hi = params.minutiae_range
    dataset: list[MinutiaeTemplate] = []
    for f in range(params.fingers):
        rng = stream(seed, f)
        count = int(rng.integers(lo, hi + 1))
        master_xy = rng.random((count, 2)) * params.field_size
        master_theta = rng.random(count) * TWO_PI
        finger_id = f"f{f:04d}"
        for s in range(1, params.samples_per_finger + 1):
            for _ in range(_DROP_RETRIES):
                keep = rng.random(count) >= params.drop_rate
                if keep.any():
                    break
            else:
                raise ValueError(
                    f"{finger_id} sample {s}: every minutia dropped in "
                    f"{_DROP_RETRIES} draws; drop_rate {params.drop_rate} too high"
                )
            xy = master_xy + rng.standard_normal((count, 2)) * params.jitter_pos
            theta = master_theta + rng.standard_normal(count) * params.jitter_theta
            np.clip(xy, 0.0, params.field_size, out=xy)
            dataset.append(MinutiaeTemplate(finger_id, s, np.column_stack([xy, theta])[keep]))
    return dataset


def write_dataset(dataset, directory) -> list[Path]:
    """Write templates to <finger>_<sample>.txt files in the minutiae text format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for template in dataset:
        path = directory / f"{file_stem(template.key)}.txt"
        save_minutiae(template, path)
        paths.append(path)
    return paths
