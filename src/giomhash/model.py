"""Domain types for cancellable point-set hashing, plus their on-disk formats.

Four artifacts persist: minutiae templates (text), hash keys (JSON), hashed
templates (JSON), and evaluation reports (JSON, handled in evaluation.py next
to the report type).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class ParseError(ValueError):
    """A minutiae text file violates the expected format."""


class IntegrityError(ValueError):
    """A persisted artifact fails validation on load."""


class KeyMismatchWarning(UserWarning):
    """A loaded hashed template was produced under a different key."""


def _wrap_angle(theta: float) -> float:
    wrapped = float(theta) % TWO_PI
    # float modulo can round up to exactly 2*pi for tiny negative inputs
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


@dataclass(frozen=True)
class Minutia:
    """A single feature point: position in pixels, direction in radians.

    The direction is wrapped into [0, 2*pi) on construction.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _real(self.x, "x"))
        object.__setattr__(self, "y", _real(self.y, "y"))
        object.__setattr__(self, "theta", _wrap_angle(_real(self.theta, "theta")))


@dataclass(frozen=True)
class MinutiaeTemplate:
    """An ordered set of minutiae belonging to one sample of one finger."""

    finger_id: str
    sample_id: int
    points: tuple[Minutia, ...]

    def __post_init__(self) -> None:
        # finger ids name output files, so one must be a single plain file-name component
        if not isinstance(self.finger_id, str) or not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", self.finger_id):
            raise ValueError(f"finger id must match [A-Za-z0-9][A-Za-z0-9_.-]*, got {self.finger_id!r}")
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "sample_id", _integer(self.sample_id, "sample_id"))
        if len(self.points) < 1:
            raise ValueError("template must contain >= 1 minutia")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def key(self) -> tuple[str, int]:
        return (self.finger_id, self.sample_id)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return positions as an (N, 2) array and directions as an (N,) array."""
        xy = np.array([[p.x, p.y] for p in self.points], dtype=float)
        theta = np.array([p.theta for p in self.points], dtype=float)
        return xy, theta


def file_stem(key: tuple[str, int]) -> str:
    """The file-name stem <finger>_<sample, two digits> of a template's files, minutiae and hashed alike."""
    finger_id, sample_id = key
    return f"{finger_id}_{sample_id:02d}"


def _integer(value, name: str) -> int:
    """value as an int; a bool or a non-integer raises ValueError naming the field.

    int() would truncate 1.5 to 1, silently turning one setting into
    another; NumPy integers are Integral and are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a finite float; a bool, a non-real or a non-finite value raises ValueError naming the field.

    float() would read "70" and True as numbers and pass nan and inf on.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _is_frozen(arr: np.ndarray) -> bool:
    """Whether arr and every array it views are read-only, so nothing can write its data."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


@dataclass(frozen=True)
class HashKey:
    """Seed material for one revocable bank of Gaussian projection matrices.

    Two keys with equal (seed, m, q, d) derive identical banks; changing the
    seed revokes the old templates.
    """

    # the seed is the revocable secret, so repr leaves it out
    seed: int = field(repr=False)
    m: int
    q: int
    d: int

    def __post_init__(self) -> None:
        for name in ("seed", "m", "q", "d"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.q < 2:
            raise ValueError("q must be >= 2: argmax over fewer than two candidates is degenerate")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def fingerprint(self) -> str:
        """Short stable digest identifying this key in stored templates."""
        payload = f"{self.seed}:{self.m}:{self.q}:{self.d}".encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class GaussianBank:
    """m d x q matrices of standard-normal entries, the projection key; `matrix(i)` makes matrix i.

    The bank holds its shape and `matrix`, which is called on every read. A
    bank derived from a key (randomness.derive_bank) therefore draws each
    matrix afresh on every read and is never held whole; a bank built by
    `of` reads a read-only copy of a fixed stack.
    """

    m: int
    d: int
    q: int
    # a derived bank's matrix is bank_matrix bound to its key, seed included
    matrix: Callable[[int], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("m", "d", "q"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1 or self.d < 1 or self.q < 2:
            raise ValueError(f"degenerate bank shape {(self.m, self.d, self.q)}")

    @classmethod
    def of(cls, matrices) -> GaussianBank:
        """The bank of a fixed (m, d, q) stack of finite matrices, which it copies."""
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim != 3:
            raise ValueError(f"bank must have shape (m, d, q), got {mats.shape}")
        if not np.isfinite(mats).all():
            raise ValueError("bank entries must be finite")
        stack = _frozen_array(mats, float)
        return cls(*stack.shape, stack.__getitem__)

    @property
    def matrices(self) -> np.ndarray:
        """The read-only (m, d, q) stack; it draws all m matrices on every read."""
        return _frozen_array([self.matrix(i) for i in range(self.m)], float)


@dataclass(frozen=True, eq=False)
class HashedTemplate:
    """Protected template: one row of 1-based winning-column indices per point.

    Codes that are already int64 and frozen (read-only, viewing only
    read-only arrays) are kept as given, so templates can share one frozen
    code array; any other input is copied into a new read-only array.
    """

    codes: np.ndarray
    q: int
    key_fingerprint: str

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise ValueError(f"codes must be a non-empty 2-d array, got shape {codes.shape}")
        if not np.issubdtype(codes.dtype, np.integer):
            as_int = np.asarray(codes, dtype=np.int64)
            if not np.array_equal(as_int, codes):
                raise ValueError("codes must be integers")
            codes = as_int
        object.__setattr__(self, "q", _integer(self.q, "q"))
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if codes.min() < 1 or codes.max() > self.q:
            raise ValueError(f"code indices must lie in [1, {self.q}]")
        if codes.dtype != np.int64 or not _is_frozen(codes):
            codes = _frozen_array(codes, np.int64)
        object.__setattr__(self, "codes", codes)

    @property
    def n_points(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashedTemplate):
            return NotImplemented
        return (
            self.q == other.q
            and self.key_fingerprint == other.key_fingerprint
            and np.array_equal(self.codes, other.codes)
        )


# ---------------------------------------------------------------------------
# persistence

_HEADER_RE = re.compile(r"^#\s*finger=(\S+)\s+sample=(\d+)\s*$")


def save_minutiae(template: MinutiaeTemplate, path) -> None:
    """Write one template as a header line plus one x y theta triple per line."""
    path = Path(path)
    lines = [f"# finger={template.finger_id} sample={template.sample_id}"]
    for p in template.points:
        lines.append(f"{p.x!r} {p.y!r} {p.theta!r}")
    path.write_text("\n".join(lines) + "\n")


def _parse_minutiae_file(path: Path) -> MinutiaeTemplate:
    finger_id = None
    sample_id = None
    points = []
    wrapped = 0
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if finger_id is None:
            match = _HEADER_RE.match(line)
            if match is None:
                raise ParseError(
                    f"{path.name}:{lineno}: expected header '# finger=<id> sample=<int>', got {line!r}"
                )
            finger_id, sample_id = match.group(1), int(match.group(2))
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"{path.name}:{lineno}: expected 'x y theta', got {line!r}")
        try:
            x, y, theta = (float(f) for f in fields)
        except ValueError:
            raise ParseError(f"{path.name}:{lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, (x, y, theta))):
            raise ParseError(f"{path.name}:{lineno}: non-finite value in {line!r}")
        if not (0.0 <= theta < TWO_PI):
            wrapped += 1
        points.append(Minutia(x, y, theta))
    if finger_id is None:
        raise ParseError(f"{path.name}: missing header line")
    try:
        template = MinutiaeTemplate(finger_id, sample_id, tuple(points))
    except ValueError as exc:
        raise ParseError(f"{path.name}: {exc}") from None
    if wrapped:
        warnings.warn(
            f"{path.name}: wrapped {wrapped} direction(s) into [0, 2*pi)",
            stacklevel=3,
        )
    return template


def load_minutiae(path) -> list[MinutiaeTemplate]:
    """Load one template from a file, or all *.txt templates under a directory.

    Directory contents are read in sorted filename order so dataset ordering
    is stable across runs.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".txt")
        if not files:
            raise ParseError(f"no .txt templates under {path}")
        return [_parse_minutiae_file(f) for f in files]
    return [_parse_minutiae_file(path)]


def save_key(key: HashKey, path) -> None:
    payload = {"seed": key.seed, "m": key.m, "q": key.q, "d": key.d}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _check_int_fields(payload: dict, names, path: Path) -> None:
    """Raise IntegrityError naming path unless each named field present is a JSON int, not a bool."""
    for name in names:
        if name in payload and type(payload[name]) is not int:
            raise IntegrityError(f"{path.name}: {name} must be an integer, got {payload[name]!r}")


def load_key(path) -> HashKey:
    """Load a hash key; seed, m, q and d must all be JSON integers."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        fields = {k: payload[k] for k in ("seed", "m", "q", "d")}
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"{path.name}: invalid key file ({exc})") from None
    _check_int_fields(fields, fields, path)
    try:
        return HashKey(**fields)
    except ValueError as exc:
        raise IntegrityError(f"{path.name}: invalid key file ({exc})") from None


def save_hashed(template: HashedTemplate, path) -> None:
    payload = {
        "q": template.q,
        "m": template.m,
        "key_fingerprint": template.key_fingerprint,
        "codes": template.codes.tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_hashed(path, expected_key: HashKey | None = None) -> HashedTemplate:
    """Load a hashed template, validating types, index ranges and row lengths.

    q, m and every code must be JSON integers (true and false are not).
    Passing expected_key warns (KeyMismatchWarning) if the stored fingerprint
    does not match; comparing templates across keys is meaningless.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        codes = payload["codes"]
        q = payload["q"]
        fingerprint = payload["key_fingerprint"]
    except (KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path.name}: invalid hashed-template file ({exc})") from None
    _check_int_fields(payload, ("q", "m"), path)
    if not isinstance(codes, list) or not all(isinstance(row, list) for row in codes):
        raise IntegrityError(f"{path.name}: codes must be a list of rows")
    if not all(type(c) is int for row in codes for c in row):
        raise IntegrityError(f"{path.name}: codes must be integers")
    rows = {len(row) for row in codes}
    if len(rows) > 1:
        raise IntegrityError(f"{path.name}: ragged code rows {sorted(rows)}")
    try:
        template = HashedTemplate(np.asarray(codes, dtype=np.int64), q, str(fingerprint))
    except (ValueError, OverflowError) as exc:
        raise IntegrityError(f"{path.name}: {exc}") from None
    if "m" in payload and payload["m"] != template.m:
        raise IntegrityError(f"{path.name}: declared m={payload['m']} but rows have {template.m} entries")
    if expected_key is not None and template.key_fingerprint != expected_key.fingerprint():
        warnings.warn(
            f"{path.name}: stored under key {template.key_fingerprint}, "
            f"expected {expected_key.fingerprint()}",
            KeyMismatchWarning,
            stacklevel=2,
        )
    return template
