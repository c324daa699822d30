"""Domain types for cancellable point-set hashing, plus their on-disk formats.

Four artifacts persist: minutiae templates (text), hash keys (JSON), hashed
templates (JSON), and evaluation reports (JSON, handled in evaluation.py next
to the report type).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import re
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class ParseError(ValueError):
    """A minutiae text file violates the expected format."""


class IntegrityError(ValueError):
    """A persisted artifact fails validation on load."""


class Minutia(NamedTuple):
    """A feature point record: position in pixels, direction in radians; `MinutiaeTemplate` checks it."""

    x: float
    y: float
    theta: float


@dataclass(frozen=True, eq=False)
class MinutiaeTemplate:
    """One sample of one finger: a read-only (n, 3) float64 array of finite x, y, theta rows.

    points is an integer or float array, or an iterable of real (x, y, theta) triples such as
    `Minutia` records. The template keeps its own copy, with every theta wrapped into [0, 2*pi).
    """

    finger_id: str
    sample_id: int
    points: np.ndarray

    def __post_init__(self) -> None:
        # finger ids name output files, so one must be a single plain file-name component
        if not isinstance(self.finger_id, str) or not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", self.finger_id):
            raise ValueError(f"finger id must match [A-Za-z0-9][A-Za-z0-9_.-]*, got {self.finger_id!r}")
        object.__setattr__(self, "sample_id", _integer(self.sample_id, "sample_id"))
        # sample ids name output files and are read back as sample=<digits>
        if self.sample_id < 0:
            raise ValueError(f"sample_id must be >= 0, got {self.sample_id}")
        points = self.points
        if not isinstance(points, np.ndarray):
            points = [tuple(row) for row in points]
            for row in points:
                for name, value in zip(Minutia._fields, row):
                    _real(value, name)
        elif points.dtype.kind not in "iuf":
            raise ValueError(f"points must be an integer or float array, got dtype {points.dtype}")
        points = np.array(points, dtype=float)
        if points.size == 0:
            raise ValueError("template must contain >= 1 minutia")
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        theta = np.mod(points[:, 2], TWO_PI, out=points[:, 2])
        # float modulo can round up to exactly 2*pi for tiny negative inputs
        theta[theta >= TWO_PI] = 0.0
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def key(self) -> tuple[str, int]:
        return (self.finger_id, self.sample_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MinutiaeTemplate):
            return NotImplemented
        return self.key == other.key and np.array_equal(self.points, other.points)


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
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a finite float; a bool, a non-real or a non-finite value raises ValueError naming the field.

    float() would read "70" and True as numbers and pass nan and inf on; an int
    too large for a float raises OverflowError in float(), reported here as ValueError.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"{name} must be a finite real number, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value) for a rejection message, or its type where CPython refuses the repr (an int over 4,300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


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


_SEED_LIMIT = 10**4300


@dataclass(frozen=True, kw_only=True)
class HashKey:
    """Seed material for one revocable bank of Gaussian projection matrices.

    Two keys with equal (seed, m, q, d) derive identical banks; changing the
    seed revokes the old templates. m and q default to the paper's 700 and 100;
    fields are keyword-only, so no positional call can mistake one for another.
    """

    # the seed is the revocable secret, so repr leaves it out
    seed: int = field(repr=False)
    m: int = 700
    q: int = 100
    d: int

    def __post_init__(self) -> None:
        for name in ("seed", "m", "q", "d"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # the fingerprint spells the seed in decimal, which CPython refuses beyond 4,300 digits
        if self.seed >= _SEED_LIMIT:
            raise ValueError("seed must have at most 4300 decimal digits")
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
            raise ValueError(f"degenerate bank shape ({', '.join(_shown(n) for n in (self.m, self.d, self.q))})")

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


def code_dtype(q: int) -> np.dtype:
    """The one type of every code array under index range q, np.min_scalar_type(q); q < 2 or q >= 2^64 raises ValueError."""
    if q < 2:
        raise ValueError("q must be >= 2")
    dtype = np.min_scalar_type(q)
    if dtype.kind != "u":
        raise ValueError(f"q must be below 2^64, got {_shown(q)}")
    return dtype


@dataclass(frozen=True, eq=False)
class HashedTemplate:
    """Protected template: one row of 1-based winning-column indices per point.

    Codes, an integer array or a list of rows of Python ints, are held in
    code_dtype(q). A list is converted once, straight into it; frozen arrays of
    that type (read-only, viewing only read-only arrays) are kept, so templates
    can share one frozen code array; other arrays are copied once.
    """

    codes: np.ndarray
    q: int
    key_fingerprint: str

    def __post_init__(self) -> None:
        # == and the scorers compare fingerprints as given, so 123 and "123" would be different keys
        if not isinstance(self.key_fingerprint, str):
            raise ValueError(f"key_fingerprint must be a str, got {self.key_fingerprint!r}")
        object.__setattr__(self, "q", _integer(self.q, "q"))
        dtype = code_dtype(self.q)
        codes = self.codes
        if not isinstance(codes, np.ndarray):
            # each code is checked by its concrete type, so neither True nor a NumPy integer scalar passes
            if not isinstance(codes, Sequence) or not all(isinstance(row, Sequence) for row in codes):
                raise ValueError("codes must be a list of rows")
            if not all(set(map(type, row)) <= {int} for row in codes):
                raise ValueError("codes must be integers")
            lengths = {len(row) for row in codes}
            if len(lengths) > 1:
                raise ValueError(f"ragged code rows {sorted(lengths)}")
            # the distinct values are range-checked as Python ints, so the conversion is exact on every NumPy
            values = set().union(*codes)
            if values and (min(values) < 1 or max(values) > self.q):
                raise ValueError(f"code indices must lie in [1, {self.q}]")
            codes = _frozen_array(codes, dtype)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise ValueError(f"codes must be a non-empty 2-d array, got shape {codes.shape}")
        # bool is not an integer type here, or True would pass as code 1
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("codes must be integers")
        if codes.min() < 1 or codes.max() > self.q:
            raise ValueError(f"code indices must lie in [1, {self.q}]")
        if codes.dtype != dtype or not _is_frozen(codes):
            codes = _frozen_array(codes, dtype)
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


def _one_point(codes, q: int) -> HashedTemplate:
    """The template of one point's codes: a 1-d array or a flat list is its one row, anything else is its rows."""
    if isinstance(codes, np.ndarray):
        codes = np.atleast_2d(codes)
    elif not (isinstance(codes, Sequence) and codes and isinstance(codes[0], Sequence)):
        codes = [codes]
    return HashedTemplate(codes, q, "")


# ---------------------------------------------------------------------------
# persistence


@contextlib.contextmanager
def stored_file(path: Path, what: str = "", error: type[ValueError] = IntegrityError):
    """Raise a defect of the file at path, met in the block, as `error` naming the file.

    A KeyError, TypeError, ValueError, OverflowError or RecursionError (JSON nested too deep) becomes
    error("<name>: <what> (<exc>)"), or error("<name>: <exc>") without what; an IntegrityError or
    ParseError already names the file and passes unchanged.
    """
    try:
        yield
    except (IntegrityError, ParseError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise error(f"{path.name}: {what} ({exc})" if what else f"{path.name}: {exc}") from None


_HEADER_RE = re.compile(r"^#\s*finger=(\S+)\s+sample=(\d+)\s*$")


def save_minutiae(template: MinutiaeTemplate, path) -> None:
    """Write one template as a header line plus one x y theta triple per line."""
    path = Path(path)
    lines = [f"# finger={template.finger_id} sample={template.sample_id}"]
    lines += [f"{x!r} {y!r} {theta!r}" for x, y, theta in template.points.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _parse_minutiae_file(path: Path) -> MinutiaeTemplate:
    finger_id = sample_id = None
    points = []
    with stored_file(path, error=ParseError):
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if finger_id is None:
                match = _HEADER_RE.match(line)
                if match is None:
                    raise ParseError(f"{path.name}:{lineno}: expected header '# finger=<id> sample=<int>', got {line!r}")
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
            points.append((x, y, theta))
        if finger_id is None:
            raise ParseError(f"{path.name}: missing header line")
        points = np.array(points, dtype=float).reshape(-1, 3)
        template = MinutiaeTemplate(finger_id, sample_id, points)
    wrapped = np.count_nonzero((points[:, 2] < 0.0) | (points[:, 2] >= TWO_PI))
    if wrapped:
        warnings.warn(f"{path.name}: wrapped {wrapped} direction(s) into [0, 2*pi)", stacklevel=3)
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


def load_key(path) -> HashKey:
    """Load a hash key; HashKey checks its seed, m, q and d."""
    path = Path(path)
    with stored_file(path, "invalid key file"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        return HashKey(**{k: payload[k] for k in ("seed", "m", "q", "d")})


def save_hashed(template: HashedTemplate, path) -> None:
    payload = {
        "q": template.q,
        "m": template.m,
        "key_fingerprint": template.key_fingerprint,
        "codes": template.codes.tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_hashed(path) -> HashedTemplate:
    """Load a hashed template; HashedTemplate checks q, the codes and key_fingerprint, and m may be omitted."""
    path = Path(path)
    with stored_file(path, "invalid hashed-template file"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        template = HashedTemplate(payload["codes"], payload["q"], payload["key_fingerprint"])
        if "m" in payload and _integer(payload["m"], "m") != template.m:
            raise IntegrityError(f"{path.name}: declared m={payload['m']} but rows have {template.m} entries")
        return template
