"""FVC-style accuracy evaluation: genuine/impostor protocols, EER, and sweeps.

Genuine comparisons pair every two samples of the same finger once (no
symmetric rematch); impostor comparisons pair the first sample of every
finger against the first sample of every other finger. EER comes from an
exact threshold sweep over the observed scores.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hashing import hash_rows
from .matching import LgsParams, check_one_key, pack_templates, packed_scores
from .mcc import MccParams, encode_cylinders
from .model import HashKey, HashedTemplate, IntegrityError, MinutiaeTemplate, _integer, _real, stored_file
from .randomness import child_seed, derive_bank

TemplateKey = tuple[str, int]
Pair = tuple[TemplateKey, TemplateKey]


def _by_finger(dataset) -> dict[str, list[MinutiaeTemplate]]:
    fingers: dict[str, list[MinutiaeTemplate]] = {}
    for template in dataset:
        fingers.setdefault(template.finger_id, []).append(template)
    for templates in fingers.values():
        templates.sort(key=lambda t: t.sample_id)
        seen = [t.sample_id for t in templates]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate sample ids for finger {templates[0].finger_id}: {seen}")
    return dict(sorted(fingers.items()))


def genuine_pairs(dataset) -> list[Pair]:
    """All unordered same-finger sample pairs; F fingers x S samples give F*S*(S-1)/2."""
    fingers = _by_finger(dataset)
    pairs: list[Pair] = []
    for finger_id, templates in fingers.items():
        if len(templates) < 2:
            raise ValueError(f"finger {finger_id} has {len(templates)} sample(s); need >= 2")
        for i in range(len(templates)):
            for j in range(i + 1, len(templates)):
                pairs.append((templates[i].key, templates[j].key))
    return pairs


def first_samples(dataset) -> list[TemplateKey]:
    """Each finger's lowest-numbered sample, in finger order."""
    return [templates[0].key for templates in _by_finger(dataset).values()]


def impostor_pairs(dataset) -> list[Pair]:
    """First samples of distinct fingers, unordered; F fingers give F*(F-1)/2 pairs."""
    firsts = first_samples(dataset)
    return [
        (firsts[i], firsts[j])
        for i in range(len(firsts))
        for j in range(i + 1, len(firsts))
    ]


def protocol_pairs(dataset) -> tuple[list[Pair], list[Pair]]:
    """The protocol's (genuine, impostor) pairs; every experiment builds them before it encodes.

    Raises ValueError for a finger below two samples, then for fewer than
    two fingers, so a dataset the protocol cannot score fails at once.
    """
    genuine = genuine_pairs(dataset)
    impostor = impostor_pairs(dataset)
    if not impostor:
        raise ValueError("protocol needs >= 2 fingers for impostor comparisons")
    return genuine, impostor


def json_text(payload) -> str:
    """The JSON text of every report file: json.dumps(payload, indent=2, sort_keys=True) and a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_csv(path, header, rows) -> None:
    """Write a header and rows with csv's default dialect (\\r\\n line ends).

    csv spells a float with str(), which for a Python float is its repr.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def compute_eer(genuine, impostor) -> tuple[float, list[tuple[float, float, float]]]:
    """EER and the (threshold, fmr, fnmr) table over all observed score values.

    FMR(t) is the impostor fraction >= t, FNMR(t) the genuine fraction < t.
    The EER is the midpoint of the two rates at the first threshold
    minimizing |FMR - FNMR|.
    """
    genuine = np.asarray(list(genuine), dtype=float)
    impostor = np.asarray(list(impostor), dtype=float)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("both score sets must be non-empty")
    gen_sorted = np.sort(genuine)
    imp_sorted = np.sort(impostor)
    thresholds = np.unique(np.concatenate([gen_sorted, imp_sorted]))
    fmr = (imp_sorted.size - np.searchsorted(imp_sorted, thresholds, side="left")) / imp_sorted.size
    fnmr = np.searchsorted(gen_sorted, thresholds, side="left") / gen_sorted.size
    best = int(np.argmin(np.abs(fmr - fnmr)))
    eer = float((fmr[best] + fnmr[best]) / 2.0)
    roc = list(zip(thresholds.tolist(), fmr.tolist(), fnmr.tolist()))
    return eer, roc


@dataclass(frozen=True)
class EvalReport:
    """Scores and the full parameter record of one evaluation; its EER and ROC table come from compute_eer."""

    genuine_scores: tuple[float, ...]
    impostor_scores: tuple[float, ...]
    config: dict

    def __post_init__(self) -> None:
        for name in ("genuine_scores", "impostor_scores"):
            scores = tuple(getattr(self, name))
            # built-in floats take one finite test over all of them; any other score goes through _real's rule
            if not (set(map(type, scores)) <= {float} and np.isfinite(np.fromiter(scores, float, len(scores))).all()):
                scores = tuple(_real(s, name) for s in scores)
            object.__setattr__(self, name, scores)
        eer, roc = compute_eer(self.genuine_scores, self.impostor_scores)
        object.__setattr__(self, "eer", eer)
        object.__setattr__(self, "roc", tuple(roc))

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "eer": self.eer,
            "genuine_scores": self.genuine_scores,
            "impostor_scores": self.impostor_scores,
        }
        return json_text(payload)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    def write_roc_csv(self, path) -> None:
        write_csv(path, ["threshold", "fmr", "fnmr"], self.roc)


def load_report(path) -> EvalReport:
    """The report stored at path; raises IntegrityError unless its stored EER equals that of its scores.

    Its ROC table comes from the scores: an older report's "roc" member is not read.
    """
    path = Path(path)
    with stored_file(path, "invalid report"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        report = EvalReport(payload["genuine_scores"], payload["impostor_scores"], payload["config"])
        eer = _real(payload["eer"], "eer")
        if eer != report.eer:
            raise IntegrityError(f"{path.name}: stored eer {eer} inconsistent with scores (expect {report.eer})")
        return report


class EncodedDataset(NamedTuple):
    """One frozen (N, d) array of cylinder rows in dataset order, and each template key's row range."""

    rows: np.ndarray
    ranges: dict[TemplateKey, slice]


def encode_dataset(dataset, mcc: MccParams) -> EncodedDataset:
    """Each template's cylinders, one per minutia, written into its range of one row array.

    Duplicate keys raise ValueError.
    """
    dataset = list(dataset)
    # a second template under one key would silently replace the first
    _by_finger(dataset)
    starts = list(accumulate(map(len, dataset), initial=0))
    ranges = {t.key: slice(lo, hi) for t, lo, hi in zip(dataset, starts, starts[1:])}
    rows = np.empty((starts[-1], mcc.dim))
    for t in dataset:
        rows[ranges[t.key]] = encode_cylinders(t, mcc)
    rows.flags.writeable = False
    return EncodedDataset(rows, ranges)


def hash_dataset(encoded: EncodedDataset, key: HashKey) -> dict[TemplateKey, HashedTemplate]:
    """Hash every template under one key in one hash_rows call over all rows.

    Each template's codes are a read-only view, with its rows' range, of one frozen (N, m) array.
    Raises ValueError unless key.d is the rows' dimension.
    """
    if key.d != encoded.rows.shape[1]:
        raise ValueError(f"key d={key.d} does not match cylinder dimension {encoded.rows.shape[1]}")
    codes = hash_rows(encoded.rows, derive_bank(key))
    codes.flags.writeable = False
    fingerprint = key.fingerprint()
    return {k: HashedTemplate(codes[r], key.q, fingerprint) for k, r in encoded.ranges.items()}


def score_pairs(
    pairs,
    hashed: dict[TemplateKey, HashedTemplate],
    lgs: LgsParams,
    hashed_b: dict[TemplateKey, HashedTemplate] | None = None,
) -> list[float]:
    """Match scores in pair order, each equal to lgs_match(...).

    Without hashed_b both templates of a pair come from `hashed`, which must
    hold one key; with hashed_b each pair crosses from `hashed` to hashed_b
    and keys are not compared. All templates must share one m and q. A set
    that breaks a rule raises lgs_match's error when packed, even if no pair
    uses the offending template. Templates are packed once, pairs read once.
    """
    first = {k: i for i, k in enumerate(hashed)}
    templates = list(hashed.values())
    if hashed_b is None:
        packed = pack_templates(templates)
        check_one_key(templates)
        second = first
    else:
        second = {k: i + len(templates) for i, k in enumerate(hashed_b)}
        packed = pack_templates(templates + list(hashed_b.values()))
    return packed_scores(packed, ((first[a], second[b]) for a, b in pairs), lgs)


def protocol_scores(protocol, hashed, lgs: LgsParams, hashed_b=None) -> tuple[list[float], list[float]]:
    """(genuine, impostor) scores of protocol_pairs' pairs, scored in one score_pairs call.

    With hashed_b each pair's second template comes from it, so pairs cross
    keys (the unlinkability experiment); otherwise both come from `hashed`.
    """
    genuine, impostor = protocol
    scores = score_pairs(genuine + impostor, hashed, lgs, hashed_b)
    return scores[: len(genuine)], scores[len(genuine) :]


def evaluation_config(key: HashKey, mcc: MccParams, lgs: LgsParams) -> dict:
    return {
        "seed": key.seed,
        "m": key.m,
        "q": key.q,
        "d": key.d,
        "mcc": asdict(mcc),
        "lgs": asdict(lgs),
    }


def run_evaluation(
    dataset,
    key: HashKey,
    mcc: MccParams = MccParams(),
    lgs: LgsParams = LgsParams(),
) -> EvalReport:
    """Full protocol run: encode, hash under key, score all pairs, table the ROC.

    The rows are freed before scoring.
    """
    protocol = protocol_pairs(dataset)
    hashed = hash_dataset(encode_dataset(dataset, mcc), key)
    genuine_scores, impostor_scores = protocol_scores(protocol, hashed, lgs)
    return EvalReport(genuine_scores, impostor_scores, evaluation_config(key, mcc, lgs))


@dataclass(frozen=True)
class SweepResult:
    """Per-trial EERs and per-(m, q) means from a parameter sweep."""

    records: tuple[tuple[int, int, int, int, float], ...]  # (m, q, trial, seed, eer)
    means: tuple[tuple[int, int, float], ...]  # (m, q, mean eer)


def sweep_grid(m_list, q_list, trials: int, base_seed: int, d: int) -> list[tuple[int, int, list[HashKey]]]:
    """Each (m, q) cell of a sweep grid, m-major, with the keys of its `trials` trials.

    Trial seeds derive from (base_seed, m, q, trial), so every cell is
    reproducible in isolation. Raises ValueError for an empty grid, a
    non-integer or repeated m or q, trials below 1, a negative base_seed, or
    a cell whose key HashKey rejects.
    """
    # checked first, so the repeat rule compares plain ints (True is not taken for 1)
    m_list = [_integer(m, "m") for m in m_list]
    q_list = [_integer(q, "q") for q in q_list]
    if not m_list or not q_list:
        raise ValueError("m_list and q_list must be non-empty")
    # a repeated value would hash and score one cell twice under the same seeds
    for name, values in (("m_list", m_list), ("q_list", q_list)):
        for value, count in Counter(values).items():
            if count > 1:
                raise ValueError(f"{name} repeats {value}; each grid value must appear once")
    if _integer(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    # HashKey checks the base seed and each cell's m, q and d before child_seed sees them
    cells = [HashKey(seed=base_seed, m=m, q=q, d=d) for m in m_list for q in q_list]
    return [
        (cell.m, cell.q, [replace(cell, seed=child_seed(base_seed, cell.m, cell.q, trial)) for trial in range(trials)])
        for cell in cells
    ]


def sweep(
    dataset,
    m_list,
    q_list,
    trials: int,
    base_seed: int,
    mcc: MccParams = MccParams(),
    lgs: LgsParams = LgsParams(),
) -> SweepResult:
    """Mean EER per (m, q) over `trials` evaluations with fresh derived seeds.

    sweep_grid checks the grid and makes every cell's keys, and the protocol
    is checked, before the dataset is encoded once for the whole grid.
    """
    cells = sweep_grid(m_list, q_list, trials, base_seed, mcc.dim)
    protocol = protocol_pairs(dataset)
    encoded = encode_dataset(dataset, mcc)
    records = []
    means = []
    for m, q, keys in cells:
        eers = []
        for trial, key in enumerate(keys):
            eer = compute_eer(*protocol_scores(protocol, hash_dataset(encoded, key), lgs))[0]
            records.append((m, q, trial, key.seed, eer))
            eers.append(eer)
        means.append((m, q, float(np.mean(eers))))
    return SweepResult(records=tuple(records), means=tuple(means))


def write_sweep_csv(result: SweepResult, trials_path, means_path) -> None:
    write_csv(trials_path, ["m", "q", "trial", "seed", "eer"], result.records)
    write_csv(means_path, ["m", "q", "mean_eer"], result.means)
