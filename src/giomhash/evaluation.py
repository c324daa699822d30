"""FVC-style accuracy evaluation: genuine/impostor protocols, EER, and sweeps.

Genuine comparisons pair every two samples of the same finger once (no
symmetric rematch); impostor comparisons pair the first sample of every
finger against the first sample of every other finger. EER comes from an
exact threshold sweep over the observed scores.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hashing import hash_rows
from .matching import LgsParams, pack_templates, packed_scores
from .mcc import MccParams, encode_cylinders
from .model import HashKey, HashedTemplate, IntegrityError, MinutiaeTemplate, _integer
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
    roc = [(float(t), float(a), float(r)) for t, a, r in zip(thresholds, fmr, fnmr)]
    return eer, roc


@dataclass(frozen=True)
class EvalReport:
    """Scores, ROC table, EER, and the full parameter record of one evaluation."""

    genuine_scores: tuple[float, ...]
    impostor_scores: tuple[float, ...]
    roc: tuple[tuple[float, float, float], ...]
    eer: float
    config: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "genuine_scores", tuple(float(s) for s in self.genuine_scores))
        object.__setattr__(self, "impostor_scores", tuple(float(s) for s in self.impostor_scores))
        object.__setattr__(self, "roc", tuple((float(t), float(a), float(r)) for t, a, r in self.roc))
        object.__setattr__(self, "eer", float(self.eer))
        if not 0.0 <= self.eer <= 1.0:
            raise ValueError(f"eer must lie in [0, 1], got {self.eer}")

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "eer": self.eer,
            "genuine_scores": list(self.genuine_scores),
            "impostor_scores": list(self.impostor_scores),
            "roc": [list(row) for row in self.roc],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    def write_roc_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["threshold", "fmr", "fnmr"])
            for threshold, fmr, fnmr in self.roc:
                writer.writerow([repr(threshold), repr(fmr), repr(fnmr)])


def load_report(path) -> EvalReport:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        report = EvalReport(
            genuine_scores=tuple(payload["genuine_scores"]),
            impostor_scores=tuple(payload["impostor_scores"]),
            roc=tuple(tuple(row) for row in payload["roc"]),
            eer=payload["eer"],
            config=payload["config"],
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path.name}: invalid report ({exc})") from None
    eer, roc = compute_eer(report.genuine_scores, report.impostor_scores)
    if eer != report.eer:
        raise IntegrityError(f"{path.name}: stored eer {report.eer} inconsistent with scores (expect {eer})")
    if tuple(roc) != report.roc:
        raise IntegrityError(f"{path.name}: stored roc table inconsistent with scores")
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
    """
    codes = hash_rows(encoded.rows, derive_bank(key))
    codes.flags.writeable = False
    fingerprint = key.fingerprint()
    return {k: HashedTemplate(codes[r], key.q, fingerprint) for k, r in encoded.ranges.items()}


def score_pairs(
    pairs,
    hashed: dict[TemplateKey, HashedTemplate],
    lgs: LgsParams,
    allow_cross_key: bool = False,
    hashed_b: dict[TemplateKey, HashedTemplate] | None = None,
) -> list[float]:
    """Match scores in pair order, each equal to lgs_match(...).

    hashed_b, when given, supplies the second template of each pair (used by
    the cross-key experiments); otherwise both come from `hashed`. All the
    templates must share one m and q, or pack_templates raises. They are
    packed once, so a template in many pairs is converted and copied once,
    and the pairs are read once and scored by index into the pack.
    """
    first = {k: i for i, k in enumerate(hashed)}
    second = first
    templates = list(hashed.values())
    if hashed_b is not None and hashed_b is not hashed:
        second = {k: i + len(templates) for i, k in enumerate(hashed_b)}
        templates += hashed_b.values()
    return packed_scores(pack_templates(templates), ((first[a], second[b]) for a, b in pairs), lgs, allow_cross_key)


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
    encoded: EncodedDataset | None = None,
) -> EvalReport:
    """Full protocol run: encode, hash under key, score all pairs, table the ROC.

    Rows from encode_dataset may be passed to skip re-encoding across runs on
    one dataset (the sweep does); rows encoded here are freed before scoring.
    """
    if key.d != mcc.dim:
        raise ValueError(f"key d={key.d} does not match cylinder dimension {mcc.dim}")
    gen = genuine_pairs(dataset)
    imp = impostor_pairs(dataset)
    if not imp:
        raise ValueError("protocol needs >= 2 fingers for impostor comparisons")
    hashed = hash_dataset(encode_dataset(dataset, mcc) if encoded is None else encoded, key)
    scores = score_pairs(gen + imp, hashed, lgs)
    genuine_scores, impostor_scores = scores[: len(gen)], scores[len(gen) :]
    eer, roc = compute_eer(genuine_scores, impostor_scores)
    return EvalReport(
        genuine_scores=tuple(genuine_scores),
        impostor_scores=tuple(impostor_scores),
        roc=tuple(roc),
        eer=eer,
        config=evaluation_config(key, mcc, lgs),
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-trial EERs and per-(m, q) means from a parameter sweep."""

    records: tuple[tuple[int, int, int, int, float], ...]  # (m, q, trial, seed, eer)
    means: tuple[tuple[int, int, float], ...]  # (m, q, mean eer)


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

    Trial seeds derive from (base_seed, m, q, trial), so every grid cell is
    reproducible in isolation.
    """
    # checked before child_seed sees them, so the error names the grid field
    m_list = [_integer(m, "m") for m in m_list]
    q_list = [_integer(q, "q") for q in q_list]
    if not m_list or not q_list:
        raise ValueError("m_list and q_list must be non-empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    encoded = encode_dataset(dataset, mcc)
    records = []
    means = []
    for m in m_list:
        for q in q_list:
            eers = []
            for trial in range(trials):
                seed = child_seed(base_seed, m, q, trial)
                key = HashKey(seed=seed, m=m, q=q, d=mcc.dim)
                report = run_evaluation(dataset, key, mcc, lgs, encoded=encoded)
                records.append((m, q, trial, seed, report.eer))
                eers.append(report.eer)
            means.append((m, q, float(np.mean(eers))))
    return SweepResult(records=tuple(records), means=tuple(means))


def write_sweep_csv(result: SweepResult, trials_path, means_path) -> None:
    with open(trials_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "q", "trial", "seed", "eer"])
        for m, q, trial, seed, eer in result.records:
            writer.writerow([m, q, trial, seed, repr(eer)])
    with open(means_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "q", "mean_eer"])
        for m, q, mean_eer in result.means:
            writer.writerow([m, q, repr(mean_eer)])
