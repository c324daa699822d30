"""The benchmark workloads: inputs, child-process plans, references and checks.

All workloads use the compact encoder (radius 100, ns 6, nd 4, so d=144) and
datasets shaped like the README's `giom gen-data` example (300-pixel field,
15-22 minutiae, 4 px / 0.08 rad jitter, 10% drop). Minutiae counts cycle
through 15..22 by finger index and every sample drops the same number of
points, so a workload's input sizes are fixed and only the content follows
the seed. Key seeds derive from the workload seed too.

A workload's pass is one child process: set up, run the operations, exit.
`Workload.check` compares each operation's parsed output with the
reference digests, so a changed code, score or EER fails the operation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

RADIUS, NS, ND = 100.0, 6, 4
D = NS * NS * ND
MCC_ARGS = ["--radius", "100", "--ns", "6", "--nd", "4"]


# ---------------------------------------------------------------------------
# inputs


def _wrap(theta: float) -> float:
    wrapped = theta % reference.TWO_PI
    return 0.0 if wrapped >= reference.TWO_PI else wrapped


def write_dataset(directory: Path, seed: int, fingers: int, samples: int) -> dict:
    """Write <finger>_<sample>.txt minutiae files; return their cylinders by key."""
    directory.mkdir(parents=True, exist_ok=True)
    field, jitter_pos, jitter_theta, drop_rate = 300.0, 4.0, 0.08, 0.1
    cylinders = {}
    for f in range(fingers):
        rng = np.random.default_rng(np.random.SeedSequence([seed, f]))
        count = 15 + f % 8
        n_drop = round(drop_rate * count)
        master_xy = rng.random((count, 2)) * field
        master_theta = rng.random(count) * reference.TWO_PI
        finger_id = f"f{f:04d}"
        for s in range(1, samples + 1):
            keep = np.ones(count, dtype=bool)
            keep[rng.choice(count, size=n_drop, replace=False)] = False
            xy = np.clip(master_xy + rng.standard_normal((count, 2)) * jitter_pos, 0.0, field)[keep]
            theta = np.array([_wrap(t) for t in master_theta + rng.standard_normal(count) * jitter_theta])[keep]
            lines = [f"# finger={finger_id} sample={s}"]
            lines += [f"{float(x)!r} {float(y)!r} {float(t)!r}" for (x, y), t in zip(xy, theta)]
            (directory / f"{_stem((finger_id, s))}.txt").write_text("\n".join(lines) + "\n")
            cylinders[(finger_id, s)] = reference.encode(xy, theta, RADIUS, NS, ND)
    return dict(sorted(cylinders.items()))


def _stem(key: tuple[str, int]) -> str:
    return f"{key[0]}_{key[1]:02d}"


# ---------------------------------------------------------------------------
# output parsing


def _report_scores(out: Path) -> dict:
    payload = json.loads((out / "report.json").read_text())
    return {
        "genuine_scores": [float(s) for s in payload["genuine_scores"]],
        "impostor_scores": [float(s) for s in payload["impostor_scores"]],
        "eer": float(payload["eer"]),
    }


def _sweep_records(out: Path) -> list:
    with open(out / "sweep_trials.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [(int(r["m"]), int(r["q"]), int(r["trial"]), int(r["seed"]), float(r["eer"])) for r in rows]


def _revoke_scores(out: Path) -> dict:
    payload = json.loads((out / "revoke.json").read_text())
    return {k: [float(s) for s in payload[k]] for k in ("mated_genuine", "genuine", "impostor")}


def _hashed_codes(path: Path) -> dict:
    payload = json.loads(path.read_text())
    return {
        "codes": np.asarray(payload["codes"], dtype=np.int64),
        "q": int(payload["q"]),
        "key_fingerprint": str(payload["key_fingerprint"]),
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """One workload: `prepare` writes inputs and the reference, `plan` a pass.

    `predictions` pairs an operation-id prefix (None for every operation)
    with the span names predicted to dominate those operations.
    """

    name: str
    why: str
    predictions: tuple[tuple[str | None, tuple[str, ...]], ...]

    def prepare(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def plan(self, pass_dir: Path) -> dict:
        """Child spec for one pass: {"capture_codes": bool, "ops": [{"id", "argv", ...}, ...]}."""
        raise NotImplementedError

    def check(self, op: dict, pass_dir: Path) -> str | None:
        """None when the op's output matches the reference, else the reason."""
        raise NotImplementedError

    def work(self) -> str:
        raise NotImplementedError


class Evaluate(Workload):
    """`giom evaluate` over a generated dataset."""

    def __init__(self, name, why, predicted, fingers, samples, m, q, threads):
        super().__init__(name, why, ((None, predicted),))
        self.fingers, self.samples, self.m, self.q, self.threads = fingers, samples, m, q, threads

    def prepare(self, root: Path, seed: int) -> None:
        self.data = root / "data"
        self.key_seed = seed + 1
        cylinders = write_dataset(self.data, seed, self.fingers, self.samples)
        ref = reference.evaluate(cylinders, self.key_seed, self.m, self.q)
        self.codes_digest = reference.codes_digest(ref["codes"])
        self.scores_digest = reference.digest({k: ref[k] for k in ("genuine_scores", "impostor_scores", "eer")})
        self.n_genuine, self.n_impostor = len(ref["genuine_scores"]), len(ref["impostor_scores"])
        self.n_rows = sum(c.shape[0] for c in cylinders.values())

    def plan(self, pass_dir: Path) -> dict:
        argv = ["evaluate", "--data", str(self.data), "--seed", str(self.key_seed),
                "--m", str(self.m), "--q", str(self.q), "--threads", str(self.threads),
                "--out", str(pass_dir / "out"), *MCC_ARGS]
        return {"capture_codes": True, "ops": [{"id": "evaluate", "argv": argv}]}

    def check(self, op: dict, pass_dir: Path) -> str | None:
        got = reference.digest(_report_scores(pass_dir / "out"))
        if got != self.scores_digest:
            return f"scores/EER digest {got} != reference {self.scores_digest}"
        codes = op.get("codes_digest")
        if codes is None:
            return "codes not captured (evaluation.hash_dataset is missing or its result changed shape)"
        if codes != self.codes_digest:
            return f"codes digest {codes} != reference {self.codes_digest}"
        return None

    def work(self) -> str:
        return (f"{self.n_genuine + self.n_impostor} comparisons ({self.n_genuine} genuine, "
                f"{self.n_impostor} impostor) over {self.fingers * self.samples} templates, "
                f"{self.n_rows} rows, m={self.m} q={self.q}, --threads {self.threads}")


class KeyChurn(Workload):
    """`giom sweep` over an (m, q) grid, `giom analyze --mode revoke`, then
    `giom hash` of every template and `giom match` on stored pairs."""

    fingers, samples = 8, 4
    m_list, q_list, trials = (5, 50, 700), (50, 100), 2
    n_keys, revoke_m, revoke_q = 50, 32, 12
    hash_m, hash_q, n_matches = 700, 100, 16

    def __init__(self, name, why):
        super().__init__(name, why, ((None, ("randomness.derive_bank",)), ("match", ("model.load_hashed",))))

    def prepare(self, root: Path, seed: int) -> None:
        self.data = root / "data"
        self.sweep_seed = seed + 1
        self.base_seed = seed + 2
        self.hash_seed = seed + 3
        cylinders = write_dataset(self.data, seed, self.fingers, self.samples)
        records = reference.sweep_records(cylinders, self.m_list, self.q_list, self.trials, self.sweep_seed)
        self.sweep_digest = reference.digest(records)
        revoke = reference.revoke_scores(cylinders, self.base_seed, self.n_keys, 0, self.revoke_m, self.revoke_q)
        self.revoke_digest = reference.digest(revoke)

        flat = reference.bank_flat(self.hash_seed, self.hash_m, self.hash_q, D)
        codes = {k: reference.hash_rows(rows, flat, self.hash_m, self.hash_q) for k, rows in cylinders.items()}
        del flat
        fingerprint = reference.key_fingerprint(self.hash_seed, self.hash_m, self.hash_q, D)
        self.code_digests = {
            k: reference.digest({"codes": c, "q": self.hash_q, "key_fingerprint": fingerprint})
            for k, c in codes.items()
        }
        # half genuine, half impostor pairs, in a seeded order
        rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
        fingers = sorted({k[0] for k in codes})
        self.pairs = []
        for i in range(self.n_matches):
            if i % 2 == 0:
                finger = fingers[rng.integers(len(fingers))]
                s_a, s_b = rng.choice(self.samples, size=2, replace=False) + 1
                self.pairs.append(((finger, int(s_a)), (finger, int(s_b))))
            else:
                f_a, f_b = rng.choice(len(fingers), size=2, replace=False)
                s_a, s_b = rng.integers(1, self.samples + 1, size=2)
                self.pairs.append(((fingers[f_a], int(s_a)), (fingers[f_b], int(s_b))))
        scorer = reference.Scorer(codes, self.hash_q)
        self.scores = [scorer.score(a, b) for a, b in self.pairs]

    def plan(self, pass_dir: Path) -> dict:
        sweep = ["sweep", "--data", str(self.data), "--seed", str(self.sweep_seed),
                 "--m", ",".join(map(str, self.m_list)), "--q", ",".join(map(str, self.q_list)),
                 "--trials", str(self.trials), "--out", str(pass_dir / "sweep"), *MCC_ARGS]
        revoke = ["analyze", "--mode", "revoke", "--data", str(self.data), "--base-seed", str(self.base_seed),
                  "--n-keys", str(self.n_keys), "--m", str(self.revoke_m), "--q", str(self.revoke_q),
                  "--out", str(pass_dir / "revoke"), *MCC_ARGS]
        hashed = pass_dir / "hashed"
        hash_ = ["hash", "--data", str(self.data), "--seed", str(self.hash_seed), "--m", str(self.hash_m),
                 "--q", str(self.hash_q), "--out", str(hashed), *MCC_ARGS]
        matches = [
            {"id": f"match:{i}", "index": i,
             "argv": ["match", "--a", str(hashed / f"{_stem(a)}.json"), "--b", str(hashed / f"{_stem(b)}.json"),
                      "--detail", str(pass_dir / f"match{i}.json")]}
            for i, (a, b) in enumerate(self.pairs)
        ]
        return {"capture_codes": False,
                "ops": [{"id": "sweep", "argv": sweep}, {"id": "revoke", "argv": revoke},
                        {"id": "hash", "argv": hash_}, *matches]}

    def check(self, op: dict, pass_dir: Path) -> str | None:
        if op["id"] == "hash":
            for k, want in self.code_digests.items():
                path = pass_dir / "hashed" / f"{_stem(k)}.json"
                got = reference.digest(_hashed_codes(path))
                if got != want:
                    return f"{path.name} codes digest {got} != reference {want}"
            return None
        if op["id"].startswith("match:"):
            got = float(json.loads((pass_dir / f"match{op['index']}.json").read_text())["score"])
            want = self.scores[op["index"]]
            return None if got == want else f"score {got!r} != reference {want!r}"
        if op["id"] == "sweep":
            got, want = reference.digest(_sweep_records(pass_dir / "sweep")), self.sweep_digest
        else:
            got, want = reference.digest(_revoke_scores(pass_dir / "revoke")), self.revoke_digest
        return None if got == want else f"{op['id']} digest {got} != reference {want}"

    def work(self) -> str:
        cells = len(self.m_list) * len(self.q_list)
        banks = cells * self.trials + 1 + self.fingers * self.n_keys + 1
        n_genuine = sum(a[0] == b[0] for a, b in self.pairs)
        return (f"{banks} banks derived: sweep of {cells} (m, q) cells x {self.trials} trials, revoke "
                f"with {self.n_keys} keys x {self.fingers} fingers at m={self.revoke_m} q={self.revoke_q}, "
                f"hash of {self.fingers * self.samples} templates to files at m={self.hash_m} q={self.hash_q}; "
                f"then {len(self.pairs)} 1:1 matches ({n_genuine} genuine) from those files")


def make(name: str) -> Workload:
    if name == "verify":
        return Evaluate(
            "verify",
            "README giom evaluate, 30x4 at m=700, 1 thread: the paper protocol. Predicted dominant layer: "
            "hashing.hash_rows (measured 51-59% of time, derive_bank 24-31%; 1.3 GB peak)",
            ("hashing.hash_rows",), fingers=30, samples=4, m=700, q=100, threads=1,
        )
    if name == "gallery":
        return Evaluate(
            "gallery",
            "giom evaluate, 200x2 at m=100, --threads 2: 20,100 comparisons over 6,600 rows. "
            "Predicted dominant layer: matching plus evaluation.score_pairs",
            ("matching.lgs_match", "matching.similarity_matrix", "evaluation.score_pairs"),
            fingers=200, samples=2, m=100, q=100, threads=2,
        )
    if name == "key-churn":
        return KeyChurn(
            "key-churn",
            "giom sweep, analyze revoke (50 keys), hash to files and 16 giom match on 8x4: many keys, few rows. "
            "Predicted dominant layer: randomness.derive_bank; model.load_hashed for the matches",
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify", "gallery", "key-churn")
