import csv
import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    oracle_eer,
    oracle_genuine_count,
    oracle_impostor_count,
    reference_lgs_match_detail,
    reference_score_pairs,
)

import giomhash.evaluation as evaluation
import giomhash.matching as matching
from giomhash.evaluation import (
    EncodedDataset,
    compute_eer,
    encode_dataset,
    genuine_pairs,
    hash_dataset,
    impostor_pairs,
    json_text,
    load_report,
    run_evaluation,
    score_pairs,
    sweep,
    sweep_grid,
    write_sweep_csv,
)
from giomhash.hashing import hash_rows
from giomhash.matching import _BLOCK_FLOATS, LgsParams, pack_templates
from giomhash.mcc import MccParams, SynthParams, encode_cylinders, synth_dataset
from giomhash.model import HashKey, HashedTemplate, IntegrityError, Minutia, MinutiaeTemplate, code_dtype
from giomhash.randomness import child_seed, derive_bank


def flat_dataset(fingers, samples):
    out = []
    for f in range(fingers):
        for s in range(1, samples + 1):
            out.append(
                MinutiaeTemplate(f"f{f:03d}", s, (Minutia(float(f), float(s), 0.1),))
            )
    return out


scores = st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20)


class TestPairProtocol:
    def test_fvc_counts(self):
        data = flat_dataset(100, 8)
        assert len(genuine_pairs(data)) == oracle_genuine_count(100, 8) == 2800
        assert len(impostor_pairs(data)) == oracle_impostor_count(100) == 4950

    def test_single_finger_two_samples(self):
        data = flat_dataset(1, 2)
        assert genuine_pairs(data) == [(("f000", 1), ("f000", 2))]
        assert impostor_pairs(data) == []

    def test_two_fingers(self):
        data = flat_dataset(2, 2)
        assert impostor_pairs(data) == [(("f000", 1), ("f001", 1))]

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="need >= 2"):
            genuine_pairs(flat_dataset(3, 1))

    def test_duplicate_sample_ids_rejected(self):
        data = flat_dataset(1, 2) + [flat_dataset(1, 2)[0]]
        with pytest.raises(ValueError, match="duplicate sample ids"):
            genuine_pairs(data)

    def test_genuine_pairs_are_same_finger_unordered(self):
        data = flat_dataset(3, 3)
        pairs = genuine_pairs(data)
        assert len(pairs) == len(set(pairs))
        for (fa, sa), (fb, sb) in pairs:
            assert fa == fb and sa < sb

    def test_impostor_pairs_use_first_samples(self):
        data = flat_dataset(4, 3)
        for (fa, sa), (fb, sb) in impostor_pairs(data):
            assert sa == sb == 1 and fa < fb

    @given(st.integers(2, 12), st.integers(2, 6))
    def test_counts_formula(self, fingers, samples):
        data = flat_dataset(fingers, samples)
        assert len(genuine_pairs(data)) == fingers * samples * (samples - 1) // 2
        assert len(impostor_pairs(data)) == fingers * (fingers - 1) // 2


class TestComputeEer:
    def test_perfect_separation(self):
        eer, _ = compute_eer([0.9] * 5, [0.1] * 5)
        assert eer == 0.0

    def test_identical_distributions(self):
        eer, _ = compute_eer([0.3, 0.7], [0.3, 0.7])
        assert eer == pytest.approx(0.5)

    def test_interleaved_two_by_two(self):
        # first threshold with |FMR - FNMR| = 0 is 0.7, where both rates are
        # 0.5, so the midpoint EER is 0.5
        eer, roc = compute_eer([0.8, 0.6], [0.7, 0.5])
        assert eer == 0.5
        assert eer == oracle_eer([0.8, 0.6], [0.7, 0.5])

    @given(scores, scores)
    def test_matches_exhaustive_oracle(self, genuine, impostor):
        eer, _ = compute_eer(genuine, impostor)
        assert eer == oracle_eer(genuine, impostor)

    @given(scores, scores)
    def test_roc_monotone(self, genuine, impostor):
        _, roc = compute_eer(genuine, impostor)
        fmr = [row[1] for row in roc]
        fnmr = [row[2] for row in roc]
        assert all(a >= b for a, b in zip(fmr, fmr[1:]))
        assert all(a <= b for a, b in zip(fnmr, fnmr[1:]))

    @given(
        st.lists(st.integers(0, 64), min_size=1, max_size=20),
        st.lists(st.integers(0, 64), min_size=1, max_size=20),
    )
    def test_invariant_under_increasing_rescale(self, genuine, impostor):
        # dyadic scores keep the order and tie structure exact under the
        # affine remap, which a strictly increasing transform must preserve
        genuine = [k / 64.0 for k in genuine]
        impostor = [k / 64.0 for k in impostor]
        eer, _ = compute_eer(genuine, impostor)
        remap = lambda xs: [0.1 + 0.5 * x for x in xs]
        eer2, _ = compute_eer(remap(genuine), remap(impostor))
        assert eer == pytest.approx(eer2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            compute_eer([], [0.5])
        with pytest.raises(ValueError, match="non-empty"):
            compute_eer([0.5], [])


@pytest.fixture(scope="module")
def eval_setup(request):
    mcc = MccParams(radius=100.0, ns=6, nd=4)
    params = SynthParams(
        fingers=4,
        samples_per_finger=3,
        minutiae_range=(15, 22),
        jitter_pos=4.0,
        jitter_theta=0.08,
        drop_rate=0.1,
        field_size=300.0,
    )
    dataset = synth_dataset(808, params)
    key = HashKey(seed=17, m=24, q=10, d=mcc.dim)
    return dataset, key, mcc


class TestRunEvaluation:
    def test_packs_templates_once(self, eval_setup, pack_calls):
        dataset, key, mcc = eval_setup
        report = run_evaluation(dataset, key, mcc)
        assert pack_calls == [len(dataset)]
        assert len(report.genuine_scores) == 12 and len(report.impostor_scores) == 6

    def test_single_finger_fails_before_encoding(self, eval_setup, monkeypatch):
        dataset, key, mcc = eval_setup
        one_finger = [t for t in dataset if t.finger_id == dataset[0].finger_id]

        def unreachable(*args, **kwargs):
            raise AssertionError("a protocol without impostor pairs reached encoding or hashing")

        monkeypatch.setattr(evaluation, "encode_dataset", unreachable)
        monkeypatch.setattr(evaluation, "hash_dataset", unreachable)
        with pytest.raises(ValueError, match="protocol needs >= 2 fingers for impostor comparisons"):
            run_evaluation(one_finger, key, mcc)

    def test_report_shape(self, eval_setup):
        dataset, key, mcc = eval_setup
        report = run_evaluation(dataset, key, mcc)
        assert len(report.genuine_scores) == 4 * 3
        assert len(report.impostor_scores) == 6
        assert 0.0 <= report.eer <= 1.0
        assert report.config["m"] == 24 and report.config["q"] == 10
        assert report.config["mcc"]["ns"] == 6
        assert report.config["lgs"] == asdict(LgsParams())

    def test_deterministic(self, eval_setup):
        dataset, key, mcc = eval_setup
        a = run_evaluation(dataset, key, mcc)
        b = run_evaluation(dataset, key, mcc)
        assert a == b

    def test_dimension_mismatch_rejected(self, eval_setup):
        dataset, _, mcc = eval_setup
        bad_key = HashKey(seed=1, m=4, q=5, d=mcc.dim + 1)
        with pytest.raises(ValueError, match="does not match cylinder dimension"):
            run_evaluation(dataset, bad_key, mcc)

    def test_encode_dataset_rows_in_dataset_order(self, eval_setup):
        dataset, _, mcc = eval_setup
        encoded = encode_dataset(dataset, mcc)
        assert not encoded.rows.flags.writeable
        assert encoded.rows.shape == (sum(len(t) for t in dataset), mcc.dim)
        assert list(encoded.ranges) == [t.key for t in dataset]
        lo = 0
        for template in dataset:
            rows = encoded.rows[encoded.ranges[template.key]]
            assert encoded.ranges[template.key] == slice(lo, lo + len(template))
            np.testing.assert_array_equal(rows, encode_cylinders(template, mcc), strict=True)
            lo += len(template)

    def test_encode_dataset_rejects_duplicate_keys(self, eval_setup):
        dataset, _, mcc = eval_setup
        with pytest.raises(ValueError, match="duplicate sample ids"):
            encode_dataset(dataset + dataset[:1], mcc)

    def test_hash_dataset_consistent_with_per_template(self, eval_setup):
        dataset, key, mcc = eval_setup
        batch = hash_dataset(encode_dataset(dataset, mcc), key)
        bank = derive_bank(key)
        assert list(batch) == [t.key for t in dataset]
        for template in dataset:
            want = hash_rows(encode_cylinders(template, mcc), bank)
            np.testing.assert_array_equal(batch[template.key].codes, want, strict=True)
            assert batch[template.key].q == key.q
            assert batch[template.key].key_fingerprint == key.fingerprint()

    def test_hash_dataset_templates_view_one_frozen_array(self, eval_setup):
        dataset, key, mcc = eval_setup
        batch = list(hash_dataset(encode_dataset(dataset, mcc), key).values())
        base = batch[0].codes.base
        assert base is not None and base.shape == (sum(t.n_points for t in batch), key.m)
        assert not base.flags.writeable
        for template in batch:
            assert template.codes.base is base and not template.codes.flags.writeable

    def test_hash_dataset_holds_codes_once(self):
        # m=2048, q=2, d=4: the uint8 codes (4.2 MB) dwarf the bank (128 KiB)
        # and the rows (66 KB); copying them per template would double them
        rng = np.random.default_rng(3)
        key = HashKey(seed=1, m=2048, q=2, d=4)
        rows = rng.random((128 * 16, 4))
        encoded = EncodedDataset(rows, {("f", i): slice(16 * i, 16 * (i + 1)) for i in range(128)})
        codes_bytes = 128 * 16 * key.m
        tracemalloc.start()
        try:
            hash_dataset(encoded, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one projection block of hash_rows is 2 MiB and its argmax indices
        # 1 MiB (1,024 matrices per block at q=2); allow 1 MiB more
        assert peak <= codes_bytes + (4 << 20)

    @pytest.mark.parametrize("q", [100, 300])
    def test_hash_dataset_codes_in_code_dtype(self, q):
        rows = np.random.default_rng(5).random((6, 4))
        encoded = EncodedDataset(rows, {("f", 1): slice(0, 2), ("f", 2): slice(2, 6)})
        for template in hash_dataset(encoded, HashKey(seed=2, m=3, q=q, d=4)).values():
            assert template.codes.dtype == code_dtype(q) == np.min_scalar_type(q)

    def test_hash_dataset_holds_rows_once(self, small_dataset):
        # default encoder d=1536 with m=1, q=2: the rows (about 4 MB) dwarf
        # the codes and hash_rows' block, so a copy of the rows would dominate
        mcc = MccParams()
        key = HashKey(seed=1, m=1, q=2, d=mcc.dim)
        encoded = encode_dataset(small_dataset, mcc)
        codes_bytes = encoded.rows.shape[0] * key.m * 8
        tracemalloc.start()
        try:
            hash_dataset(encoded, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - codes_bytes < encoded.rows.nbytes / 4

    def test_hash_dataset_peak_below_one_float64_copy_of_codes(self):
        # paper width (m=700, q=100) at d=8: the 4,000 rows' uint8 codes are
        # 2.8 MB, and int64 codes alone would reach the bound
        encoded = paper_width_rows()
        key = HashKey(seed=1, m=700, q=100, d=8)
        tracemalloc.start()
        try:
            hash_dataset(encoded, key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < encoded.rows.shape[0] * key.m * 8

    def test_score_pairs_peak_below_one_float64_copy_of_codes(self):
        # each block converts only its own rows, so no float64 copy of the codes is held
        encoded = paper_width_rows()
        key = HashKey(seed=1, m=700, q=100, d=8)
        hashed = hash_dataset(encoded, key)
        keys = list(hashed)
        pairs = [(a, keys[(i * 7 + 3) % len(keys)]) for i, a in enumerate(keys)]
        # the first call imports what the scorer needs
        score_pairs(pairs[:2], hashed, LgsParams())
        tracemalloc.start()
        try:
            score_pairs(pairs, hashed, LgsParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < encoded.rows.shape[0] * key.m * 8

    def test_score_pairs_matches_reference(self, eval_setup):
        dataset, key, mcc = eval_setup
        hashed = hash_dataset(encode_dataset(dataset, mcc), key)
        lgs = LgsParams()
        pairs = genuine_pairs(dataset) + impostor_pairs(dataset)
        pairs += [(b, a) for a, b in pairs]
        want = reference_score_pairs(pairs, hashed, lgs)
        assert score_pairs(pairs, hashed, lgs) == want

    def test_score_pairs_cross_key_matches_reference(self, eval_setup):
        dataset, key, mcc = eval_setup
        cylinders = encode_dataset(dataset, mcc)
        under_a = hash_dataset(cylinders, key)
        under_b = hash_dataset(cylinders, HashKey(seed=key.seed + 1, m=key.m, q=key.q, d=key.d))
        pairs = genuine_pairs(dataset)
        want = reference_score_pairs(pairs, under_a, LgsParams(), allow_cross_key=True, hashed_b=under_b)
        got = score_pairs(pairs, under_a, LgsParams(), hashed_b=under_b)
        assert got == want
        # one mapping that mixes the keys raises, though no pair crosses them
        mixed = under_a | {"other key": under_b[pairs[0][0]]}
        with pytest.raises(ValueError, match="key fingerprint mismatch"):
            score_pairs(pairs, mixed, LgsParams())

    def test_score_pairs_empty(self, eval_setup):
        assert score_pairs([], {}, LgsParams()) == []

    def test_score_pairs_memory_independent_of_pair_count(self):
        rng = np.random.default_rng(5)
        hashed = {
            i: HashedTemplate(rng.integers(1, 9, size=(int(rng.integers(12, 24)), 64)), 8, "k")
            for i in range(100)
        }
        keys = list(hashed)
        all_pairs = [(keys[i % 100], keys[(i * 7 + 3) % 100]) for i in range(8000)]
        # the first call imports what the scorer needs (np.unique loads
        # numpy.ma), which would count as held by the first measured call
        score_pairs(all_pairs[:10], hashed, LgsParams())
        usage = {}
        for n in (2000, 8000):
            pairs = all_pairs[:n]
            tracemalloc.start()
            try:
                scores = score_pairs(pairs, hashed, LgsParams())
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(scores) == n
            usage[n] = (current, peak)
        # the returned list is all that may grow with the pair count
        output_growth = usage[8000][0] - usage[2000][0]
        assert output_growth > 0
        assert usage[8000][1] - usage[2000][1] <= output_growth + (1 << 20)

    def test_score_pairs_memory_bounded_when_templates_outgrow_codes(self):
        # at m=1 a pair's 60 x 60 similarity matrix and its greedy copy are
        # 60 times its two code stacks, so the block length must count them
        rng = np.random.default_rng(6)
        hashed = {i: HashedTemplate(rng.integers(1, 9, size=(60, 1)), 8, "k") for i in range(100)}
        pairs = [(i % 100, (i * 7 + 3) % 100) for i in range(3000)]
        tracemalloc.start()
        try:
            score_pairs(pairs, hashed, LgsParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


def paper_width_rows():
    """200 templates of 20 random rows each at d=8: 4,000 rows."""
    rows = np.random.default_rng(8).random((4000, 8))
    return EncodedDataset(rows, {("f", i): slice(20 * i, 20 * (i + 1)) for i in range(200)})


def tie_heavy_gallery():
    """q=2, m=64 templates, each built on its own array, with heavy ties.

    Sizes 1, 1, 3, 3, 3 and 6 repeat, so equal sizes are left to the code
    bytes and single-row templates occur; ("dup", 0) and ("dup", 1) hold
    the same codes under two keys, as do ("dup", 2) and ("dup", 3).
    """
    rng = np.random.default_rng(31)
    sizes = (1, 1, 3, 3, 3, 6)
    hashed = {("f", i): HashedTemplate(rng.integers(1, 3, size=(sizes[i % 6], 64)), 2, "k") for i in range(24)}
    for dup, source in ((0, 2), (2, 5)):
        codes = hashed[("f", source)].codes
        hashed[("dup", dup)] = HashedTemplate(codes.copy(), 2, "k")
        hashed[("dup", dup + 1)] = HashedTemplate(codes.copy(), 2, "k")
    return hashed


class TestPackedScoring:
    """score_pairs, which packs its templates once, against the frozen per-pair scorer."""

    def test_tie_heavy_gallery_matches_reference(self):
        hashed = tie_heavy_gallery()
        lgs = LgsParams(min_np=1, max_np=6, mu_p=2.0, tau_p=0.7)
        # every ordered pair, self pairs and both orientations of the duplicates included
        pairs = [(a, b) for a in hashed for b in hashed]
        # more pairs than one block of these templates can hold
        assert len(pairs) > _BLOCK_FLOATS // (2 * 6 * 64)
        want = reference_score_pairs(pairs, hashed, lgs)
        assert score_pairs(pairs, hashed, lgs) == want
        # the pairs four times over are read in more than one chunk
        assert score_pairs(iter(pairs * 4), hashed, lgs) == want * 4

    def test_blocks_are_not_padded(self, monkeypatch):
        # each matrix in a stack must be one template's own rows, so a stack
        # of mixed sizes padded to its largest would show here
        hashed = tie_heavy_gallery()
        sizes = {t.codes.astype(float).tobytes(): t.n_points for t in hashed.values()}
        stacks = []
        original = matching._similarities

        def recording(a, b, q):
            stacks.extend((a, b))
            return original(a, b, q)

        monkeypatch.setattr(matching, "_similarities", recording)
        score_pairs([(a, b) for a in hashed for b in hashed], hashed, LgsParams())
        assert stacks
        for stack in stacks:
            assert [sizes.get(matrix.tobytes()) for matrix in stack] == [stack.shape[1]] * len(stack)

    def test_pack_ranks_follow_canonical_order(self):
        # a wrong orientation moved picks but no score in any case tried, so
        # the order the ranks give is checked directly
        templates = list(tie_heavy_gallery().values())
        ranks = pack_templates(templates).ranks.tolist()
        keys = [(t.n_points, t.codes.tobytes()) for t in templates]
        assert [[r < s for s in ranks] for r in ranks] == [[k < j for j in keys] for k in keys]
        assert [[r == s for s in ranks] for r in ranks] == [[k == j for j in keys] for k in keys]

    @pytest.mark.parametrize(
        "bad",
        [
            HashedTemplate([[1, 2, 1]], 2, "k"),
            HashedTemplate([[1, 2]], 3, "k"),
            HashedTemplate([[1, 2]], 2, "other"),
        ],
        ids=["m", "q", "fingerprint"],
    )
    def test_mismatch_raises_lgs_match_message(self, bad):
        hashed = {"a": HashedTemplate([[1, 2], [2, 2]], 2, "k"), "b": HashedTemplate([[2, 1]], 2, "k"), "bad": bad}
        with pytest.raises(ValueError) as want:
            reference_lgs_match_detail(hashed["b"], bad, LgsParams())
        # the bad pair comes after good ones
        pairs = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "bad"), ("a", "b")]
        with pytest.raises(ValueError) as got:
            score_pairs(pairs, hashed, LgsParams())
        assert str(got.value) == str(want.value)


class TestEvalReport:
    def test_json_round_trip(self, eval_setup, tmp_path):
        dataset, key, mcc = eval_setup
        report = run_evaluation(dataset, key, mcc)
        report.save(tmp_path / "report.json")
        assert load_report(tmp_path / "report.json") == report

    def test_report_of_an_older_matcher_config_loads(self):
        # criterion 9's 4 x 3 report as written while LgsParams still had a
        # greedy_unique field: a stored config is data, read back as it was
        path = Path(__file__).parent / "data" / "report_with_greedy_unique.json"
        text = path.read_text()
        stored = json.loads(text)
        report = load_report(path)
        assert stored["config"]["lgs"]["greedy_unique"] is True
        assert report.eer == stored["eer"] == 0.125
        assert report.config == stored["config"]
        # the report is written again without its stored roc member
        assert text == json_text(stored)
        assert report.to_json() == json_text({k: v for k, v in stored.items() if k != "roc"})

    def test_stored_roc_of_an_older_report_is_ignored(self, tmp_path):
        # reports used to store their ROC table too; it is the scores' table, derived again on load
        path = Path(__file__).parent / "data" / "report_with_greedy_unique.json"
        stored = json.loads(path.read_text())
        report = load_report(path)
        assert len(stored["roc"]) == 18
        assert report.roc == tuple(compute_eer(stored["genuine_scores"], stored["impostor_scores"])[1])
        assert report.roc == tuple(tuple(row) for row in stored["roc"])
        stored["roc"] = [[0.5, 0.1, 0.2]]
        (tmp_path / "wrong_roc.json").write_text(json.dumps(stored))
        assert load_report(tmp_path / "wrong_roc.json") == report

    def test_tampered_eer_detected(self, eval_setup, tmp_path):
        dataset, key, mcc = eval_setup
        report = run_evaluation(dataset, key, mcc)
        text = report.to_json().replace(f'"eer": {report.eer}', '"eer": 0.123')
        (tmp_path / "bad.json").write_text(text)
        with pytest.raises(IntegrityError, match="inconsistent"):
            load_report(tmp_path / "bad.json")

    def test_out_of_range_eer_detected(self, eval_setup, tmp_path):
        dataset, key, mcc = eval_setup
        payload = json.loads(run_evaluation(dataset, key, mcc).to_json())
        payload["eer"] = 1.5
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=r"bad\.json: stored eer 1\.5 inconsistent"):
            load_report(tmp_path / "bad.json")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload.pop("eer"), "'eer'"),
            (lambda payload: payload["genuine_scores"].append(10**400), "genuine_scores must be a finite real number"),
            (
                lambda payload: payload.update(genuine_scores=["0.9", True]),
                "genuine_scores must be a finite real number, got '0.9'",
            ),
            (
                lambda payload: payload["genuine_scores"].append(True),
                "genuine_scores must be a finite real number, got True",
            ),
            (
                lambda payload: payload["impostor_scores"].append(math.nan),
                "impostor_scores must be a finite real number, got nan",
            ),
            (
                lambda payload: payload["impostor_scores"].append(-math.inf),
                "impostor_scores must be a finite real number, got -inf",
            ),
            (lambda payload: payload.update(eer=str(payload["eer"])), "eer must be a finite real number, got '"),
            (lambda payload: payload.update(eer=True), "eer must be a finite real number, got True"),
            (lambda payload: payload.update(eer=math.nan), "eer must be a finite real number, got nan"),
        ],
        ids=[
            "missing-eer",
            "score-too-large-for-float",
            "score-str",
            "score-bool",
            "score-nan",
            "score-inf",
            "eer-str",
            "eer-bool",
            "eer-nan",
        ],
    )
    def test_malformed_stored_value_is_invalid(self, eval_setup, tmp_path, edit, message):
        dataset, key, mcc = eval_setup
        payload = json.loads(run_evaluation(dataset, key, mcc).to_json())
        edit(payload)
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=r"^bad\.json: invalid report \(") as info:
            load_report(tmp_path / "bad.json")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "content", [b'\xff\xfe{"eer": 0.5}', b"[" * 200_000 + b"]" * 200_000], ids=["not-utf-8", "nested-too-deep"]
    )
    def test_undecodable_file_is_invalid(self, tmp_path, content):
        (tmp_path / "bad.json").write_bytes(content)
        with pytest.raises(IntegrityError, match=r"^bad\.json: invalid report \("):
            load_report(tmp_path / "bad.json")

    def test_roc_csv(self, eval_setup, tmp_path):
        dataset, key, mcc = eval_setup
        report = run_evaluation(dataset, key, mcc)
        report.write_roc_csv(tmp_path / "roc.csv")
        with open(tmp_path / "roc.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["threshold", "fmr", "fnmr"]
        assert len(rows) == len(report.roc) + 1
        assert float(rows[1][1]) == report.roc[0][1]


class TestSweep:
    def test_single_cell_equals_direct_run(self, eval_setup):
        dataset, _, mcc = eval_setup
        result = sweep(dataset, [6], [5], trials=1, base_seed=3, mcc=mcc)
        assert len(result.records) == 1
        m, q, trial, seed, eer = result.records[0]
        assert (m, q, trial) == (6, 5, 0)
        direct = run_evaluation(dataset, HashKey(seed=seed, m=6, q=5, d=mcc.dim), mcc)
        assert eer == direct.eer
        assert result.means == ((6, 5, direct.eer),)

    def test_mean_over_trials(self, eval_setup):
        dataset, _, mcc = eval_setup
        result = sweep(dataset, [6], [5], trials=3, base_seed=3, mcc=mcc)
        eers = [rec[4] for rec in result.records]
        assert result.means[0][2] == pytest.approx(float(np.mean(eers)))

    def test_trial_seeds_independent_of_grid(self, eval_setup):
        dataset, _, mcc = eval_setup
        lone = sweep(dataset, [6], [5], trials=2, base_seed=3, mcc=mcc)
        grid = sweep(dataset, [4, 6], [5], trials=2, base_seed=3, mcc=mcc)
        assert [r for r in grid.records if r[0] == 6] == list(lone.records)

    def test_empty_grid_rejected(self, eval_setup):
        dataset, _, mcc = eval_setup
        with pytest.raises(ValueError, match="non-empty"):
            sweep(dataset, [], [5], trials=1, base_seed=0, mcc=mcc)
        with pytest.raises(ValueError, match="trials"):
            sweep(dataset, [4], [5], trials=0, base_seed=0, mcc=mcc)

    def test_repeated_grid_value_rejected_before_encoding(self, eval_setup, monkeypatch):
        dataset, _, mcc = eval_setup

        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep with a repeated grid value reached encoding or hashing")

        monkeypatch.setattr(evaluation, "encode_dataset", unreachable)
        monkeypatch.setattr(evaluation, "hash_dataset", unreachable)
        with pytest.raises(ValueError, match="^m_list repeats 4; each grid value must appear once$"):
            sweep(dataset, [4, 6, 4], [5], trials=1, base_seed=0, mcc=mcc)
        with pytest.raises(ValueError, match="^q_list repeats 5; each grid value must appear once$"):
            sweep(dataset, [4], [5, np.int64(5)], trials=1, base_seed=0, mcc=mcc)

    def test_non_integer_grid_rejected(self, eval_setup):
        dataset, _, mcc = eval_setup
        with pytest.raises(ValueError, match="m must be an integer, got 5.9"):
            sweep(dataset, [5.9], [5], trials=1, base_seed=0, mcc=mcc)
        with pytest.raises(ValueError, match="q must be an integer, got 4.5"):
            sweep(dataset, [6], [4.5], trials=1, base_seed=0, mcc=mcc)

    def test_bad_grid_or_protocol_fails_before_encoding(self, eval_setup, monkeypatch):
        dataset, _, mcc = eval_setup
        one_finger = [t for t in dataset if t.finger_id == dataset[0].finger_id]

        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep with a bad cell or protocol reached encoding or hashing")

        monkeypatch.setattr(evaluation, "encode_dataset", unreachable)
        monkeypatch.setattr(evaluation, "hash_dataset", unreachable)
        with pytest.raises(ValueError, match="q must be >= 2"):
            sweep(dataset, [5], [100, 1], trials=1, base_seed=0, mcc=mcc)
        with pytest.raises(ValueError, match="m must be >= 1"):
            sweep(dataset, [0], [10], trials=1, base_seed=0, mcc=mcc)
        with pytest.raises(ValueError, match="protocol needs >= 2 fingers for impostor comparisons"):
            sweep(one_finger, [5], [10], trials=1, base_seed=0, mcc=mcc)

    def test_grid_cells_hold_each_trial_key(self):
        cells = sweep_grid([4, 6], [5, 7], trials=2, base_seed=3, d=10)
        assert [(m, q) for m, q, _ in cells] == [(4, 5), (4, 7), (6, 5), (6, 7)]
        for m, q, keys in cells:
            assert keys == [HashKey(seed=child_seed(3, m, q, t), m=m, q=q, d=10) for t in range(2)]

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            sweep_grid([4], [5], trials=1, base_seed=-1, d=10)

    def test_csv_round_trip(self, eval_setup, tmp_path):
        dataset, _, mcc = eval_setup
        result = sweep(dataset, [4, 6], [5], trials=2, base_seed=9, mcc=mcc)
        write_sweep_csv(result, tmp_path / "trials.csv", tmp_path / "means.csv")
        with open(tmp_path / "trials.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["m", "q", "trial", "seed", "eer"]
        assert len(rows) == len(result.records) + 1
        with open(tmp_path / "means.csv", newline="") as handle:
            mean_rows = list(csv.reader(handle))
        assert mean_rows[0] == ["m", "q", "mean_eer"]
        parsed = [(int(r[0]), int(r[1]), float(r[2])) for r in mean_rows[1:]]
        assert parsed == list(result.means)
