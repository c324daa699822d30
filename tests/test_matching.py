import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    oracle_flat_topk_score,
    oracle_greedy_score_set,
    oracle_similarity_matrix,
    reference_lgs_match_detail,
    reference_similarity_matrix,
)

from giomhash.evaluation import encode_dataset, hash_dataset, score_pairs
from giomhash.hashing import hash_rows
from giomhash.matching import (
    _BLOCK_FLOATS,
    LgsParams,
    lgs_match,
    lgs_match_detail,
    np_select,
    point_similarity,
    similarity_matrix,
)
from giomhash.model import HashKey, HashedTemplate
from giomhash.randomness import derive_bank


def hashed(codes, q=10, fp="k0"):
    return HashedTemplate(np.asarray(codes), q=q, key_fingerprint=fp)


small_codes = st.integers(1, 4)


def codes_strategy(max_rows=5, m=3):
    return st.lists(
        st.lists(small_codes, min_size=m, max_size=m), min_size=1, max_size=max_rows
    )


class TestLgsParams:
    def test_defaults(self):
        p = LgsParams()
        assert (p.min_np, p.max_np, p.mu_p, p.tau_p, p.greedy_unique) == (4, 12, 20.0, 0.4, True)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            LgsParams(min_np=0)
        with pytest.raises(ValueError):
            LgsParams(min_np=5, max_np=4)
        with pytest.raises(ValueError):
            LgsParams(mu_p=float("nan"))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"min_np": 4.7}, "min_np must be an integer, got 4.7"),
            ({"max_np": 12.0}, "max_np must be an integer, got 12.0"),
            ({"min_np": True}, "min_np must be an integer, got True"),
            ({"greedy_unique": "no"}, "greedy_unique must be a bool, got 'no'"),
            ({"greedy_unique": 0}, "greedy_unique must be a bool, got 0"),
        ],
    )
    def test_non_integer_counts_and_non_bool_selection_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            LgsParams(**change)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mu_p": "20"}, "mu_p must be a finite real number, got '20'"),
            ({"tau_p": True}, "tau_p must be a finite real number, got True"),
            ({"tau_p": math.inf}, "tau_p must be a finite real number, got inf"),
        ],
    )
    def test_non_real_or_non_finite_sigmoid_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            LgsParams(**change)
        assert str(info.value) == message

    def test_numpy_values_accepted(self):
        p = LgsParams(min_np=np.int64(3), max_np=np.int32(5), greedy_unique=np.bool_(False))
        assert p == LgsParams(min_np=3, max_np=5, greedy_unique=False)
        assert all(type(v) is int for v in (p.min_np, p.max_np)) and p.greedy_unique is False


class TestNpSelect:
    def test_sigmoid_midpoint(self):
        p = LgsParams(min_np=4, max_np=12, mu_p=20.0, tau_p=0.4)
        assert np_select(20, 25, p) == 4 + round(0.5 * 8)

    def test_saturation_large_count(self):
        p = LgsParams(min_np=4, max_np=12, mu_p=20.0, tau_p=0.4)
        assert np_select(3000, 3000, p) == 12

    def test_default_example(self):
        # Z = 1/(1+e^4) ~ 0.017986, round(Z*8) = 0
        assert np_select(10, 10, LgsParams()) == 4

    def test_clamped_by_smaller_template(self):
        p = LgsParams(min_np=4, max_np=12, mu_p=20.0, tau_p=0.4)
        assert np_select(2, 50, p) == 2
        assert np_select(50, 3, p) == 3

    def test_extreme_slopes_do_not_overflow(self):
        p = LgsParams(min_np=1, max_np=5, mu_p=1e6, tau_p=100.0)
        assert np_select(10, 10, p) == 1
        p = LgsParams(min_np=1, max_np=5, mu_p=-1e6, tau_p=100.0)
        assert np_select(10, 10, p) == 5

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            np_select(0, 5, LgsParams())

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_result_always_feasible(self, n_a, n_b):
        p = LgsParams(min_np=2, max_np=9, mu_p=10.0, tau_p=0.5)
        n_p = np_select(n_a, n_b, p)
        assert 1 <= n_p <= min(9, n_a, n_b)


class TestPointSimilarity:
    def test_identical_codes(self):
        assert point_similarity([1, 2, 3], [1, 2, 3], q=5) == 1.0

    def test_maximal_distance(self):
        assert point_similarity([1, 1, 1], [5, 5, 5], q=5) == 0.0

    def test_hand_value(self):
        # m=2, q=3: 1 - sqrt(5)/(2*sqrt(2))
        expected = 1.0 - math.sqrt(5.0) / (2.0 * math.sqrt(2.0))
        assert point_similarity([1, 1], [2, 3], q=3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2094, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            point_similarity([1, 2], [1, 2, 3], q=4)

    def test_out_of_range_entries(self):
        with pytest.raises(ValueError, match=r"\[1, 4\]"):
            point_similarity([0, 2], [1, 2], q=4)

    @pytest.mark.parametrize(
        "codes, q, message",
        [
            ([[0, 9]], 3, r"code indices must lie in \[1, 3\]"),
            ([[1.5, 2]], 3, "codes must be integers"),
            ([[1, 1]], 1, "q must be >= 2"),
            ([1, 2], 3, r"expected an \(N, m\) code array"),
        ],
        ids=["out-of-range", "non-integer", "q=1", "1-d"],
    )
    def test_matrix_rejects_bad_input(self, codes, q, message):
        with pytest.raises(ValueError, match=message):
            similarity_matrix(codes, [[1, 1]], q)
        with pytest.raises(ValueError, match=message):
            similarity_matrix([[1, 1]], codes, q)

    @given(codes_strategy(max_rows=4), codes_strategy(max_rows=4))
    def test_matrix_matches_oracle(self, rows_a, rows_b):
        a = np.array(rows_a)
        b = np.array(rows_b)
        got = similarity_matrix(a, b, q=4)
        expected = oracle_similarity_matrix(rows_a, rows_b, 4)
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestLgsMatch:
    def test_identical_templates_score_one(self):
        t = hashed([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert lgs_match(t, t) == 1.0

    def test_single_point_identical_and_opposite(self):
        same = lgs_match(hashed([[2, 2]], q=5), hashed([[2, 2]], q=5))
        assert same == 1.0
        far = lgs_match(hashed([[1, 1]], q=5), hashed([[5, 5]], q=5))
        assert far == 0.0

    def test_score_in_range(self, small_dataset, small_mcc):
        key = HashKey(seed=3, m=16, q=8, d=small_mcc.dim)
        hashed_templates = list(hash_dataset(encode_dataset(small_dataset[:4], small_mcc), key).values())
        for i in range(len(hashed_templates)):
            for j in range(len(hashed_templates)):
                value = lgs_match(hashed_templates[i], hashed_templates[j])
                assert 0.0 <= value <= 1.0

    @given(codes_strategy(max_rows=5), codes_strategy(max_rows=5))
    def test_greedy_score_reachable_by_oracle(self, rows_a, rows_b):
        a, b = hashed(rows_a, q=4), hashed(rows_b, q=4)
        params = LgsParams(min_np=1, max_np=3, mu_p=2.0, tau_p=0.7)
        score = lgs_match(a, b, params)
        sim = oracle_similarity_matrix(rows_a, rows_b, 4)
        n_p = np_select(len(rows_a), len(rows_b), params)
        achievable = oracle_greedy_score_set(sim, n_p)
        assert any(score == pytest.approx(v, abs=1e-12) for v in achievable)

    @given(codes_strategy(max_rows=5), codes_strategy(max_rows=5))
    def test_symmetry(self, rows_a, rows_b):
        a, b = hashed(rows_a, q=4), hashed(rows_b, q=4)
        params = LgsParams(min_np=1, max_np=3, mu_p=2.0, tau_p=0.7)
        assert lgs_match(a, b, params) == lgs_match(b, a, params)

    @given(codes_strategy(max_rows=5), codes_strategy(max_rows=5))
    def test_flat_topk_matches_oracle(self, rows_a, rows_b):
        a, b = hashed(rows_a, q=4), hashed(rows_b, q=4)
        params = LgsParams(min_np=1, max_np=3, mu_p=2.0, tau_p=0.7, greedy_unique=False)
        score = lgs_match(a, b, params)
        sim = oracle_similarity_matrix(rows_a, rows_b, 4)
        n_p = np_select(len(rows_a), len(rows_b), params)
        assert score == pytest.approx(oracle_flat_topk_score(sim, n_p), abs=1e-12)

    def test_greedy_uses_each_point_once(self):
        # one dominant row in a would otherwise absorb both of b's points
        a = hashed([[1, 1], [3, 3]], q=5)
        b = hashed([[1, 1], [1, 2]], q=5)
        params = LgsParams(min_np=2, max_np=2, mu_p=1.0, tau_p=1.0)
        _, selected, n_p = lgs_match_detail(a, b, params)
        assert n_p == 2
        rows = [i for i, _, _ in selected]
        cols = [j for _, j, _ in selected]
        assert len(set(rows)) == 2 and len(set(cols)) == 2

    def test_detail_reports_caller_orientation(self):
        a = hashed([[1, 1], [4, 4], [2, 2]], q=5)
        b = hashed([[4, 4]], q=5)
        params = LgsParams(min_np=1, max_np=1, mu_p=1.0, tau_p=1.0)
        _, selected_ab, _ = lgs_match_detail(a, b, params)
        _, selected_ba, _ = lgs_match_detail(b, a, params)
        assert selected_ab == [(1, 0, 1.0)]
        assert selected_ba == [(0, 1, 1.0)]

    def test_cross_key_rejected(self):
        a = hashed([[1, 2]], fp="k0")
        b = hashed([[1, 2]], fp="k1")
        with pytest.raises(ValueError, match="key fingerprint mismatch"):
            lgs_match(a, b)
        assert lgs_match(a, b, allow_cross_key=True) == 1.0

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="code length mismatch"):
            lgs_match(hashed([[1, 2]]), hashed([[1, 2, 3]]))
        with pytest.raises(ValueError, match="index range mismatch"):
            lgs_match(hashed([[1, 2]], q=5), hashed([[1, 2]], q=6))

    def test_end_to_end_scale_invariance(self, small_mcc):
        rng = np.random.default_rng(15)
        bank = derive_bank(HashKey(seed=5, m=12, q=6, d=8))
        rows_a = rng.random((5, 8))
        rows_b = rng.random((4, 8))
        base = lgs_match(hashed(hash_rows(rows_a, bank), q=6), hashed(hash_rows(rows_b, bank), q=6))
        # positive scaling changes cylinder values but not argmax codes
        scaled = lgs_match(hashed(hash_rows(rows_a * 0.25, bank), q=6), hashed(hash_rows(rows_b, bank), q=6))
        assert scaled == base


def reference_scores(pairs, params, allow_cross_key=False):
    return [reference_lgs_match_detail(a, b, params, allow_cross_key)[0] for a, b in pairs]


def keyed(pairs):
    """score_pairs input for template pairs: the templates keyed by identity, and the key pairs."""
    templates = {id(t): t for pair in pairs for t in pair}
    return templates, [(id(a), id(b)) for a, b in pairs]


def batch_scores(pairs, params, allow_cross_key=False):
    templates, keys = keyed(pairs)
    return score_pairs(keys, templates, params, allow_cross_key)


def random_templates(rng, count, m, q, rows=(1, 25), fp="k0"):
    return [
        hashed(rng.integers(1, q + 1, size=(int(rng.integers(*rows)), m)), q=q, fp=fp)
        for _ in range(count)
    ]


# greedy and flat selection, with budgets that reach past 8 picks (numpy's
# pairwise summation unrolls from 8 terms)
SELECTIONS = [
    LgsParams(),
    LgsParams(greedy_unique=False),
    LgsParams(min_np=1, max_np=3, mu_p=2.0, tau_p=0.7),
    LgsParams(min_np=9, max_np=20, mu_p=5.0, tau_p=0.3),
    LgsParams(min_np=9, max_np=20, mu_p=5.0, tau_p=0.3, greedy_unique=False),
]


class TestBatchedScorer:
    """score_pairs and lgs_match_detail against the frozen per-pair scorer, bit for bit."""

    @pytest.mark.parametrize("rows", [(1, 25), (6, 7)], ids=["unequal", "equal"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("params", SELECTIONS)
    def test_heavy_ties_both_orientations(self, q, params, rows):
        # equal sizes leave the orientation to the code bytes
        rng = np.random.default_rng(q)
        templates = random_templates(rng, 12, m=4, q=q, rows=rows)
        templates.append(templates[0])
        pairs = [(a, b) for a in templates for b in templates]
        assert batch_scores(pairs, params) == reference_scores(pairs, params)

    @pytest.mark.parametrize("rows", [(1, 14), (5, 6)], ids=["unequal", "equal"])
    @pytest.mark.parametrize("params", SELECTIONS)
    def test_detail_matches_reference(self, params, rows):
        rng = np.random.default_rng(11)
        templates = random_templates(rng, 6, m=3, q=2, rows=rows)
        for a in templates:
            for b in templates:
                score, selected, n_p = lgs_match_detail(a, b, params)
                assert type(score) is float and type(lgs_match(a, b, params)) is float
                assert (score, selected, n_p) == reference_lgs_match_detail(a, b, params)

    def test_similarity_matrix_matches_reference(self):
        rng = np.random.default_rng(12)
        for m, q in ((1, 2), (7, 3), (100, 100), (700, 100)):
            a = rng.integers(1, q + 1, size=(23, m))
            b = rng.integers(1, q + 1, size=(17, m))
            np.testing.assert_array_equal(similarity_matrix(a, b, q), reference_similarity_matrix(a, b, q))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, offset):
        rows, m, q = 8, 512, 100
        block = _BLOCK_FLOATS // (2 * rows * m + 2 * rows * rows)
        rng = np.random.default_rng(20 + offset)
        templates = random_templates(rng, 2 * block + 2, m=m, q=q, rows=(rows, rows + 1))
        pairs = list(zip(templates[0::2], templates[1::2]))[: block + offset]
        params = LgsParams(min_np=2, max_np=6, mu_p=6.0, tau_p=1.0)
        assert len(pairs) == block + offset
        templates, keys = keyed(pairs)
        assert score_pairs(keys, templates, params) == reference_scores(pairs, params)
        assert score_pairs(iter(keys), templates, params) == reference_scores(pairs, params)

    def test_codes_longer_than_a_block(self):
        # one row of a side already exceeds half the block budget
        rng = np.random.default_rng(23)
        templates = random_templates(rng, 4, m=_BLOCK_FLOATS // 2 + 1, q=2, rows=(1, 3))
        pairs = list(zip(templates[0::2], templates[1::2]))
        assert batch_scores(pairs, LgsParams()) == reference_scores(pairs, LgsParams())

    def test_mixed_code_lengths_and_alphabets_raise_at_pack_time(self):
        # no pair mixes m or q, but the mapping that is packed does
        rng = np.random.default_rng(21)
        base = random_templates(rng, 4, m=3, q=5)
        for m, q in ((6, 5), (3, 7)):
            other = random_templates(rng, 4, m=m, q=q)
            pairs = [(a, b) for group in (base, other) for a in group for b in group]
            with pytest.raises(ValueError) as want:
                lgs_match(base[0], other[0])
            with pytest.raises(ValueError) as got:
                batch_scores(pairs, LgsParams())
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as got:
                score_pairs([(0, 0)], {0: base[0]}, LgsParams(), allow_cross_key=True, hashed_b={0: other[0]})
            assert str(got.value) == str(want.value)

    def test_cross_key_and_empty(self):
        rng = np.random.default_rng(22)
        under_a = random_templates(rng, 5, m=6, q=4, fp="k0")
        under_b = random_templates(rng, 5, m=6, q=4, fp="k1")
        pairs = list(zip(under_a, under_b))
        keys = [(i, i) for i in range(len(pairs))]
        got = score_pairs(
            keys, dict(enumerate(under_a)), LgsParams(), allow_cross_key=True, hashed_b=dict(enumerate(under_b))
        )
        assert got == reference_scores(pairs, LgsParams(), allow_cross_key=True)
        assert score_pairs([], {}, LgsParams()) == []

    @pytest.mark.parametrize(
        "bad",
        [hashed([[1, 2, 3]]), hashed([[1, 2]], q=11), hashed([[1, 2]], fp="k1")],
        ids=["m", "q", "fingerprint"],
    )
    def test_errors_match_reference(self, bad):
        good = hashed([[1, 2], [3, 4]])
        with pytest.raises(ValueError) as want:
            reference_lgs_match_detail(good, bad, LgsParams())
        message = str(want.value)
        # the bad pair comes after good ones
        pairs = [(good, good)] * 3 + [(good, bad)]
        with pytest.raises(ValueError) as got:
            batch_scores(pairs, LgsParams())
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            lgs_match_detail(good, bad, LgsParams())
        assert str(got.value) == message

    def test_exactness_bound(self):
        # m=2: 4*m*q^2 < 2^53 holds up to q = 2^25 - 1
        q = (1 << 25) - 1
        low, high = hashed([[1, 1], [2, q]], q=q), hashed([[q, q], [q, 1]], q=q)
        params = LgsParams(min_np=2, max_np=2)
        assert batch_scores([(low, high)], params) == reference_scores([(low, high)], params)
        np.testing.assert_array_equal(
            similarity_matrix(low.codes, high.codes, q), reference_similarity_matrix(low.codes, high.codes, q)
        )
        q += 1
        low, high = hashed([[1, 1]], q=q), hashed([[q, q]], q=q)
        with pytest.raises(ValueError, match=r"too large for exact scoring: need 4\*m\*q\^2 < 2\^53"):
            batch_scores([(low, high)], params)
        with pytest.raises(ValueError, match="too large for exact scoring"):
            lgs_match(low, high)
        with pytest.raises(ValueError, match="too large for exact scoring"):
            similarity_matrix(low.codes, high.codes, q)
