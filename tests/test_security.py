import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    reference_build_inequalities,
    reference_lgs_match_detail,
    reference_sample_preimage,
)

import giomhash.evaluation as evaluation
import giomhash.security as security
from giomhash.cases import get_case
from giomhash.evaluation import encode_dataset, hash_dataset, run_evaluation, score_pairs, sweep
from giomhash.hashing import hash_rows
from giomhash.matching import LgsParams
from giomhash.model import HashKey
from giomhash.randomness import child_seed, derive_bank
from giomhash.security import (
    PREIMAGE_BATCH,
    InequalitySystem,
    build_inequalities,
    histogram_intersection,
    revocability_experiment,
    sample_preimage,
    unlinkability_experiment,
)

CASE1_NORMALS = np.array(
    [
        [0.6, -0.5, -0.5],
        [0.4, -0.6, 0.6],
        [0.5, 0.8, 0.6],
    ]
)


class TestBuildInequalities:
    def test_square_case_normals(self):
        case = get_case(1)
        system = build_inequalities(case.bank, case.expected_code)
        assert system.n_constraints == 3
        assert system.variable_dim == 3
        np.testing.assert_allclose(system.normals, CASE1_NORMALS, atol=1e-12)

    def test_underdetermined_case_normals(self):
        case = get_case(2)
        system = build_inequalities(case.bank, case.expected_code)
        expected = np.array(
            [
                [0.6, -0.5, -0.5, 0.4],
                [0.4, -0.6, 0.6, -0.3],
            ]
        )
        np.testing.assert_allclose(system.normals, expected, atol=1e-12)

    def test_constraint_count(self):
        key = HashKey(seed=5, m=4, q=6, d=8)
        bank = derive_bank(key)
        code = hash_rows(np.arange(1.0, 9.0)[None, :], bank)[0]
        system = build_inequalities(bank, code)
        assert system.n_constraints == key.m * (key.q - 1)

    def test_code_shape_rejected(self):
        case = get_case(1)
        with pytest.raises(ValueError, match="length m=3"):
            build_inequalities(case.bank, [1, 2])

    @pytest.mark.parametrize(
        "code, shape", [([1, 2], r"\(2,\)"), ([[1, 2, 1]], r"\(1, 3\)"), (np.array([[1, 2, 1]]), r"\(1, 3\)")]
    )
    def test_code_is_one_vector(self, code, shape):
        # one length-m code only: a (1, m) matrix is refused, and the shape is reported as given
        with pytest.raises(ValueError, match=rf"^expected a code of length m=3, got shape {shape}$"):
            build_inequalities(get_case(1).bank, code)

    def test_code_range_rejected(self):
        case = get_case(1)
        with pytest.raises(ValueError, match=r"lie in \[1, 2\]"):
            build_inequalities(case.bank, [1, 3, 1])

    @pytest.mark.parametrize("code", [[True, 2, 1], [1.5, 2, 1], [np.int64(1), 2, 1], np.array([1.0, 2.0, 1.0])])
    def test_code_type_rejected(self, code):
        # HashedTemplate's rule: True is not code 1, and a float code is refused, not used as a slice bound
        with pytest.raises(ValueError, match="^codes must be integers$"):
            build_inequalities(get_case(1).bank, code)

    def test_list_code_equals_array_code(self):
        case = get_case(1)
        np.testing.assert_array_equal(
            build_inequalities(case.bank, [1, 2, 1]).normals, build_inequalities(case.bank, case.expected_code).normals
        )

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(2, 6),
    )
    def test_hashed_vector_satisfies_own_system(self, key_seed, x_seed, m, q, d):
        bank = derive_bank(HashKey(seed=key_seed, m=m, q=q, d=d))
        x = np.random.default_rng(x_seed).standard_normal(d)
        system = build_inequalities(bank, hash_rows(x[None, :], bank)[0])
        assert system.satisfied(x)[0]

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
        st.integers(1, 4),
        st.integers(2, 6),
        st.integers(1, 6),
    )
    def test_normals_equal_row_loop(self, key_seed, code_seed, m, q, d):
        bank = derive_bank(HashKey(seed=key_seed, m=m, q=q, d=d))
        code = np.random.default_rng(code_seed).integers(1, q + 1, size=m)
        got = build_inequalities(bank, code).normals
        want = reference_build_inequalities(bank, code)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestInequalitySystem:
    def test_empty_system_accepts_everything(self):
        system = InequalitySystem(normals=np.zeros((0, 3)))
        assert system.n_constraints == 0
        assert system.satisfied(np.zeros((5, 3))).all()

    def test_dimension_mismatch_rejected(self):
        system = InequalitySystem(normals=np.ones((1, 3)))
        with pytest.raises(ValueError, match="dimension 2, expected 3"):
            system.satisfied(np.ones((4, 2)))

    def test_bad_normals_rejected(self):
        with pytest.raises(ValueError, match="must be"):
            InequalitySystem(normals=np.ones(3))


class TestSamplePreimage:
    def test_forged_vector_hashes_to_target_code(self):
        case = get_case(1)
        system = build_inequalities(case.bank, case.expected_code)
        forged = sample_preimage(system, attempts=10**5, seed=0)
        assert forged is not None
        assert system.satisfied(forged)[0]
        np.testing.assert_array_equal(hash_rows(forged[None, :], case.bank)[0], case.expected_code)

    def test_deterministic(self):
        case = get_case(2)
        system = build_inequalities(case.bank, case.expected_code)
        a = sample_preimage(system, attempts=10**4, seed=9)
        b = sample_preimage(system, attempts=10**4, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_contradictory_system_returns_none(self):
        system = InequalitySystem(normals=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sample_preimage(system, attempts=2000, seed=1) is None

    def test_attempts_validated(self):
        system = InequalitySystem(normals=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="attempts"):
            sample_preimage(system, attempts=0, seed=0)


def _boundary_totals(batch):
    return [1, batch - 1, batch, batch + 1, 2 * batch + 3]


# only uniform candidates, never standard-normal ones in practice, satisfy all
# 30 constraints x_i > 0 (a normal candidate does with probability 2^-30)
ORTHANT = InequalitySystem(np.eye(30))
CONTRADICTION = InequalitySystem(np.array([[1.0, 0.0], [-1.0, 0.0]]))


class TestSamplerBatches:
    def test_batch_sizes(self):
        assert PREIMAGE_BATCH == 4096

    @pytest.mark.parametrize("attempts", _boundary_totals(4096))
    @pytest.mark.parametrize("name", ["orthant", "contradiction", "case1"])
    def test_sample_preimage_equals_frozen_loop(self, name, attempts):
        system = {
            "orthant": ORTHANT,
            "contradiction": CONTRADICTION,
            "case1": InequalitySystem(CASE1_NORMALS),
        }[name]
        got = sample_preimage(system, attempts=attempts, seed=17)
        want = reference_sample_preimage(system, attempts, 17, batch_size=4096)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("attempts", _boundary_totals(4096))
    def test_orthant_hit_lands_in_first_uniform_batch(self, attempts):
        got = sample_preimage(ORTHANT, attempts=attempts, seed=17)
        if attempts <= 4096:
            assert got is None
        else:
            first_uniform = np.random.default_rng(np.random.SeedSequence([17, 1])).random(30)
            np.testing.assert_array_equal(got, first_uniform)


class TestHistogramIntersection:
    def test_identical_samples(self):
        scores = [0.1, 0.4, 0.4, 0.9]
        assert histogram_intersection(scores, scores) == pytest.approx(1.0)

    def test_disjoint_samples(self):
        assert histogram_intersection([0.1] * 10, [0.9] * 10) == 0.0

    def test_half_overlap(self):
        a = [0.055, 0.055, 0.555, 0.555]
        b = [0.055, 0.055, 0.955, 0.955]
        assert histogram_intersection(a, b) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            histogram_intersection([], [0.5])

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
    )
    def test_symmetric_and_bounded(self, a, b):
        hi = histogram_intersection(a, b)
        assert 0.0 <= hi <= 1.0 + 1e-12
        assert hi == pytest.approx(histogram_intersection(b, a))


class TestUnlinkability:
    def test_identical_seeds_rejected(self, small_dataset, small_mcc):
        key = HashKey(seed=1, m=8, q=6, d=small_mcc.dim)
        with pytest.raises(ValueError, match="different seeds"):
            unlinkability_experiment(small_dataset, key, key, mcc=small_mcc)

    def test_mismatched_shapes_rejected(self, small_dataset, small_mcc):
        a = HashKey(seed=1, m=8, q=6, d=small_mcc.dim)
        b = HashKey(seed=2, m=9, q=6, d=small_mcc.dim)
        with pytest.raises(ValueError, match=r"share \(m, q, d\)"):
            unlinkability_experiment(small_dataset, a, b, mcc=small_mcc)

    def test_dimension_mismatch_rejected(self, small_dataset, small_mcc):
        a = HashKey(seed=1, m=8, q=6, d=small_mcc.dim + 4)
        b = HashKey(seed=2, m=8, q=6, d=small_mcc.dim + 4)
        with pytest.raises(ValueError, match="does not match bank"):
            unlinkability_experiment(small_dataset, a, b, mcc=small_mcc)

    def test_score_set_sizes(self, small_dataset, small_mcc):
        a = HashKey(seed=1, m=8, q=6, d=small_mcc.dim)
        b = HashKey(seed=2, m=8, q=6, d=small_mcc.dim)
        mated, non_mated = unlinkability_experiment(small_dataset, a, b, mcc=small_mcc)
        assert len(mated) == 5 * 3
        assert len(non_mated) == 5 * 4 // 2
        assert all(0.0 <= s <= 1.0 for s in mated + non_mated)

    def test_packs_templates_once(self, small_dataset, small_mcc, pack_calls):
        a = HashKey(seed=1, m=8, q=6, d=small_mcc.dim)
        b = HashKey(seed=2, m=8, q=6, d=small_mcc.dim)
        unlinkability_experiment(small_dataset, a, b, mcc=small_mcc)
        assert pack_calls == [2 * len(small_dataset)]


class TestRevocability:
    def test_reissuing_the_same_key_is_a_perfect_match(self, small_dataset, small_mcc):
        # a derived bank redraws its matrices on every read, so an equal key
        # must still give equal codes and a perfect cross-key match
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        encoded = encode_dataset(small_dataset, small_mcc)
        first = hash_dataset(encoded, base)
        again = hash_dataset(encoded, HashKey(seed=5, m=8, q=6, d=small_mcc.dim))
        pairs = [(k, k) for k in first]
        assert score_pairs(pairs, first, LgsParams(), hashed_b=again) == [1.0] * len(pairs)

    def test_score_set_sizes(self, small_dataset, small_mcc):
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        mated, genuine, impostor = revocability_experiment(
            small_dataset, base, n_keys=2, seed=31, mcc=small_mcc
        )
        assert len(mated) == 5 * 2
        assert len(genuine) == 5 * 3
        assert len(impostor) == 10

    def test_mated_scores_match_reference(self, small_dataset, small_mcc):
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        mated, _, _ = revocability_experiment(small_dataset, base, n_keys=3, seed=0, mcc=small_mcc)
        under_base = hash_dataset(encode_dataset(small_dataset, small_mcc), base)
        firsts = sorted((t for t in small_dataset if t.sample_id == 1), key=lambda t: t.key)
        want = [
            reference_lgs_match_detail(
                under_base[t.key],
                hash_dataset(
                    encode_dataset([t], small_mcc),
                    HashKey(seed=child_seed(0, finger_index, key_index), m=base.m, q=base.q, d=base.d),
                )[t.key],
                LgsParams(),
                allow_cross_key=True,
            )[0]
            for finger_index, t in enumerate(firsts)
            for key_index in range(3)
        ]
        assert mated == want

    def test_fresh_keys_break_the_match(self, small_dataset, small_mcc):
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        mated, _, _ = revocability_experiment(
            small_dataset, base, n_keys=3, seed=31, mcc=small_mcc
        )
        assert float(np.mean(mated)) < 0.999

    def test_packs_one_finger_at_a_time(self, small_dataset, small_mcc, pack_calls):
        # each finger's base template with its renewals, then the base-key references once
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        revocability_experiment(small_dataset, base, n_keys=4, seed=31, mcc=small_mcc)
        assert pack_calls == [1 + 4] * 5 + [len(small_dataset)]

    def test_n_keys_validated(self, small_dataset, small_mcc):
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim)
        with pytest.raises(ValueError, match="n_keys"):
            revocability_experiment(small_dataset, base, n_keys=0, seed=0, mcc=small_mcc)

    def test_dimension_mismatch_rejected(self, small_dataset, small_mcc):
        base = HashKey(seed=5, m=8, q=6, d=small_mcc.dim + 1)
        with pytest.raises(ValueError, match="does not match bank"):
            revocability_experiment(small_dataset, base, n_keys=1, seed=0, mcc=small_mcc)


def _key(mcc, seed=1):
    return HashKey(seed=seed, m=8, q=6, d=mcc.dim)


PROTOCOL_EXPERIMENTS = {
    "evaluate": lambda data, mcc: run_evaluation(data, _key(mcc), mcc),
    "sweep": lambda data, mcc: sweep(data, [8], [6], trials=1, base_seed=0, mcc=mcc),
    "unlink": lambda data, mcc: unlinkability_experiment(data, _key(mcc, 1), _key(mcc, 2), mcc),
    "revoke": lambda data, mcc: revocability_experiment(data, _key(mcc), n_keys=2, seed=0, mcc=mcc),
}


@pytest.mark.parametrize("shape", ["one-finger", "one-sample"])
@pytest.mark.parametrize("experiment", sorted(PROTOCOL_EXPERIMENTS))
def test_protocol_fails_before_encoding(small_dataset, small_mcc, monkeypatch, experiment, shape):
    finger = small_dataset[0].finger_id
    if shape == "one-finger":
        data = [t for t in small_dataset if t.finger_id == finger]
        message = "protocol needs >= 2 fingers for impostor comparisons"
    else:
        data = [t for t in small_dataset if t.finger_id != finger or t.sample_id == 1]
        message = f"finger {finger} has 1 sample(s); need >= 2"

    def unreachable(*args, **kwargs):
        raise AssertionError("a dataset the protocol cannot score reached encoding or hashing")

    for module in (evaluation, security):
        monkeypatch.setattr(module, "encode_dataset", unreachable)
        monkeypatch.setattr(module, "hash_dataset", unreachable)
    with pytest.raises(ValueError) as info:
        PROTOCOL_EXPERIMENTS[experiment](data, small_mcc)
    assert str(info.value) == message


EMPTY_SYSTEM = InequalitySystem(np.zeros((0, 3)))

COUNTS = {
    "attempts": lambda value, data, mcc: sample_preimage(EMPTY_SYSTEM, attempts=value, seed=0),
    "trials": lambda value, data, mcc: sweep(data, [8], [6], trials=value, base_seed=0, mcc=mcc),
    "n_keys": lambda value, data, mcc: revocability_experiment(data, _key(mcc), n_keys=value, seed=0, mcc=mcc),
}


@pytest.mark.parametrize("value", [2.5, 1.5, True])
@pytest.mark.parametrize("field", sorted(COUNTS))
def test_counts_must_be_integers(small_dataset, small_mcc, field, value):
    # int() would truncate 2.5 to 2, so the run would quietly use a budget the caller never asked for
    with pytest.raises(ValueError) as info:
        COUNTS[field](value, small_dataset, small_mcc)
    assert str(info.value) == f"{field} must be an integer, got {value!r}"
