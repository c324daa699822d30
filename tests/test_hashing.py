import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import oracle_hash

from giomhash.cases import get_case, square_case_region
from giomhash.evaluation import EncodedDataset, hash_dataset
from giomhash.hashing import _ROW_CHUNK, _block_matrices, hash_rows
from giomhash.model import GaussianBank, HashKey
from giomhash.randomness import derive_bank


@pytest.fixture(scope="module")
def square_case():
    return get_case(1)


@pytest.fixture(scope="module")
def under_case():
    return get_case(2)


class TestWorkedExamples:
    def test_square_case_projections(self, square_case):
        proj = square_case.vector @ square_case.bank.matrices
        np.testing.assert_allclose(proj, square_case.expected_projections, atol=1e-12)

    def test_square_case_code(self, square_case):
        np.testing.assert_array_equal(
            hash_rows(square_case.vector[None, :], square_case.bank), [[1, 2, 1]]
        )

    def test_underdetermined_case_code(self, under_case):
        np.testing.assert_array_equal(hash_rows(under_case.vector[None, :], under_case.bank), [[1, 2]])

    def test_square_case_region_contains_vector(self, square_case):
        assert square_case_region(square_case.vector[None, :])[0]


class TestGiomHash:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        bank = derive_bank(HashKey(seed=3, m=4, q=5, d=6))
        rows = rng.random((3, 6))
        expected = [oracle_hash(row, bank.matrices) for row in rows]
        np.testing.assert_array_equal(hash_rows(rows, bank), expected)

    def test_cylinder_set_entry_point(self):
        key = HashKey(seed=3, m=4, q=5, d=6)
        (hashed,) = hash_dataset(EncodedDataset(np.full((2, 6), 0.5), {("f0", 1): slice(0, 2)}), key).values()
        assert hashed.codes.shape == (2, 4)
        assert hashed.q == 5
        assert hashed.key_fingerprint == key.fingerprint()

    def test_iom_equals_single_row_giom(self):
        # Jin et al.'s IoM code of one fixed vector is the one-row gIoM code
        rng = np.random.default_rng(8)
        bank = derive_bank(HashKey(seed=11, m=6, q=4, d=5))
        x = rng.random(5)
        np.testing.assert_array_equal(hash_rows(x[None, :], bank), [oracle_hash(x, bank.matrices)])

    def test_indices_in_range(self):
        rng = np.random.default_rng(2)
        bank = derive_bank(HashKey(seed=4, m=10, q=7, d=8))
        codes = hash_rows(rng.standard_normal((20, 8)), bank)
        assert codes.min() >= 1 and codes.max() <= 7

    def test_deterministic(self):
        bank = derive_bank(HashKey(seed=21, m=5, q=6, d=7))
        x = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(hash_rows(x[None, :], bank), hash_rows(x[None, :], bank))

    @given(st.integers(0, 10_000), st.floats(1e-6, 10.0, allow_nan=False))
    def test_positive_scale_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        bank = derive_bank(HashKey(seed=seed, m=3, q=4, d=5))
        x = rng.standard_normal(5)
        np.testing.assert_array_equal(hash_rows(x[None, :], bank), hash_rows(alpha * x[None, :], bank))

    def test_tie_breaks_to_smallest_index(self):
        # identical columns project identically; the first must win
        mats = np.ones((2, 3, 4))
        bank = GaussianBank.of(mats)
        np.testing.assert_array_equal(hash_rows(np.array([[0.2, 0.5, 0.3]]), bank), [[1, 1]])

    def test_dominant_column_forced(self):
        mats = np.zeros((1, 3, 4))
        mats[0, :, 2] = 1.0
        bank = GaussianBank.of(mats)
        np.testing.assert_array_equal(hash_rows(np.array([[0.1, 0.2, 0.3]]), bank), [[3]])

    def test_dimension_mismatch(self):
        bank = derive_bank(HashKey(seed=1, m=2, q=3, d=4))
        with pytest.raises(ValueError, match="does not match bank"):
            hash_rows(np.ones((1, 5)), bank)

    def test_non_finite_rejected(self):
        bank = derive_bank(HashKey(seed=1, m=2, q=3, d=4))
        with pytest.raises(ValueError, match="finite"):
            hash_rows(np.array([[1.0, np.nan, 0.0, 0.0]]), bank)


def _per_matrix_codes(rows, bank):
    return np.stack(
        [np.argmax(rows @ bank.matrix(i), axis=1) + 1 for i in range(bank.m)], axis=1
    )


class TestBlockedKernel:
    """hash_rows walks 128-row chunks and blocks of whole matrices; cross every edge."""

    @pytest.mark.parametrize("q", [2, 100])
    @pytest.mark.parametrize("n", [1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 300])
    @pytest.mark.parametrize("edge", range(5), ids=["m=1", "m=B-1", "m=B", "m=B+1", "m=2B+3"])
    def test_matches_per_matrix_argmax(self, q, n, edge):
        b = _block_matrices(q)
        m = [1, b - 1, b, b + 1, 2 * b + 3][edge]
        rng = np.random.default_rng([q, n, m])
        bank = GaussianBank.of(rng.standard_normal((m, 6, q)))
        rows = rng.random((n, 6))
        codes = hash_rows(rows, bank)
        assert codes.shape == (n, m) and codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, _per_matrix_codes(rows, bank))
        if n * m * q <= 20_000:
            expected = [oracle_hash(row, bank.matrices.tolist()) for row in rows]
            np.testing.assert_array_equal(codes, expected)

    @pytest.mark.parametrize("q, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_codes_take_the_narrowest_type_that_holds_q(self, q, dtype):
        # the last column always wins, so every code is q itself: codes are
        # 1-based, and a type sized for q - 1 would wrap at q=256
        mats = np.zeros((3, 2, q))
        mats[:, :, -1] = 1.0
        codes = hash_rows(np.ones((4, 2)), GaussianBank.of(mats))
        assert codes.dtype == dtype
        np.testing.assert_array_equal(codes, np.full((4, 3), q))

    def test_ties_at_block_edge_break_to_smallest_index(self):
        # dyadic rows and integer columns make every projection exact, so the
        # duplicated winning columns tie bit for bit
        q = 100
        b = _block_matrices(q)
        m = 2 * b + 3
        rng = np.random.default_rng(12)
        mats = rng.integers(-4, 5, size=(m, 6, q)).astype(float)
        winners = {b - 1: (90, 10), b: (99, 0), b + 1: (50, 51)}
        for i, cols in winners.items():
            mats[i][:, list(cols)] = 64.0
        bank = GaussianBank.of(mats)
        rows = rng.integers(1, 8, size=(_ROW_CHUNK + 5, 6)) / 8.0
        codes = hash_rows(rows, bank)
        for i, cols in winners.items():
            assert (codes[:, i] == min(cols) + 1).all()
        np.testing.assert_array_equal(codes, _per_matrix_codes(rows, bank))

    def test_peak_memory_independent_of_row_count(self):
        bank = derive_bank(HashKey(seed=8, m=100, q=100, d=32))
        rng = np.random.default_rng(3)
        peaks = {}
        for n in (512, 4096):
            rows = rng.random((n, bank.d))
            tracemalloc.start()
            try:
                hash_rows(rows, bank)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # uint8 codes at q=100
        output_growth = (4096 - 512) * bank.m
        assert peaks[4096] - peaks[512] <= output_growth + (1 << 20)

    def test_finiteness_check_holds_no_row_mask(self):
        # d=1536, m=1, q=2: the block and the codes are tiny, so an (N, d)
        # bool mask of the rows, an eighth of their bytes, would dominate
        rows = np.random.default_rng(7).random((4000, 1536))
        bank = derive_bank(HashKey(seed=1, m=1, q=2, d=rows.shape[1]))
        tracemalloc.start()
        try:
            codes = hash_rows(rows, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - codes.nbytes) / rows.nbytes <= 0.02

    def test_derived_bank_codes_equal_stored_bank_codes(self):
        # more than one row chunk and a partial last block of matrices
        q = 100
        key = HashKey(seed=6, m=2 * _block_matrices(q) + 5, q=q, d=12)
        derived = derive_bank(key)
        stored = GaussianBank.of(derived.matrices)
        rows = np.random.default_rng(4).random((2 * _ROW_CHUNK + 44, key.d))
        codes = hash_rows(rows, derived)
        np.testing.assert_array_equal(codes, hash_rows(rows, stored))
        np.testing.assert_array_equal(codes, _per_matrix_codes(rows, stored))

    def test_peak_memory_independent_of_bank_size(self):
        # the bank (32 and 64 MiB) dwarfs the rows and codes; only one block
        # of matrices and one chunk's projection may be held besides the codes
        d, q = 256, 64
        k = _block_matrices(q)
        rows = np.random.default_rng(5).random((300, d))
        for m in (256, 512):
            tracemalloc.start()
            try:
                codes = hash_rows(rows, derive_bank(HashKey(seed=9, m=m, q=q, d=d)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block, projection = d * k * q * 8, _ROW_CHUNK * k * q * 8
            assert peak - codes.nbytes <= block + projection + (1 << 20), m
