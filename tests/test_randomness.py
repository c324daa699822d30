import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import giomhash
from giomhash.model import HashKey
from giomhash.randomness import (
    GS_PIVOT_TOL,
    OrthoMatrix,
    bank_matrix,
    child_seed,
    derive_bank,
    gram_schmidt,
    jl_dimension,
    random_ortho,
    random_projection,
    stream,
)


class TestSeededStreams:
    # literals computed with np.random.SeedSequence and default_rng directly,
    # independently of `stream` and `child_seed`
    @pytest.mark.parametrize(
        "entropy,expected",
        [
            ((7, 700, 100, 0), 10248368981111676572),
            ((4, 5, 30, 1), 2088035925727464381),
            ((9, 2, 3), 5658936688388001884),
        ],
    )
    def test_child_seed_golden(self, entropy, expected):
        assert child_seed(*entropy) == expected
        assert child_seed(*(np.int64(e) for e in entropy)) == expected

    def test_stream_golden(self):
        assert stream(5, 3).standard_normal(3).tolist() == [
            -1.7199310891498314,
            0.216305643242891,
            -0.2493740851242899,
        ]
        assert stream(11).random(3).tolist() == [0.12857020276919962, 0.49927786244011496, 0.6014983576233575]
        assert int(stream(2, 0).integers(15, 31)) == 28

    def test_bank_matrix_draws_from_stream(self):
        key = HashKey(seed=5, m=4, q=3, d=1)
        assert bank_matrix(key, 3)[0].tolist() == [-1.7199310891498314, 0.216305643242891, -0.2493740851242899]

    @pytest.mark.parametrize("bad", [1.9, True, np.float64(2.0)])
    def test_non_integer_entropy_rejected(self, bad):
        # int() would truncate 1.9 to 1 and read True as 1, aliasing another stream
        with pytest.raises(ValueError, match="entropy must be an integer"):
            stream(7, bad)
        with pytest.raises(ValueError, match="entropy must be an integer"):
            child_seed(bad, 7)

    def test_fractional_matrix_index_rejected(self):
        key = HashKey(seed=5, m=4, q=3, d=2)
        with pytest.raises(ValueError, match="entropy must be an integer, got 1.5"):
            bank_matrix(key, 1.5)
        with pytest.raises(ValueError, match="entropy must be an integer, got True"):
            bank_matrix(key, True)

    def test_only_randomness_seeds(self):
        # one owner for the seeding rule, so two copies cannot drift apart
        package = Path(giomhash.__file__).parent
        seeding = sorted(
            path.name
            for path in package.rglob("*.py")
            if "SeedSequence" in path.read_text() or "default_rng" in path.read_text()
        )
        assert seeding == ["randomness.py"]


class TestBankDerivation:
    def test_deterministic(self):
        key = HashKey(seed=5, m=3, q=2, d=3)
        a = derive_bank(key)
        b = derive_bank(key)
        np.testing.assert_array_equal(a.matrices, b.matrices)
        assert (a.m, a.d, a.q) == (key.m, key.d, key.q)

    def test_prefix_stable_in_m(self):
        small = derive_bank(HashKey(seed=9, m=3, q=4, d=5))
        large = derive_bank(HashKey(seed=9, m=6, q=4, d=5))
        np.testing.assert_array_equal(large.matrices[:3], small.matrices)

    def test_matrices_come_from_per_index_streams(self):
        key = HashKey(seed=13, m=5, q=3, d=4)
        bank = derive_bank(key)
        for i in range(key.m):
            np.testing.assert_array_equal(bank.matrix(i), bank_matrix(key, i))
            np.testing.assert_array_equal(bank.matrices[i], bank_matrix(key, i))

    def test_derivation_holds_no_matrix(self):
        # a derived bank holds its shape and draw, not its m*d*q entries
        key = HashKey(seed=8, m=200, q=50, d=144)
        tracemalloc.start()
        try:
            bank = derive_bank(key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < key.d * key.q * 8
        assert (bank.m, bank.d, bank.q) == (200, 144, 50)

    def test_distinct_matrices_within_bank(self):
        bank = derive_bank(HashKey(seed=2, m=4, q=3, d=8))
        for i in range(3):
            assert not np.array_equal(bank.matrices[i], bank.matrices[i + 1])

    def test_distinct_seeds_differ(self):
        a = derive_bank(HashKey(seed=1, m=2, q=3, d=4))
        b = derive_bank(HashKey(seed=2, m=2, q=3, d=4))
        assert not np.array_equal(a.matrices, b.matrices)

    def test_bank_matrix_index_bounds(self):
        key = HashKey(seed=1, m=2, q=3, d=4)
        with pytest.raises(ValueError, match="out of range"):
            bank_matrix(key, 2)
        with pytest.raises(ValueError, match="out of range"):
            bank_matrix(key, -1)

    def test_degenerate_q_rejected(self):
        with pytest.raises(ValueError, match="fewer than two candidates"):
            derive_bank(HashKey(seed=1, m=1, q=1, d=3))

    def test_default_size_moments(self):
        # stream matrix by matrix: the full default bank is ~860 MB at once
        key = HashKey(seed=31, m=700, q=100, d=1536)
        n = 0
        total = 0.0
        total_sq = 0.0
        for i in range(key.m):
            mat = bank_matrix(key, i)
            n += mat.size
            total += float(mat.sum())
            total_sq += float((mat * mat).sum())
        mean = total / n
        var = total_sq / n - mean**2
        # 4 sigma bands for the sample mean and variance of n standard normals
        assert abs(mean) < 4.0 / np.sqrt(n)
        assert abs(var - 1.0) < 4.0 * np.sqrt(2.0 / n)


class TestGramSchmidt:
    def test_identity_fixed_point(self):
        result = gram_schmidt(np.eye(4))
        np.testing.assert_allclose(result.entries, np.eye(4), atol=1e-15)

    def test_hand_example(self):
        # columns [1,0] and [1,1] orthonormalize to [1,0] and [0,1]
        result = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(result.entries, np.eye(2), atol=1e-12)

    def test_duplicate_columns_name_offender(self):
        mat = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="column 1"):
            gram_schmidt(mat)

    def test_near_dependent_pivot(self):
        mat = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
        with pytest.raises(ValueError, match="rank deficiency"):
            gram_schmidt(mat)

    def test_too_many_columns(self):
        with pytest.raises(ValueError, match="cannot orthonormalize"):
            gram_schmidt(np.ones((2, 3)))

    @pytest.mark.parametrize("n,k,seed", [(8, 3, 0), (32, 32, 1), (100, 10, 2)])
    def test_orthonormal_output(self, n, k, seed):
        rng = np.random.default_rng(seed)
        result = gram_schmidt(rng.standard_normal((n, k)))
        gram = result.entries.T @ result.entries
        assert np.abs(gram - np.eye(k)).max() < 1e-9

    @pytest.mark.parametrize("n,k,seed", [(16, 4, 3), (50, 7, 4)])
    def test_span_preserved(self, n, k, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, k))
        basis = gram_schmidt(mat).entries
        # every original column reconstructs from the basis
        recon = basis @ (basis.T @ mat)
        np.testing.assert_allclose(recon, mat, atol=1e-9)

    def test_pivot_tolerance_constant(self):
        assert GS_PIVOT_TOL == 1e-10


class TestOrthoMatrix:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            OrthoMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="k <= n"):
            OrthoMatrix(np.ones((2, 3)))

    def test_random_ortho_deterministic(self):
        a = random_ortho(10, 4, seed=6)
        b = random_ortho(10, 4, seed=6)
        np.testing.assert_array_equal(a.entries, b.entries)


class TestRandomProjection:
    def test_identity_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = random_projection(x, OrthoMatrix(np.eye(3)))
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_single_axis_scaling(self):
        # n=4, k=1, basis e1: y = sqrt(4) * x1 = 2 * x1
        basis = OrthoMatrix(np.array([[1.0], [0.0], [0.0], [0.0]]))
        y = random_projection(np.array([3.0, 9.0, 9.0, 9.0]), basis)
        np.testing.assert_allclose(y, [6.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            random_projection(np.ones(3), OrthoMatrix(np.eye(4)))

    @given(st.integers(0, 2**31))
    def test_norm_preserved_full_rank(self, seed):
        # with k = n the scaled projection is an isometry
        rng = np.random.default_rng(seed)
        basis = random_ortho(6, 6, seed=seed % 1000)
        x = rng.standard_normal(6)
        y = random_projection(x, basis)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-9)


class TestJlDimension:
    def test_reference_value(self):
        # 4 ln 50 / (0.5^2/2 - 0.5^3/3) = 187.8..., rounded up
        assert jl_dimension(50, 0.5) == 188

    def test_monotone_in_points(self):
        assert jl_dimension(100, 0.5) > jl_dimension(50, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            jl_dimension(1, 0.5)
        with pytest.raises(ValueError):
            jl_dimension(50, 1.5)

    def test_distance_preservation_small(self):
        # desk-size check of the distortion bound; the full-size run is in
        # the acceptance suite
        rng = np.random.default_rng(12)
        points = rng.standard_normal((20, 256))
        k = jl_dimension(20, 0.5)
        basis = random_ortho(256, min(k, 256), seed=3)
        projected = np.array([random_projection(p, basis) for p in points])
        ok = 0
        pairs = 0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                orig = np.sum((points[i] - points[j]) ** 2)
                proj = np.sum((projected[i] - projected[j]) ** 2)
                pairs += 1
                ok += 0.5 * orig <= proj <= 1.5 * orig
        assert ok / pairs >= 0.99
