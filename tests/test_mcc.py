import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import DENSE_SYNTH
from oracles import oracle_cylinders, reference_encode_cylinders

from giomhash.evaluation import encode_dataset
from giomhash.mcc import (
    MccParams,
    _cell_layout,
    SynthParams,
    encode_cylinders,
    synth_dataset,
    wrapped_angle_distance,
    write_dataset,
)
from giomhash.model import Minutia, MinutiaeTemplate, _is_frozen, load_minutiae


def template_from(tuples, finger="f0", sample=1):
    return MinutiaeTemplate(finger, sample, tuple(Minutia(*t) for t in tuples))


# radius 100 with ns 6 / nd 4 (d=144), the CLI default (d=1536) and ns 9 / nd 5 (d=405)
ENCODERS = (MccParams(radius=100.0, ns=6, nd=4), MccParams(), MccParams(radius=100.0, ns=9, nd=5))
# directions at and next to the wrap, before MinutiaeTemplate reduces them into [0, 2*pi)
EDGE_ANGLES = (0.0, 5e-324, 1e-15, -1e-17, 2 * math.pi - 1e-15, math.nextafter(2 * math.pi, 0.0), 2 * math.pi)


@st.composite
def cylinder_case(draw):
    """A template of 1-300 minutiae, some coincident and some at the angle wrap, and an encoder."""
    params = draw(st.sampled_from(ENCODERS))
    # the default encoder's (n, 256, n) temporaries reach about 750 MB at 300 minutiae
    n = draw(st.integers(1, 100 if params.dim == 1536 else 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = draw(st.sampled_from([40.0, 300.0]))
    points = np.column_stack([rng.uniform(0, field, (n, 2)), rng.uniform(0, 2 * math.pi, n)])
    index = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=4)):
        points[dst, :2] = points[src, :2]
    for row, angle in draw(st.lists(st.tuples(index, st.sampled_from(EDGE_ANGLES)), max_size=4)):
        points[row, 2] = angle
    return MinutiaeTemplate("f0", 1, points), params


class TestMccParams:
    def test_default_dimension(self):
        assert MccParams().dim == 16 * 16 * 6 == 1536

    def test_sigma_s_defaults_to_radius_fraction(self):
        assert MccParams(radius=75.0).sigma_s == pytest.approx(10.0)

    def test_explicit_sigma_s_kept(self):
        assert MccParams(radius=75.0, sigma_s=3.0).sigma_s == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MccParams(radius=0.0)
        with pytest.raises(ValueError):
            MccParams(ns=1)
        with pytest.raises(ValueError):
            MccParams(nd=0)
        with pytest.raises(ValueError):
            MccParams(sigma_d=0.0)

    @pytest.mark.parametrize(
        "change, message",
        [({"ns": 6.9}, "ns must be an integer, got 6.9"), ({"nd": True}, "nd must be an integer, got True")],
    )
    def test_non_integer_counts_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            MccParams(**change)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"radius": "70"}, "radius must be a finite real number, got '70'"),
            ({"radius": math.inf}, "radius must be a finite real number, got inf"),
            ({"sigma_s": math.nan}, "sigma_s must be a finite real number, got nan"),
            ({"sigma_d": True}, "sigma_d must be a finite real number, got True"),
            pytest.param(
                {"radius": 10**400}, f"radius must be a finite real number, got {10**400}", id="int-beyond-float"
            ),
            pytest.param(
                {"radius": 10**5000},
                "radius must be a finite real number, got <int too large to print>",
                id="int-beyond-repr",
            ),
        ],
    )
    def test_non_real_or_non_finite_spreads_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            MccParams(**change)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sigma_s": -1.0}, "sigma_s must be positive, got -1.0"),
            ({"sigma_d": 0}, "sigma_d must be positive, got 0.0"),
        ],
    )
    def test_non_positive_spread_named_with_value(self, change, message):
        with pytest.raises(ValueError) as info:
            MccParams(**change)
        assert str(info.value) == message


class TestWrappedAngle:
    def test_symmetric_values(self):
        assert wrapped_angle_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_range_and_symmetry(self, a, b):
        d = float(wrapped_angle_distance(a, b))
        assert 0.0 <= d <= math.pi + 1e-12
        assert d == pytest.approx(float(wrapped_angle_distance(b, a)), abs=1e-12)


class TestEncodeCylinders:
    def test_isolated_minutia_all_zero(self, small_mcc):
        t = template_from([(100.0, 100.0, 1.0)])
        c = encode_cylinders(t, small_mcc)
        assert c.shape == (1, small_mcc.dim)
        np.testing.assert_array_equal(c, 0.0)

    def test_far_apart_minutiae_all_zero(self, small_mcc):
        t = template_from([(0.0, 0.0, 1.0), (5000.0, 5000.0, 2.0)])
        c = encode_cylinders(t, small_mcc)
        np.testing.assert_array_equal(c, 0.0)

    def test_deterministic(self, small_mcc, small_dataset):
        a = encode_cylinders(small_dataset[0], small_mcc)
        b = encode_cylinders(small_dataset[0], small_mcc)
        np.testing.assert_array_equal(a, b, strict=True)

    def test_matches_loop_oracle(self, small_mcc):
        rng = np.random.default_rng(33)
        pts = [(float(x), float(y), float(t)) for x, y, t in
               zip(rng.uniform(0, 150, 4), rng.uniform(0, 150, 4), rng.uniform(0, 2 * math.pi, 4))]
        t = template_from(pts)
        got = encode_cylinders(t, small_mcc)
        expected = np.array(oracle_cylinders(t, small_mcc))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rigid_invariance(self, small_mcc):
        rng = np.random.default_rng(71)
        pts = [(float(x), float(y), float(t)) for x, y, t in
               zip(rng.uniform(0, 120, 6), rng.uniform(0, 120, 6), rng.uniform(0, 2 * math.pi, 6))]
        base = encode_cylinders(template_from(pts), small_mcc)

        angle = 1.234
        dx, dy = 50.0, -30.0
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        moved = [
            (cos_a * x - sin_a * y + dx, sin_a * x + cos_a * y + dy, (t + angle) % (2 * math.pi))
            for x, y, t in pts
        ]
        transformed = encode_cylinders(template_from(moved), small_mcc)
        np.testing.assert_allclose(transformed, base, atol=1e-9)

    def test_values_clamped_to_one(self):
        # pile neighbors onto one cell center with a wide angular kernel so
        # the raw sum overflows; the cell must clamp at exactly 1
        params = MccParams(radius=50.0, ns=4, nd=2, sigma_d=10.0)
        pts = [(10.0, 10.0, 0.0)] + [(22.5, 22.5, 0.0)] * 8
        c = encode_cylinders(template_from(pts), params)
        assert c.max() == 1.0

    def test_out_of_circle_cells_zero(self, small_mcc):
        # corner cells lie outside the inscribed circle for ns >= 2
        t = template_from([(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)])
        c = encode_cylinders(t, small_mcc).reshape(
            2, small_mcc.ns, small_mcc.ns, small_mcc.nd
        )
        corner = math.hypot(
            small_mcc.radius * (1 - 1 / small_mcc.ns), small_mcc.radius * (1 - 1 / small_mcc.ns)
        )
        assert corner > small_mcc.radius  # geometry sanity
        assert np.all(c[:, 0, 0, :] == 0.0)
        assert np.all(c[:, -1, -1, :] == 0.0)

    def test_range_invariant(self, small_mcc, small_dataset):
        for template in small_dataset[:4]:
            v = encode_cylinders(template, small_mcc)
            assert v.dtype == np.float64 and v.shape == (len(template), small_mcc.dim)
            assert np.isfinite(v).all()
            assert v.min() >= 0.0 and v.max() <= 1.0
            assert _is_frozen(v)
            with pytest.raises(ValueError):
                v[0, 0] = 0.5

    @given(cylinder_case())
    def test_bits_equal_frozen_encoder(self, case):
        template, params = case
        got = encode_cylinders(template, params)
        assert got.tobytes() == reference_encode_cylinders(template, params).tobytes()

    def test_layout_read_only_and_built_once_per_params(self, small_mcc, small_dataset):
        _cell_layout.cache_clear()
        encode_dataset(small_dataset, small_mcc)
        encode_dataset(small_dataset, MccParams(radius=100.0, ns=6, nd=4))
        assert _cell_layout.cache_info().misses == 1
        for arr in _cell_layout(small_mcc):
            assert _is_frozen(arr)


class TestSynthParams:
    def test_range_order_enforced(self):
        with pytest.raises(ValueError, match="min_minutiae 10 > max_minutiae 5"):
            SynthParams(min_minutiae=10, max_minutiae=5)
        with pytest.raises(ValueError, match="min_minutiae 31 > max_minutiae 30"):
            SynthParams(min_minutiae=31)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthParams(fingers=0)
        with pytest.raises(ValueError):
            SynthParams(drop_rate=1.5)
        with pytest.raises(ValueError, match="min_minutiae must be >= 1, got 0"):
            SynthParams(min_minutiae=0, max_minutiae=5)
        with pytest.raises(ValueError):
            SynthParams(jitter_pos=-1.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"fingers": 2.5}, "fingers must be an integer, got 2.5"),
            ({"samples_per_finger": 3.0}, "samples_per_finger must be an integer, got 3.0"),
            ({"min_minutiae": 4.5}, "min_minutiae must be an integer, got 4.5"),
            ({"max_minutiae": "9"}, "max_minutiae must be an integer, got '9'"),
        ],
    )
    def test_non_integer_counts_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            SynthParams(**change)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"jitter_pos": math.nan}, "jitter_pos must be a finite real number, got nan"),
            ({"jitter_theta": "0.1"}, "jitter_theta must be a finite real number, got '0.1'"),
            ({"drop_rate": True}, "drop_rate must be a finite real number, got True"),
            ({"field_size": math.inf}, "field_size must be a finite real number, got inf"),
        ],
    )
    def test_non_real_or_non_finite_values_rejected(self, change, message):
        with pytest.raises(ValueError) as info:
            SynthParams(**change)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"jitter_pos": -1.0}, "jitter_pos must be >= 0, got -1.0"),
            ({"jitter_theta": -0.5}, "jitter_theta must be >= 0, got -0.5"),
            ({"fingers": 0}, "fingers must be >= 1, got 0"),
            ({"samples_per_finger": -2}, "samples_per_finger must be >= 1, got -2"),
        ],
    )
    def test_out_of_range_value_named_with_value(self, change, message):
        with pytest.raises(ValueError) as info:
            SynthParams(**change)
        assert str(info.value) == message

    def test_numpy_counts_stored_as_int(self):
        p = SynthParams(fingers=np.int64(3), samples_per_finger=np.int32(2), min_minutiae=np.int8(4), max_minutiae=6)
        counts = (p.fingers, p.samples_per_finger, p.min_minutiae, p.max_minutiae)
        assert counts == (3, 2, 4, 6)
        assert all(type(v) is int for v in counts)


class TestSynthDataset:
    def test_shape_and_ids(self):
        params = SynthParams(fingers=3, samples_per_finger=4, min_minutiae=5, max_minutiae=9)
        data = synth_dataset(1, params)
        assert len(data) == 12
        assert {t.finger_id for t in data} == {"f0000", "f0001", "f0002"}
        for t in data:
            assert t.sample_id in {1, 2, 3, 4}
            assert 1 <= len(t) <= 9

    def test_deterministic(self):
        params = SynthParams(fingers=2, samples_per_finger=2, min_minutiae=4, max_minutiae=6)
        assert synth_dataset(9, params) == synth_dataset(9, params)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        # int() used to read both as seed 1
        params = SynthParams(fingers=1, samples_per_finger=1, min_minutiae=2, max_minutiae=3)
        with pytest.raises(ValueError, match=f"entropy must be an integer, got {seed!r}"):
            synth_dataset(seed, params)

    def test_finger_streams_stable_under_more_fingers(self):
        small = synth_dataset(3, SynthParams(fingers=2, samples_per_finger=2, min_minutiae=4, max_minutiae=6))
        large = synth_dataset(3, SynthParams(fingers=4, samples_per_finger=2, min_minutiae=4, max_minutiae=6))
        assert large[: len(small)] == small

    def test_no_jitter_no_drop_copies_master(self):
        params = SynthParams(
            fingers=1, samples_per_finger=3, min_minutiae=5, max_minutiae=5,
            jitter_pos=0.0, jitter_theta=0.0, drop_rate=0.0,
        )
        s1, s2, s3 = synth_dataset(4, params)
        np.testing.assert_array_equal(s1.points, s2.points)
        np.testing.assert_array_equal(s1.points, s3.points)

    def test_total_drop_rejected(self):
        params = SynthParams(fingers=1, samples_per_finger=1, min_minutiae=2, max_minutiae=3, drop_rate=1.0)
        with pytest.raises(ValueError, match="drop_rate"):
            synth_dataset(5, params)

    def test_angles_wrapped(self):
        params = SynthParams(fingers=2, samples_per_finger=2, min_minutiae=4, max_minutiae=6, jitter_theta=2.0)
        data = synth_dataset(6, params)
        for t in data:
            assert ((0.0 <= t.points[:, 2]) & (t.points[:, 2] < 2 * math.pi)).all()

    @pytest.mark.parametrize(
        "seed, params, sha256",
        [
            pytest.param(7, SynthParams(), "1cf23a1c86da413d41ca12a36506e7052980d209abbe6095acaf40e87399b1f3",
                         id="defaults"),
            # the 100 x 8 data of CI's memory gate and of ROADMAP's Baseline
            pytest.param(7, SynthParams(fingers=100, samples_per_finger=8),
                         "2c6e3203da02842e9dd5143f297acbdcfc708ee4ae5845760a4f3dbf1c1dbff3", id="100x8"),
            pytest.param(424, SynthParams(fingers=5, samples_per_finger=3, **DENSE_SYNTH),
                         "3d38456f734c8758235ed795ff187e32da875c3b39469010cdeb98035c25b1a4", id="dense"),
        ],
    )
    def test_points_pinned(self, seed, params, sha256):
        # every dataset the suite and the Baseline build on, bit for bit: new fields must leave them alone
        digest = hashlib.sha256()
        for t in synth_dataset(seed, params):
            digest.update(repr(t.key).encode())
            digest.update(t.points.tobytes())
        assert digest.hexdigest() == sha256

    def test_positions_clipped_to_field(self):
        params = SynthParams(fingers=2, samples_per_finger=3, min_minutiae=5, max_minutiae=8,
                             jitter_pos=100.0, field_size=50.0)
        for t in synth_dataset(7, params):
            assert ((0.0 <= t.points[:, :2]) & (t.points[:, :2] <= 50.0)).all()


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        params = SynthParams(fingers=2, samples_per_finger=2, min_minutiae=3, max_minutiae=5)
        data = synth_dataset(11, params)
        paths = write_dataset(data, tmp_path)
        assert len(paths) == 4
        assert load_minutiae(tmp_path) == data
