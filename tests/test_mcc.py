import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import oracle_cylinders

from giomhash.mcc import (
    MccParams,
    SynthParams,
    encode_cylinders,
    synth_dataset,
    wrapped_angle_distance,
    write_dataset,
)
from giomhash.model import Minutia, MinutiaeTemplate, _is_frozen, load_minutiae


def template_from(tuples, finger="f0", sample=1):
    return MinutiaeTemplate(finger, sample, tuple(Minutia(*t) for t in tuples))


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
        ],
    )
    def test_non_real_or_non_finite_spreads_rejected(self, change, message):
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


class TestSynthParams:
    def test_range_order_enforced(self):
        with pytest.raises(ValueError, match="min 10 > max 5"):
            SynthParams(minutiae_range=(10, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthParams(fingers=0)
        with pytest.raises(ValueError):
            SynthParams(drop_rate=1.5)
        with pytest.raises(ValueError):
            SynthParams(minutiae_range=(0, 5))
        with pytest.raises(ValueError):
            SynthParams(jitter_pos=-1.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"fingers": 2.5}, "fingers must be an integer, got 2.5"),
            ({"samples_per_finger": 3.0}, "samples_per_finger must be an integer, got 3.0"),
            ({"minutiae_range": (4.5, 9)}, "minutiae_range must be an integer, got 4.5"),
            ({"minutiae_range": (4, "9")}, "minutiae_range must be an integer, got '9'"),
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

    def test_numpy_counts_stored_as_int(self):
        p = SynthParams(fingers=np.int64(3), samples_per_finger=np.int32(2), minutiae_range=(np.int8(4), 6))
        assert (p.fingers, p.samples_per_finger, p.minutiae_range) == (3, 2, (4, 6))
        assert all(type(v) is int for v in (p.fingers, p.samples_per_finger, *p.minutiae_range))


class TestSynthDataset:
    def test_shape_and_ids(self):
        params = SynthParams(fingers=3, samples_per_finger=4, minutiae_range=(5, 9))
        data = synth_dataset(1, params)
        assert len(data) == 12
        assert {t.finger_id for t in data} == {"f0000", "f0001", "f0002"}
        for t in data:
            assert t.sample_id in {1, 2, 3, 4}
            assert 1 <= len(t) <= 9

    def test_deterministic(self):
        params = SynthParams(fingers=2, samples_per_finger=2, minutiae_range=(4, 6))
        assert synth_dataset(9, params) == synth_dataset(9, params)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        # int() used to read both as seed 1
        params = SynthParams(fingers=1, samples_per_finger=1, minutiae_range=(2, 3))
        with pytest.raises(ValueError, match=f"entropy must be an integer, got {seed!r}"):
            synth_dataset(seed, params)

    def test_finger_streams_stable_under_more_fingers(self):
        small = synth_dataset(3, SynthParams(fingers=2, samples_per_finger=2, minutiae_range=(4, 6)))
        large = synth_dataset(3, SynthParams(fingers=4, samples_per_finger=2, minutiae_range=(4, 6)))
        assert large[: len(small)] == small

    def test_no_jitter_no_drop_copies_master(self):
        params = SynthParams(
            fingers=1, samples_per_finger=3, minutiae_range=(5, 5),
            jitter_pos=0.0, jitter_theta=0.0, drop_rate=0.0,
        )
        s1, s2, s3 = synth_dataset(4, params)
        assert s1.points == s2.points == s3.points

    def test_total_drop_rejected(self):
        params = SynthParams(fingers=1, samples_per_finger=1, minutiae_range=(2, 3), drop_rate=1.0)
        with pytest.raises(ValueError, match="drop_rate"):
            synth_dataset(5, params)

    def test_angles_wrapped(self):
        data = synth_dataset(6, SynthParams(fingers=2, samples_per_finger=2, minutiae_range=(4, 6), jitter_theta=2.0))
        for t in data:
            for p in t.points:
                assert 0.0 <= p.theta < 2 * math.pi

    def test_positions_clipped_to_field(self):
        params = SynthParams(fingers=2, samples_per_finger=3, minutiae_range=(5, 8),
                             jitter_pos=100.0, field_size=50.0)
        for t in synth_dataset(7, params):
            for p in t.points:
                assert 0.0 <= p.x <= 50.0 and 0.0 <= p.y <= 50.0


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        params = SynthParams(fingers=2, samples_per_finger=2, minutiae_range=(3, 5))
        data = synth_dataset(11, params)
        paths = write_dataset(data, tmp_path)
        assert len(paths) == 4
        assert load_minutiae(tmp_path) == data
