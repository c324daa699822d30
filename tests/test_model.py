import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from giomhash.mcc import SynthParams, synth_dataset
from giomhash.randomness import derive_bank
from giomhash.model import (
    TWO_PI,
    GaussianBank,
    HashKey,
    HashedTemplate,
    IntegrityError,
    Minutia,
    MinutiaeTemplate,
    ParseError,
    code_dtype,
    load_hashed,
    load_key,
    load_minutiae,
    save_hashed,
    save_key,
    save_minutiae,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

# file contents no loader can decode: bytes that are not UTF-8, and JSON nested past the parser's recursion limit
UNDECODABLE = [b'\xff\xfe{"q": 5}', b"[" * 200_000 + b"]" * 200_000]


def point(x, y, theta) -> np.ndarray:
    """The one stored row of a template built from one Minutia record."""
    return MinutiaeTemplate("f0", 1, (Minutia(x, y, theta),)).points[0]


class TestMinutia:
    """Minutia is a plain record; the template checks and wraps the points it is given."""

    def test_theta_wrapped_above(self):
        # 7.0 - 2*pi
        assert point(0, 0, 7.0)[2] == pytest.approx(0.7168146928204138, abs=1e-15)

    def test_theta_wrapped_negative(self):
        assert point(0, 0, -0.1)[2] == pytest.approx(TWO_PI - 0.1, abs=1e-15)

    def test_theta_two_pi_wraps_to_zero(self):
        assert point(0, 0, TWO_PI)[2] == 0.0

    def test_theta_tiny_negative_does_not_round_to_two_pi(self):
        assert 0.0 <= point(0, 0, -1e-20)[2] < TWO_PI

    @given(finite_floats)
    def test_theta_always_in_range(self, theta):
        assert 0.0 <= point(0.0, 0.0, theta)[2] < TWO_PI

    def test_coordinates_coerced_to_float(self):
        t = MinutiaeTemplate("f0", 1, (Minutia(1, 2, 0),))
        assert t.points.dtype == np.float64
        np.testing.assert_array_equal(t.points, [[1.0, 2.0, 0.0]])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((math.nan, 3, 1), "x must be a finite real number, got nan"),
            ((0, "3", 1), "y must be a finite real number, got '3'"),
            ((0, 3, True), "theta must be a finite real number, got True"),
            ((0, 3, math.inf), "theta must be a finite real number, got inf"),
            ((None, 3, 1), "x must be a finite real number, got None"),
            ((0, -math.inf, 1), "y must be a finite real number, got -inf"),
            # float() of an int beyond the float range raises OverflowError, not ValueError
            pytest.param((10**400, 1, 1), f"x must be a finite real number, got {10**400}", id="int-beyond-float"),
        ],
    )
    def test_non_real_or_non_finite_fields_rejected(self, fields, message):
        with pytest.raises(ValueError) as got:
            MinutiaeTemplate("f0", 1, (Minutia(1, 2, 0.5), Minutia(*fields)))
        assert str(got.value) == message


class TestMinutiaeTemplate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="must contain >= 1 minutia"):
            MinutiaeTemplate("f0", 1, ())

    def test_non_integer_sample_id_rejected(self):
        with pytest.raises(ValueError) as info:
            MinutiaeTemplate("f0", 1.5, (Minutia(1, 2, 0.5),))
        assert str(info.value) == "sample_id must be an integer, got 1.5"
        assert type(MinutiaeTemplate("f0", np.int64(2), (Minutia(1, 2, 0.5),)).sample_id) is int

    @pytest.mark.parametrize("finger", ["../x", "a/b", "..", ".x", "", "-f", "f 0", "a\\b", 7])
    def test_finger_id_beyond_one_file_name_component_rejected(self, finger):
        with pytest.raises(ValueError, match="finger id must match"):
            MinutiaeTemplate(finger, 1, (Minutia(1, 2, 0.5),))

    def test_plain_finger_ids_accepted(self):
        synth_ids = {t.finger_id for t in synth_dataset(1, SynthParams(fingers=3, samples_per_finger=1))}
        for finger in ["f0000", "F1", "0", "left_index.2", "a-b", *synth_ids]:
            assert MinutiaeTemplate(finger, 1, (Minutia(1, 2, 0.5),)).finger_id == finger

    def test_len_and_key(self):
        t = MinutiaeTemplate("f0", 2, (Minutia(1, 2, 0.5),))
        assert len(t) == 1
        assert t.key == ("f0", 2)

    def test_points_are_one_frozen_copy(self):
        given = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 1.5]])
        t = MinutiaeTemplate("f0", 1, given)
        assert t.points.shape == (2, 3) and t.points.dtype == np.float64
        np.testing.assert_array_equal(t.points, given)
        assert not t.points.flags.writeable and not np.shares_memory(t.points, given)
        with pytest.raises(ValueError):
            t.points[0, 0] = 9.0

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[1, 2, 0], [3, 4, 1]]),
            np.array([[1, 2, 0], [3, 4, 1]], dtype=np.uint8),
            np.array([[1, 2, 0], [3, 4, 1]], dtype=np.float32),
            (Minutia(1, 2, 0), Minutia(3, 4, 1)),
            [[1, 2, 0.0], (np.int64(3), np.float64(4), 1)],
        ],
    )
    def test_integer_and_float_points_accepted(self, points):
        t = MinutiaeTemplate("f0", 1, points)
        assert t == MinutiaeTemplate("f0", 1, (Minutia(1.0, 2.0, 0.0), Minutia(3.0, 4.0, 1.0)))
        assert t != MinutiaeTemplate("f0", 1, (Minutia(1.0, 2.0, 0.0), Minutia(3.0, 4.0, 1.5)))
        assert t != MinutiaeTemplate("f0", 2, points)

    @pytest.mark.parametrize(
        "points, message",
        [
            (np.array([[1.0, 2.0], [3.0, 4.0]]), r"points must have shape \(n, 3\), got \(2, 2\)"),
            ([(1, 2), (3, 4)], r"points must have shape \(n, 3\), got \(2, 2\)"),
            (np.zeros((0, 3)), "template must contain >= 1 minutia"),
            (np.array([[True, False, True]]), "integer or float array, got dtype bool"),
            (np.array([[1.0, 2.0, 0.5]], dtype=object), "integer or float array, got dtype object"),
            (np.array([[1.0, math.nan, 0.5]]), "points must be finite"),
            (np.array([[1.0, 2.0, math.inf]]), "points must be finite"),
            (np.array([[-math.inf, 2.0, 0.5]]), "points must be finite"),
        ],
    )
    def test_malformed_points_rejected(self, points, message):
        with pytest.raises(ValueError, match=message):
            MinutiaeTemplate("f0", 1, points)

    @pytest.mark.parametrize("theta", [-1e-17, -TWO_PI, 0.0, -0.0, 4 * math.pi])
    def test_wrap_is_python_modulo(self, theta):
        expected = float(theta) % TWO_PI
        expected = 0.0 if expected >= TWO_PI else expected
        for points in (np.array([[0.0, 0.0, theta]]), (Minutia(0, 0, theta),)):
            wrapped = MinutiaeTemplate("f0", 1, points).points[0, 2]
            assert wrapped.tobytes() == np.float64(expected).tobytes()


class TestHashKey:
    def test_degenerate_q_message(self):
        with pytest.raises(ValueError, match="argmax over fewer than two candidates is degenerate"):
            HashKey(seed=1, m=1, q=1, d=3)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            HashKey(seed=-1, m=1, q=2, d=3)
        with pytest.raises(ValueError):
            HashKey(seed=0, m=0, q=2, d=3)
        with pytest.raises(ValueError):
            HashKey(seed=0, m=1, q=2, d=0)
        # the fingerprint spells the seed in decimal, so a seed beyond CPython's 4,300 digits is refused at once
        with pytest.raises(ValueError, match="^seed must have at most 4300 decimal digits$"):
            HashKey(seed=10**5000, m=1, q=2, d=3)
        assert len(HashKey(seed=10**4300 - 1, m=1, q=2, d=3).fingerprint()) == 16

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"m": 5.9}, "m must be an integer, got 5.9"),
            ({"seed": 2.0}, "seed must be an integer, got 2.0"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"q": np.bool_(True)}, "q must be an integer, got "),
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"d": None}, "d must be an integer, got None"),
            ({"d": np.float64(4.0)}, "d must be an integer, got "),
        ],
    )
    def test_non_integer_fields_rejected(self, change, message):
        fields = {"seed": 1, "m": 5, "q": 3, "d": 4} | change
        with pytest.raises(ValueError) as info:
            HashKey(**fields)
        assert str(info.value).startswith(message)

    def test_numpy_integers_accepted(self):
        key = HashKey(seed=np.uint64(7), m=np.int32(3), q=np.int64(4), d=np.int8(5))
        assert key == HashKey(seed=7, m=3, q=4, d=5)
        assert all(type(v) is int for v in (key.seed, key.m, key.q, key.d))
        assert key.fingerprint() == HashKey(seed=7, m=3, q=4, d=5).fingerprint()

    def test_fingerprint_stable_and_distinct(self):
        k1 = HashKey(seed=7, m=3, q=4, d=5)
        k2 = HashKey(seed=7, m=3, q=4, d=5)
        k3 = HashKey(seed=8, m=3, q=4, d=5)
        assert k1.fingerprint() == k2.fingerprint()
        assert k1.fingerprint() != k3.fingerprint()
        assert len(k1.fingerprint()) == 16

    def test_repr_hides_seed(self):
        # the seed is the revocable secret; a derived bank's matrix function is bound to the key
        key = HashKey(seed=987654321, m=2, q=3, d=4)
        assert "987654321" not in repr(key)
        assert "987654321" not in repr(derive_bank(key))


class TestGaussianBank:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(m, d, q\)"):
            GaussianBank.of(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            GaussianBank.of(np.zeros((1, 3, 1)))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (1, 0, 2), (1, 3, 1)])
    def test_degenerate_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"degenerate bank shape \(%d, %d, %d\)" % shape):
            GaussianBank(*shape, np.zeros)
        # an int too long for repr is named by its type, not by CPython's digit-limit error
        with pytest.raises(ValueError, match=r"degenerate bank shape \(<int too large to print>, %d, %d\)" % shape[1:]):
            GaussianBank(-(10**5000), *shape[1:], np.zeros)

    @pytest.mark.parametrize("field,shape", [("m", (1.5, 3, 2)), ("d", (1, True, 2)), ("q", (1, 3, 2.0))])
    def test_non_integer_shape_rejected(self, field, shape):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GaussianBank(*shape, np.zeros)

    def test_reads_call_the_matrix_function(self):
        reads = []

        def matrix(i):
            reads.append(i)
            return np.full((3, 2), float(i))

        bank = GaussianBank(np.int64(2), 3, 2, matrix)
        assert (bank.m, bank.d, bank.q) == (2, 3, 2) and type(bank.m) is int
        assert bank.matrices.shape == (2, 3, 2) and not bank.matrices.flags.writeable
        np.testing.assert_array_equal(bank.matrix(1), np.ones((3, 2)))
        assert reads == [0, 1, 0, 1, 1]

    def test_copies_its_input(self):
        mats = np.arange(12, dtype=float).reshape(2, 3, 2)
        bank = GaussianBank.of(mats)
        expected = mats.copy()
        mats[0, 0, 0] = -1.0
        for i in range(2):
            np.testing.assert_array_equal(bank.matrix(i), expected[i])
        np.testing.assert_array_equal(bank.matrices, expected)
        assert not bank.matrix(0).flags.writeable and not bank.matrices.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        mats = np.zeros((2, 3, 2))
        mats[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianBank.of(mats)


class TestHashedTemplate:
    def test_valid(self):
        t = HashedTemplate(np.array([[1, 3], [2, 1]]), q=3, key_fingerprint="ab")
        assert t.n_points == 2 and t.m == 2

    def test_index_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            HashedTemplate(np.array([[0, 1]]), q=3, key_fingerprint="ab")
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            HashedTemplate(np.array([[1, 4]]), q=3, key_fingerprint="ab")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            HashedTemplate(np.array([[1.5]]), q=3, key_fingerprint="ab")

    def test_bool_codes_rejected(self):
        # True would pass as code 1
        with pytest.raises(ValueError, match="codes must be integers"):
            HashedTemplate(np.array([[True, True]]), 2, "k")

    @pytest.mark.parametrize("q", [5.9, 5.0, True, "5"])
    def test_non_integer_q_rejected(self, q):
        with pytest.raises(ValueError) as info:
            HashedTemplate(np.array([[1, 2]]), q=q, key_fingerprint="k")
        assert str(info.value) == f"q must be an integer, got {q!r}"

    @pytest.mark.parametrize("fingerprint", [123, None, b"ab"])
    def test_non_string_fingerprint_rejected(self, fingerprint):
        # a fingerprint of another type would not equal the str it reads back as from its file
        with pytest.raises(ValueError) as info:
            HashedTemplate(np.array([[1, 2]]), q=3, key_fingerprint=fingerprint)
        assert str(info.value) == f"key_fingerprint must be a str, got {fingerprint!r}"

    def test_equality_by_value(self):
        a = HashedTemplate(np.array([[1, 2]]), q=3, key_fingerprint="ab")
        b = HashedTemplate(np.array([[1, 2]]), q=3, key_fingerprint="ab")
        c = HashedTemplate(np.array([[1, 2]]), q=3, key_fingerprint="cd")
        assert a == b and a != c

    def test_writable_codes_copied(self):
        codes = np.array([[1, 2]], dtype=np.int64)
        t = HashedTemplate(codes, q=3, key_fingerprint="ab")
        assert t.codes.dtype == np.uint8
        assert not np.shares_memory(t.codes, codes) and not t.codes.flags.writeable
        codes[0, 0] = 3
        assert t.codes[0, 0] == 1

    def test_read_only_view_of_writable_codes_copied(self):
        codes = np.array([[1, 2]], dtype=np.int64)
        view = codes.view()
        view.flags.writeable = False
        t = HashedTemplate(view, q=3, key_fingerprint="ab")
        assert not np.shares_memory(t.codes, codes)

    def test_frozen_codes_of_another_dtype_copied(self):
        # frozen unsigned codes too wide or too narrow for q are copied into code_dtype(q)
        for dtype, q, held in [(np.uint16, 3, np.uint8), (np.uint8, 300, np.uint16)]:
            codes = np.array([[1, 2], [3, 1]], dtype=dtype)
            codes.flags.writeable = False
            t = HashedTemplate(codes, q=q, key_fingerprint="ab")
            assert t.codes.dtype == held == code_dtype(q) and not np.shares_memory(t.codes, codes)
            assert not t.codes.flags.writeable and t.codes.tolist() == [[1, 2], [3, 1]]

    def test_frozen_int64_view_copied_into_code_dtype(self):
        # a frozen int64 view is range-checked as it is, then copied once into uint8
        codes = np.array([[1, 2], [3, 1], [2, 2]], dtype=np.int64)
        codes.flags.writeable = False
        t = HashedTemplate(codes[1:], q=3, key_fingerprint="ab")
        assert t.codes.dtype == np.uint8 and not np.shares_memory(t.codes, codes)
        assert not t.codes.flags.writeable
        assert t.codes.tolist() == [[3, 1], [2, 2]]

    def test_frozen_narrow_codes_kept_without_copy(self):
        codes = np.array([[1, 2], [3, 1]], dtype=np.uint8)
        codes.flags.writeable = False
        for view in (codes, codes[1:]):
            t = HashedTemplate(view, q=3, key_fingerprint="ab")
            assert t.codes is view and not t.codes.flags.writeable

    def test_writable_codes_copied_in_their_own_dtype(self):
        codes = np.array([[1, 2]], dtype=np.uint8)
        t = HashedTemplate(codes, q=3, key_fingerprint="ab")
        assert t.codes.dtype == np.uint8 and not np.shares_memory(t.codes, codes)
        assert not t.codes.flags.writeable

    @pytest.mark.parametrize("q", [2, 255, 256, 65_535, 65_536, 2**32, 2**63 - 1])
    @pytest.mark.parametrize(
        "make", [list, np.array, lambda rows: np.array(rows, dtype=np.uint64)], ids=["list", "int64", "uint64"]
    )
    def test_codes_held_in_code_dtype(self, q, make):
        rows = [[1, q], [q, 1]]
        t = HashedTemplate(make(rows), q=q, key_fingerprint="ab")
        assert t.codes.dtype == code_dtype(q) == np.min_scalar_type(q)
        assert t.codes.tolist() == rows

    def test_largest_q_held_in_uint64(self):
        q = 2**64 - 1
        t = HashedTemplate(np.array([[1, q]], dtype=np.uint64), q=q, key_fingerprint="ab")
        assert t.codes.dtype == code_dtype(q) == np.uint64 and t.codes.tolist() == [[1, q]]

    @pytest.mark.parametrize("codes", [np.array([[1.0, 2.0]]), [[1.0, 2.0]], np.array([[1, 2]], dtype=np.float32)])
    def test_float_codes_rejected(self, codes):
        # an integral float is not converted: codes come as integers or not at all
        with pytest.raises(ValueError, match="^codes must be integers$"):
            HashedTemplate(codes, q=3, key_fingerprint="ab")

    def test_q_without_an_unsigned_type_rejected(self):
        with pytest.raises(ValueError, match=r"^q must be below 2\^64, got 18446744073709551616$"):
            HashedTemplate([[1, 2]], q=2**64, key_fingerprint="ab")
        with pytest.raises(ValueError, match=r"^q must be below 2\^64"):
            code_dtype(2**64)


class TestMinutiaeIO:
    def test_round_trip(self, tmp_path):
        t = MinutiaeTemplate("f7", 3, (Minutia(1.25, 2.5, 0.125), Minutia(10.0, 0.0, 6.0)))
        path = tmp_path / "t.txt"
        save_minutiae(t, path)
        loaded = load_minutiae(path)
        assert loaded == [t]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 500, allow_nan=False),
                st.floats(0, 500, allow_nan=False),
                st.floats(0, TWO_PI, exclude_max=True, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_lossless(self, tmp_path_factory, triples):
        tmp = tmp_path_factory.mktemp("io")
        t = MinutiaeTemplate("fx", 1, tuple(Minutia(*tr) for tr in triples))
        save_minutiae(t, tmp / "t.txt")
        assert load_minutiae(tmp / "t.txt") == [t]

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match="expected header"):
            load_minutiae(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# finger=f0 sample=1\n1.0 2.0\n")
        with pytest.raises(ParseError, match="bad.txt:2"):
            load_minutiae(path)

    def test_non_numeric_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# finger=f0 sample=1\n1.0 2.0 abc\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_minutiae(path)

    @pytest.mark.parametrize("line", ["nan nan 3.1", "1.0 inf 3.1", "1.0 2.0 -inf"])
    def test_non_finite_value_reports_position(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# finger=f0 sample=1\n1.0 2.0 3.0\n{line}\n")
        with pytest.raises(ParseError) as info:
            load_minutiae(path)
        assert str(info.value) == f"bad.txt:3: non-finite value in {line!r}"

    @pytest.mark.parametrize("finger", ["../escaped", "a/b", "..", ".x"])
    def test_finger_id_beyond_one_file_name_component_rejected(self, tmp_path, finger):
        path = tmp_path / "bad.txt"
        path.write_text(f"# finger={finger} sample=1\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError) as info:
            load_minutiae(path)
        assert str(info.value).startswith("bad.txt: finger id must match")

    def test_empty_template_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# finger=f0 sample=1\n")
        with pytest.raises(ParseError, match="must contain >= 1 minutia"):
            load_minutiae(path)

    def test_out_of_range_theta_warns_and_wraps(self, tmp_path):
        path = tmp_path / "wrap.txt"
        path.write_text("# finger=f0 sample=1\n1.0 2.0 7.0\n")
        with pytest.warns(UserWarning, match="wrapped"):
            (t,) = load_minutiae(path)
        assert t.points[0, 2] == pytest.approx(7.0 - TWO_PI)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\n# finger=f0 sample=1\n\n1.0 2.0 3.0\n\n")
        (t,) = load_minutiae(path)
        assert len(t) == 1

    def test_directory_loads_sorted(self, tmp_path):
        for name, fid in [("b.txt", "f1"), ("a.txt", "f0")]:
            save_minutiae(MinutiaeTemplate(fid, 1, (Minutia(0, 0, 0),)), tmp_path / name)
        loaded = load_minutiae(tmp_path)
        assert [t.finger_id for t in loaded] == ["f0", "f1"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="no .txt templates"):
            load_minutiae(tmp_path)

    @pytest.mark.parametrize(
        "content",
        [b"# finger=f0 sample=1\n\xff 2.0 3.0\n", b"# finger=f0 sample=" + b"9" * 5000 + b"\n1.0 2.0 3.0\n"],
        ids=["not-utf-8", "sample-id-too-long-for-int"],
    )
    def test_unreadable_file_named(self, tmp_path, content):
        (tmp_path / "a.txt").write_text("# finger=f0 sample=1\n1.0 2.0 3.0\n")
        (tmp_path / "b_01.txt").write_bytes(content)
        with pytest.raises(ParseError, match=r"^b_01\.txt: "):
            load_minutiae(tmp_path)


class TestKeyIO:
    def test_round_trip(self, tmp_path):
        key = HashKey(seed=123, m=7, q=9, d=11)
        save_key(key, tmp_path / "key.json")
        assert load_key(tmp_path / "key.json") == key

    def test_missing_field(self, tmp_path):
        (tmp_path / "key.json").write_text(json.dumps({"seed": 1, "m": 2, "q": 3}))
        with pytest.raises(IntegrityError, match="invalid key file"):
            load_key(tmp_path / "key.json")

    def test_invalid_values(self, tmp_path):
        (tmp_path / "key.json").write_text(json.dumps({"seed": 1, "m": 2, "q": 1, "d": 3}))
        with pytest.raises(IntegrityError):
            load_key(tmp_path / "key.json")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"m": 5.9}, "m must be an integer, got 5.9"),
            ({"m": True}, "m must be an integer, got True"),
            ({"q": "3"}, "q must be an integer, got '3'"),
            ({"d": None}, "d must be an integer, got None"),
            ({"seed": 2.0}, "seed must be an integer, got 2.0"),
        ],
    )
    def test_non_integer_fields_rejected(self, tmp_path, change, message):
        payload = {"seed": 1, "m": 5, "q": 4, "d": 3} | change
        (tmp_path / "key.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=r"^key\.json: ") as info:
            load_key(tmp_path / "key.json")
        assert str(info.value).endswith(message)

    def test_non_object_rejected(self, tmp_path):
        (tmp_path / "key.json").write_text("[1, 2, 3, 4]")
        with pytest.raises(IntegrityError, match="invalid key file"):
            load_key(tmp_path / "key.json")

    @pytest.mark.parametrize("content", UNDECODABLE, ids=["not-utf-8", "nested-too-deep"])
    def test_undecodable_file_rejected(self, tmp_path, content):
        (tmp_path / "key.json").write_bytes(content)
        with pytest.raises(IntegrityError, match=r"^key\.json: invalid key file \("):
            load_key(tmp_path / "key.json")


class TestHashedIO:
    def test_round_trip(self, tmp_path):
        t = HashedTemplate(np.array([[1, 5], [3, 2]]), q=5, key_fingerprint="feed")
        save_hashed(t, tmp_path / "h.json")
        assert load_hashed(tmp_path / "h.json") == t

    def test_out_of_range_codes_rejected(self, tmp_path):
        payload = {"q": 3, "m": 2, "key_fingerprint": "x", "codes": [[1, 9]]}
        (tmp_path / "h.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=r"\[1, 3\]"):
            load_hashed(tmp_path / "h.json")

    def test_uint64_codes_beyond_int64_round_trip(self, tmp_path):
        t = HashedTemplate(np.array([[1, 2**63 + 5]], dtype=np.uint64), q=2**63 + 5, key_fingerprint="feed")
        save_hashed(t, tmp_path / "h.json")
        loaded = load_hashed(tmp_path / "h.json")
        assert loaded == t and loaded.codes.dtype == np.uint64
        assert loaded.codes.tolist() == [[1, 2**63 + 5]]

    def test_ragged_rows_rejected(self, tmp_path):
        payload = {"q": 3, "m": 2, "key_fingerprint": "x", "codes": [[1, 2], [1]]}
        (tmp_path / "h.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match="ragged"):
            load_hashed(tmp_path / "h.json")

    def test_inconsistent_m_rejected(self, tmp_path):
        payload = {"q": 3, "m": 5, "key_fingerprint": "x", "codes": [[1, 2]]}
        (tmp_path / "h.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match="declared m=5"):
            load_hashed(tmp_path / "h.json")

    def test_written_as_one_compact_line(self, tmp_path):
        t = HashedTemplate(np.array([[1, 5], [3, 2]]), q=5, key_fingerprint="feed")
        save_hashed(t, tmp_path / "h.json")
        assert (tmp_path / "h.json").read_text() == (
            '{"q": 5, "m": 2, "key_fingerprint": "feed", "codes": [[1, 5], [3, 2]]}\n'
        )

    def test_narrow_codes_written_as_int64_codes(self, tmp_path):
        # hash_rows gives uint8 codes up to q=255; the file must not depend on the type
        codes = np.array([[1, 200], [255, 2]], dtype=np.uint8)
        save_hashed(HashedTemplate(codes, q=255, key_fingerprint="feed"), tmp_path / "narrow.json")
        save_hashed(HashedTemplate(codes.astype(np.int64), q=255, key_fingerprint="feed"), tmp_path / "wide.json")
        assert (tmp_path / "narrow.json").read_bytes() == (tmp_path / "wide.json").read_bytes()

    @pytest.mark.parametrize("q", [5, 300])
    def test_loaded_codes_in_code_dtype(self, tmp_path, q):
        t = HashedTemplate([[1, q], [q, 2]], q=q, key_fingerprint="feed")
        save_hashed(t, tmp_path / "h.json")
        loaded = load_hashed(tmp_path / "h.json")
        assert loaded == t and loaded.codes.dtype == t.codes.dtype == code_dtype(q)

    def test_indented_layout_still_loads(self, tmp_path):
        t = HashedTemplate(np.array([[1, 5], [3, 2]]), q=5, key_fingerprint="feed")
        payload = {"q": 5, "m": 2, "key_fingerprint": "feed", "codes": [[1, 5], [3, 2]]}
        (tmp_path / "h.json").write_text(json.dumps(payload, indent=2) + "\n")
        assert load_hashed(tmp_path / "h.json") == t

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"q": None}, "q must be an integer, got None"),
            ({"q": 5.9}, "q must be an integer, got 5.9"),
            ({"q": True}, "q must be an integer, got True"),
            ({"q": "5"}, "q must be an integer, got '5'"),
            ({"m": None}, "m must be an integer, got None"),
            ({"m": "x"}, "m must be an integer, got 'x'"),
            ({"m": 2.0}, "m must be an integer, got 2.0"),
            ({"codes": [[1, True]]}, "codes must be integers"),
            ({"codes": [[True, True]]}, "codes must be integers"),
            ({"codes": [[1, 2.0]]}, "codes must be integers"),
            ({"codes": [[1, None]]}, "codes must be integers"),
            ({"codes": [1, 2]}, "codes must be a list of rows"),
            ({"codes": {"a": 1}}, "codes must be a list of rows"),
            ({"codes": [[1, 2**70]]}, "code indices must lie in [1, 5]"),
            ({"q": 2**64, "codes": [[1, 2**63]]}, "q must be below 2^64"),
            ({"key_fingerprint": 123}, "key_fingerprint must be a str, got 123"),
            ({"key_fingerprint": None}, "key_fingerprint must be a str, got None"),
            # a code that does not fit code_dtype(q) breaks the index rule, not NumPy's conversion
            ({"codes": [[1, 300]]}, "code indices must lie in [1, 5]"),
            ({"codes": [[1, -1]]}, "code indices must lie in [1, 5]"),
            ({"q": 300, "codes": [[1, 2**64]]}, "code indices must lie in [1, 300]"),
            ({"q": 2**63 + 5, "codes": [[1, 2**63 + 6]]}, f"code indices must lie in [1, {2**63 + 5}]"),
            ({"q": -1}, "q must be >= 2"),
        ],
    )
    def test_malformed_fields_rejected(self, tmp_path, change, message):
        payload = {"q": 5, "m": 2, "key_fingerprint": "x", "codes": [[1, 2]]} | change
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=r"^bad\.json: ") as info:
            load_hashed(tmp_path / "bad.json")
        assert message in str(info.value)

    def test_undecodable_file_rejected(self, tmp_path):
        for content in UNDECODABLE:
            (tmp_path / "bad.json").write_bytes(content)
            with pytest.raises(IntegrityError, match=r"^bad\.json: invalid hashed-template file \("):
                load_hashed(tmp_path / "bad.json")
