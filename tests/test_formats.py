"""Byte-for-byte pins of the text files: report JSON, CSV line ends, float spelling and minutiae text.

Every input is built from literals, so no BLAS rounding enters the expected text.
"""

import csv
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from giomhash import cli
from giomhash.evaluation import EvalReport, SweepResult, compute_eer, json_text, write_sweep_csv
from giomhash.model import MinutiaeTemplate, load_minutiae, save_minutiae


def hand_report():
    return EvalReport(
        genuine_scores=(0.75, 0.5),
        impostor_scores=(0.25, 0.5),
        config={"seed": 3, "m": 2, "lgs": {"mu_p": 20.0, "greedy_unique": True}, "data": "x"},
    )


def test_report_json_text():
    assert hand_report().to_json() == (
        "{\n"
        '  "config": {\n'
        '    "data": "x",\n'
        '    "lgs": {\n'
        '      "greedy_unique": true,\n'
        '      "mu_p": 20.0\n'
        "    },\n"
        '    "m": 2,\n'
        '    "seed": 3\n'
        "  },\n"
        '  "eer": 0.25,\n'
        '  "genuine_scores": [\n'
        "    0.75,\n"
        "    0.5\n"
        "  ],\n"
        '  "impostor_scores": [\n'
        "    0.25,\n"
        "    0.5\n"
        "  ]\n"
        "}\n"
    )


def test_report_save_writes_json_text(tmp_path):
    hand_report().save(tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == hand_report().to_json().encode()


# NaN, both infinities, -0.0, subnormals and np.float64 values (a float subclass that reprs otherwise)
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]),
    st.floats().map(np.float64),
)
json_scalars = st.none() | st.booleans() | st.integers() | st.text() | json_floats


def json_containers(children):
    return (
        st.lists(json_floats)
        | st.lists(json_floats).map(tuple)
        | st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children)
    )


@given(st.recursive(json_scalars, json_containers, max_leaves=40))
def test_json_text_equals_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# a report's scores are finite: -0.0, subnormals and np.float64 values, but no NaN or infinity
score_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@given(st.lists(score_floats, min_size=1, max_size=30), st.lists(score_floats, min_size=1, max_size=30))
def test_report_files_equal_json_and_csv_writer(tmp_path_factory, genuine, impostor):
    report = EvalReport(genuine, impostor, {"seed": 1})
    eer, roc = compute_eer(genuine, impostor)
    payload = {
        "config": {"seed": 1},
        "eer": eer,
        "genuine_scores": [float(s) for s in genuine],
        "impostor_scores": [float(s) for s in impostor],
    }
    assert report.to_json() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["threshold", "fmr", "fnmr"])
    writer.writerows(roc)
    path = tmp_path_factory.mktemp("roc") / "roc.csv"
    report.write_roc_csv(path)
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize(
    "genuine, impostor, message",
    [
        (["0.9", True], [0.5], "genuine_scores must be a finite real number, got '0.9'"),
        ([0.9, True], [0.5], "genuine_scores must be a finite real number, got True"),
        ([0.9], [0.5, math.nan], "impostor_scores must be a finite real number, got nan"),
        ([math.inf], [0.5], "genuine_scores must be a finite real number, got inf"),
        ([0.9], [np.float64(-np.inf)], "impostor_scores must be a finite real number, got "),
        ([0.9], [None], "impostor_scores must be a finite real number, got None"),
    ],
    ids=["str", "bool", "nan", "inf", "numpy-inf", "none"],
)
def test_report_rejects_non_real_scores(genuine, impostor, message):
    # float() would read "0.9" as 0.9 and True as 1.0, and pass NaN on to the EER
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        EvalReport(genuine, impostor, {"seed": 1})


def test_report_takes_integer_and_numpy_scores_as_floats():
    report = EvalReport([1, np.float64(0.5)], [np.float32(0.25)], {"seed": 1})
    assert report.genuine_scores == (1.0, 0.5) and report.impostor_scores == (0.25,)
    assert all(type(s) is float for s in report.genuine_scores + report.impostor_scores)


def test_roc_csv_bytes(tmp_path):
    hand_report().write_roc_csv(tmp_path / "roc.csv")
    assert (tmp_path / "roc.csv").read_bytes() == (
        b"threshold,fmr,fnmr\r\n0.25,1.0,0.0\r\n0.5,0.5,0.0\r\n0.75,0.0,0.5\r\n"
    )


def test_sweep_csv_bytes(tmp_path):
    result = SweepResult(
        records=((5, 10, 0, 123, 0.1), (5, 10, 1, 456, 0.30000000000000004)),
        means=((5, 10, 0.2),),
    )
    write_sweep_csv(result, tmp_path / "trials.csv", tmp_path / "means.csv")
    assert (tmp_path / "trials.csv").read_bytes() == (
        b"m,q,trial,seed,eer\r\n5,10,0,123,0.1\r\n5,10,1,456,0.30000000000000004\r\n"
    )
    assert (tmp_path / "means.csv").read_bytes() == b"m,q,mean_eer\r\n5,10,0.2\r\n"


def test_hist_csv_bytes(tmp_path):
    cli._write_hist_csv(tmp_path / "h_hist.csv", {"a": [0.005, 0.5, 0.5, 1.0], "b": [0.1]})
    text = (tmp_path / "h_hist.csv").read_bytes()
    lines = text.split(b"\r\n")
    assert len(lines) == 1 + 100 + 1 and lines[-1] == b""
    assert b"\n" not in text.replace(b"\r\n", b"")
    assert lines[0] == b"bin_left,bin_right,a_fraction,b_fraction"
    assert lines[1] == b"0.0,0.01,0.25,0.0"
    assert lines[11] == b"0.1,0.11,0.0,1.0"
    assert lines[51] == b"0.5,0.51,0.5,0.0"
    assert lines[100] == b"0.99,1.0,0.25,0.0"
    # the whole file, every bin edge spelled as repr spells it
    assert hashlib.sha256(text).hexdigest() == "a3b9693eb751174385c3c3255d6d57c1696e0cc492e4d65eb5abc22f5a2167a4"


def test_minutiae_text_bytes(tmp_path):
    # 7.0 and -0.25 lie outside [0, 2*pi): the template wraps them before they are written
    points = np.array([[312.01, 145.77, 1.302], [0.1, 400, 7.0], [88.94, 1e-05, -0.25]])
    template = MinutiaeTemplate("f0012", 3, points)
    save_minutiae(template, tmp_path / "f0012_03.txt")
    assert (tmp_path / "f0012_03.txt").read_bytes() == (
        b"# finger=f0012 sample=3\n"
        b"312.01 145.77 1.302\n"
        b"0.1 400.0 0.7168146928204138\n"
        b"88.94 1e-05 6.033185307179586\n"
    )
    (loaded,) = load_minutiae(tmp_path / "f0012_03.txt")
    assert loaded == template
    assert loaded.points.tobytes() == template.points.tobytes()
