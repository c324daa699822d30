import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import giomhash
from giomhash import cases
from giomhash.cli import _add_key_args, _add_lgs_args, _add_mcc_args, _add_synth_args, main
from giomhash.evaluation import encode_dataset, hash_dataset
from giomhash.matching import LgsParams
from giomhash.mcc import MccParams, SynthParams
from giomhash.model import HashKey, load_hashed, load_minutiae

SMALL_MCC = ["--radius", "100", "--ns", "6", "--nd", "4"]
SMALL_KEY = ["--m", "8", "--q", "6"]


def child_env():
    """Environment for a child interpreter that imports the giomhash under test, not an installed copy."""
    src = str(Path(giomhash.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def assert_usage_error(argv, out, capsys):
    """argv exits 1 with its subcommand's usage error and leaves no --out behind; returns the message."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"giom {argv[0]}: error:" in err
    assert not out.exists()
    return err


def assert_invert_ran(proc, out):
    """proc ran `giom analyze --mode invert` into out, and every forged preimage hashed back to its case's code."""
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote invert analysis to {out}\n"
    report = json.loads((out / "invert.json").read_text())
    assert report["square"]["target_code"] == [1, 2, 1]
    assert [report[case.name]["rehash_matches"] for case in cases.CASES.values()] == [True, True]


def read_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    code = main(
        [
            "gen-data",
            "--fingers", "4",
            "--samples", "3",
            "--min-minutiae", "15",
            "--max-minutiae", "22",
            "--jitter-pos", "4",
            "--jitter-theta", "0.08",
            "--drop-rate", "0.1",
            "--field-size", "300",
            "--seed", "7",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def hashed_dir(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "hashed"
    code = main(
        ["hash", "--data", str(data_dir), "--seed", "3", "--out", str(path)]
        + SMALL_KEY
        + SMALL_MCC
    )
    assert code == 0
    return path


class TestGenData:
    def test_writes_expected_files(self, data_dir):
        files = sorted(p.name for p in data_dir.glob("*.txt"))
        assert len(files) == 4 * 3
        assert files[0] == "f0000_01.txt"

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        rerun = tmp_path / "data2"
        main(
            [
                "gen-data",
                "--fingers", "4",
                "--samples", "3",
                "--min-minutiae", "15",
                "--max-minutiae", "22",
                "--jitter-pos", "4",
                "--jitter-theta", "0.08",
                "--drop-rate", "0.1",
                "--field-size", "300",
                "--seed", "7",
                "--out", str(rerun),
            ]
        )
        assert read_bytes(rerun) == read_bytes(data_dir)

    def test_bad_drop_rate_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        err = assert_usage_error(["gen-data", "--seed", "1", "--drop-rate", "1.5", "--out", str(out)], out, capsys)
        assert "drop_rate must lie in [0, 1]" in err

    @pytest.mark.parametrize("flag", [["--jitter-pos", "nan"], ["--field-size", "inf"], ["--jitter-theta=-inf"]])
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        err = assert_usage_error(["gen-data", "--seed", "1", "--out", str(out)] + flag, out, capsys)
        assert "must be a finite real number" in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--min-minutiae", "30", "--max-minutiae", "10"], "min_minutiae 30 > max_minutiae 10"),
            (["--jitter-pos", "-1"], "jitter_pos must be >= 0, got -1.0"),
            (["--jitter-theta", "-1"], "jitter_theta must be >= 0, got -1.0"),
            (["--drop-rate", "-1"], "drop_rate must lie in [0, 1]"),
            (["--field-size", "0"], "field_size must be positive"),
            (["--fingers", "0"], "fingers must be >= 1, got 0"),
            # an absent --max-minutiae keeps the type's default, 30
            (["--min-minutiae", "40"], "min_minutiae 40 > max_minutiae 30"),
        ],
        # ids as in the flag-only form, so each case keeps its name
        ids=[f"flag{i}" for i in range(7)],
    )
    def test_value_rejected_by_synth_params_is_usage_error(self, tmp_path, capsys, flag, message):
        # SynthParams owns these ranges; the CLI parses plain numbers
        out = tmp_path / "x"
        assert message in assert_usage_error(["gen-data", "--seed", "1", "--out", str(out)] + flag, out, capsys)


class TestHash:
    def test_writes_key_and_templates(self, hashed_dir):
        names = sorted(p.name for p in hashed_dir.iterdir())
        assert "key.json" in names
        assert len([n for n in names if n != "key.json"]) == 12
        key = json.loads((hashed_dir / "key.json").read_text())
        assert key["m"] == 8 and key["q"] == 6 and key["d"] == 144
        hashed = json.loads((hashed_dir / "f0000_01.json").read_text())
        assert hashed["m"] == 8
        assert all(1 <= c <= 6 for row in hashed["codes"] for c in row)

    def test_files_equal_hash_dataset(self, data_dir, hashed_dir):
        mcc = MccParams(radius=100, ns=6, nd=4)
        key = HashKey(seed=3, m=8, q=6, d=mcc.dim)
        want = hash_dataset(encode_dataset(load_minutiae(data_dir), mcc), key)
        written = sorted(p.name for p in hashed_dir.iterdir() if p.name != "key.json")
        assert written == sorted(f"{f}_{s:02d}.json" for f, s in want)
        for (finger_id, sample_id), template in want.items():
            assert load_hashed(hashed_dir / f"{finger_id}_{sample_id:02d}.json") == template

    def test_duplicate_template_header_is_runtime_error(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("f0000_01.txt", "f0000_02.txt", "f0001_01.txt", "f0001_02.txt"):
            shutil.copy(data_dir / name, data / name)
        # a second file with the header (f0000, 1)
        shutil.copy(data_dir / "f0000_01.txt", data / "zz_copy.txt")
        out = tmp_path / "out"
        code = main(["hash", "--data", str(data), "--seed", "3", "--out", str(out)] + SMALL_KEY + SMALL_MCC)
        assert code == 2
        assert "duplicate sample ids for finger f0000" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("finger", ["../escaped", "a/b", "..", ".x"])
    def test_finger_id_outside_output_directory_is_runtime_error(self, data_dir, tmp_path, capsys, finger):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("f0000_01.txt", "f0000_02.txt"):
            shutil.copy(data_dir / name, data / name)
        bad = data / "f0001_01.txt"
        bad.write_text((data_dir / "f0001_01.txt").read_text().replace("finger=f0001", f"finger={finger}", 1))
        out = tmp_path / "out"
        code = main(["hash", "--data", str(data), "--seed", "3", "--out", str(out)] + SMALL_KEY + SMALL_MCC)
        assert code == 2
        err = capsys.readouterr().err
        assert "f0001_01.txt" in err and repr(finger) in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "f0000_01.txt", "f0000_02.txt", "f0001_01.txt"]

    @pytest.mark.parametrize("dropped", ["--data", "--seed", "--out"])
    def test_missing_data_arguments_is_usage_error(self, data_dir, tmp_path, capsys, dropped):
        out = tmp_path / "x"
        given = {"--data": str(data_dir), "--seed": "3", "--out": str(out)}
        argv = ["hash"] + [part for flag, value in given.items() if flag != dropped for part in (flag, value)]
        err = assert_usage_error(argv, out, capsys)
        assert f"the following arguments are required: {dropped}\n" in err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--ns", "1"], ["--q", "1"], ["--sigma-d", "-1"], ["--radius", "0"],
            ["--ns", "0"], ["--m", "0"], ["--seed", "-1"],
        ],
    )
    def test_value_rejected_by_parameter_type_is_usage_error(self, tmp_path, capsys, flag):
        # checked before --data is read, so the missing file is never reached
        out = tmp_path / "x"
        argv = ["hash", "--data", str(tmp_path / "missing"), "--seed", "1", "--out", str(out)] + flag
        assert_usage_error(argv, out, capsys)

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["hash", "--data", str(tmp_path / "absent"), "--seed", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMatch:
    def test_prints_score(self, hashed_dir, capsys):
        code = main(
            ["match", "--a", str(hashed_dir / "f0000_01.json"), "--b", str(hashed_dir / "f0000_02.json")]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0

    def test_self_match_is_one(self, hashed_dir, capsys):
        main(
            ["match", "--a", str(hashed_dir / "f0001_01.json"), "--b", str(hashed_dir / "f0001_01.json")]
        )
        assert capsys.readouterr().out.strip() == "1.0"

    def test_detail_output(self, hashed_dir, tmp_path, capsys):
        detail = tmp_path / "detail.json"
        main(
            [
                "match",
                "--a", str(hashed_dir / "f0000_01.json"),
                "--b", str(hashed_dir / "f0000_02.json"),
                "--detail", str(detail),
            ]
        )
        payload = json.loads(detail.read_text())
        score = float(capsys.readouterr().out.strip())
        assert payload["score"] == score
        assert payload["n_p"] == len(payload["pairs"])
        assert payload["config"] == dataclasses.asdict(LgsParams())

    def test_cross_key_is_runtime_error(self, data_dir, hashed_dir, tmp_path, capsys):
        other = tmp_path / "other"
        main(
            ["hash", "--data", str(data_dir), "--seed", "4", "--out", str(other)]
            + SMALL_KEY
            + SMALL_MCC
        )
        code = main(
            ["match", "--a", str(hashed_dir / "f0000_01.json"), "--b", str(other / "f0000_01.json")]
        )
        assert code == 2
        assert "fingerprint mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mu-p", "nan"], ["--tau-p", "inf"], ["--max-np", "2"]])
    def test_value_rejected_by_lgs_params_is_usage_error(self, tmp_path, capsys, flag):
        detail = tmp_path / "detail.json"
        argv = ["match", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"), "--detail", str(detail)]
        assert_usage_error(argv + flag, detail, capsys)

    def test_malformed_file_is_runtime_error(self, hashed_dir, tmp_path, capsys):
        payload = json.loads((hashed_dir / "f0000_01.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload | {"q": None}))
        code = main(["match", "--a", str(bad), "--b", str(hashed_dir / "f0000_01.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: bad.json: invalid hashed-template file (q must be an integer, got None)\n"

    def test_deeply_nested_file_is_runtime_error(self, hashed_dir, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["match", "--a", str(deep), "--b", str(hashed_dir / "f0000_01.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deep.json: invalid hashed-template file (")
        assert err.count("\n") == 1


class TestEvaluate:
    def run(self, data_dir, out, extra=()):
        return main(
            ["evaluate", "--data", str(data_dir), "--seed", "11", "--out", str(out)]
            + SMALL_KEY
            + SMALL_MCC
            + list(extra)
        )

    def test_writes_report_and_roc(self, data_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        assert self.run(data_dir, out) == 0
        assert capsys.readouterr().out.startswith("eer=")
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["eer"] <= 1.0
        assert len(report["genuine_scores"]) == 12
        assert len(report["impostor_scores"]) == 6
        assert report["config"]["data"] == str(data_dir)
        assert (out / "roc.csv").read_text().startswith("threshold,fmr,fnmr")

    def test_rerun_and_threads_are_byte_identical(self, data_dir, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        threaded = tmp_path / "c"
        self.run(data_dir, first)
        self.run(data_dir, second)
        self.run(data_dir, threaded, extra=["--threads", "3"])
        assert read_bytes(first) == read_bytes(second) == read_bytes(threaded)

    @pytest.mark.parametrize(
        "fingers, samples, report_sha256, roc_sha256",
        [
            # criterion 9's seeded 4 x 3 set
            pytest.param(4, 3, "ff508f87da86e6caf138ea2858dee69f38c6abccc0a457242cdb724c58c9dccc",
                         "603704e8084107e11d12d915d1e5a1ad3cc923c3db6d0dbf9656f5eeb29f17ec", id="4x3"),
            # 780 impostor scores, so report.json holds thousands of floats
            pytest.param(40, 2, "a7a4f80da195751f5884f668299b3d4e2dea28a0b98d5d9e0e20b41a5811c679",
                         "a446d63cf4bce4ce9f501785bbafdfd6e65208c13c40a4b47e58eedd75417460", id="40x2"),
        ],
    )
    def test_report_bytes_pinned(self, tmp_path, monkeypatch, fingers, samples, report_sha256, roc_sha256):
        # reruns within one version cannot see a drift that every run shares, so the bytes are pinned;
        # relative paths keep the report's config.data independent of where the test runs
        monkeypatch.chdir(tmp_path)
        gen = ["gen-data", "--fingers", str(fingers), "--samples", str(samples), "--min-minutiae", "15",
               "--max-minutiae", "22", "--jitter-pos", "4", "--jitter-theta", "0.08", "--drop-rate", "0.1",
               "--field-size", "300", "--seed", "7", "--out", "data"]
        assert main(gen) == 0
        assert self.run(Path("data"), Path("eval")) == 0
        out = tmp_path / "eval"
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == report_sha256
        assert hashlib.sha256((out / "roc.csv").read_bytes()).hexdigest() == roc_sha256

    def test_zero_m_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["evaluate", "--data", str(data_dir), "--seed", "1", "--m", "0", "--out", str(out)]
        assert_usage_error(argv, out, capsys)

    @pytest.mark.parametrize(
        "flag", [["--radius", "nan"], ["--sigma-d", "inf"], ["--mu-p", "nan"], ["--tau-p=inf"]]
    )
    def test_non_finite_float_is_usage_error(self, data_dir, tmp_path, capsys, flag):
        out = tmp_path / "x"
        err = assert_usage_error(
            ["evaluate", "--data", str(data_dir), "--seed", "11", "--out", str(out)] + SMALL_KEY + SMALL_MCC + flag,
            out,
            capsys,
        )
        assert "must be a finite real number" in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--ns", "1"], "ns must be >= 2"),
            (["--q", "1"], "q must be >= 2"),
            (["--max-np", "2"], "need 1 <= min_np <= max_np, got [4, 2]"),
            (["--radius", "0"], "radius must be positive"),
            (["--sigma-s", "-1"], "sigma_s must be positive, got -1.0"),
            (["--ns", "0"], "ns must be >= 2"),
            (["--m", "0"], "m must be >= 1"),
            (["--seed", "-1"], "seed must be non-negative"),
            (["--min-np", "0"], "need 1 <= min_np <= max_np, got [0, 12]"),
        ],
    )
    def test_value_rejected_by_parameter_type_is_usage_error(self, tmp_path, capsys, flag, message):
        # MccParams, LgsParams and HashKey are built before --data is read, so the missing file is never reached
        out = tmp_path / "x"
        argv = ["evaluate", "--data", str(tmp_path / "missing"), "--seed", "1", "--out", str(out)] + flag
        assert message in assert_usage_error(argv, out, capsys)

    def test_missing_data_is_runtime_error(self, tmp_path):
        code = main(
            ["evaluate", "--data", str(tmp_path / "absent"), "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_undecodable_template_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "a_01.txt").write_bytes(b"# finger=a sample=1\n\xff 2.0 3.0\n")
        out = tmp_path / "x"
        assert main(["evaluate", "--data", str(data), "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: a_01.txt: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_out_of_memory_is_runtime_error(self, data_dir, tmp_path, capsys, monkeypatch):
        # stands in for numpy failing to allocate an oversized bank buffer
        def no_memory(key):
            raise MemoryError(f"Unable to allocate bank for m={key.m}")

        monkeypatch.setattr("giomhash.evaluation.derive_bank", no_memory)
        assert self.run(data_dir, tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


class TestSweep:
    def test_writes_grid_csvs(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--data", str(data_dir),
                "--seed", "5",
                "--m", "4,8",
                "--q", "6",
                "--trials", "2",
                "--out", str(out),
            ]
            + SMALL_MCC
        )
        assert code == 0
        trials = (out / "sweep_trials.csv").read_text().splitlines()
        means = (out / "sweep_means.csv").read_text().splitlines()
        assert trials[0] == "m,q,trial,seed,eer"
        assert len(trials) == 1 + 2 * 1 * 2
        assert means[0] == "m,q,mean_eer"
        assert len(means) == 1 + 2

    def test_empty_grid_is_usage_error(self, data_dir, tmp_path):
        code = main(
            ["sweep", "--data", str(data_dir), "--seed", "5", "--m", ",", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize("flag", [["--m", "0"], ["--m", "-3"], ["--m", "4,0"], ["--q", "0"]])
    def test_non_positive_grid_value_is_usage_error(self, tmp_path, capsys, flag):
        # every grid cell's HashKey is built before any template is read
        out = tmp_path / "x"
        argv = ["sweep", "--data", str(tmp_path / "missing"), "--seed", "5", "--out", str(out)] + flag
        message = {"--m": "m must be >= 1", "--q": "q must be >= 2"}[flag[0]]
        assert message in assert_usage_error(argv, out, capsys)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--radius", "0"], ["--nd", "1", "--sigma-d", "0"], ["--min-np", "13"],
            ["--ns", "0"], ["--seed", "-1"], ["--min-np", "0"],
        ],
    )
    def test_value_rejected_by_parameter_type_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        argv = ["sweep", "--data", str(tmp_path / "missing"), "--seed", "5", "--out", str(out)] + flag
        assert_usage_error(argv, out, capsys)

    @pytest.mark.parametrize("flag, value", [(["--m", "4,4"], "4"), (["--q", "6,7,06"], "6")])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, flag, value):
        # a repeated value would score one cell twice; the missing --data is never read
        out = tmp_path / "x"
        argv = ["sweep", "--data", str(tmp_path / "missing"), "--seed", "5", "--out", str(out)] + flag
        err = assert_usage_error(argv, out, capsys)
        assert f"{flag[0][2:]}_list repeats {value}; each grid value must appear once" in err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_non_positive_trials_is_usage_error(self, tmp_path, capsys, trials):
        # sweep_grid checks trials with the grid, before the missing --data is read
        out = tmp_path / "x"
        argv = ["sweep", "--data", str(tmp_path / "missing"), "--seed", "5", "--trials", trials, "--out", str(out)]
        assert "trials must be >= 1" in assert_usage_error(argv, out, capsys)

    def test_grid_value_rejected_by_hash_key_is_usage_error(self, tmp_path, capsys):
        # every grid cell's HashKey is built before the missing --data is read
        out = tmp_path / "x"
        argv = ["sweep", "--data", str(tmp_path / "missing"), "--seed", "5", "--q", "6,1", "--out", str(out)]
        assert "q must be >= 2: argmax over fewer than two candidates is degenerate" in assert_usage_error(
            argv, out, capsys
        )


class TestAnalyze:
    def test_invert(self, tmp_path, capsys):
        out = tmp_path / "invert"
        argv = ["analyze", "--mode", "invert", "--seed", "0", "--attempts", "20000", "--out"]
        assert main(argv + [str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["invert.json"]
        report = json.loads((out / "invert.json").read_text())
        for name in ("square", "underdetermined"):
            assert report[name]["found"] is True
            assert report[name]["rehash_matches"] is True
        assert "guess_space" not in report and "volume_samples" not in report
        # a removed option is an unrecognized argument
        gone = tmp_path / "gone"
        err = assert_usage_error(argv + [str(gone), "--volume-samples", "10"], gone, capsys)
        assert "giom analyze: error: unrecognized arguments: --volume-samples 10" in err

    def test_unlink(self, data_dir, tmp_path):
        out = tmp_path / "unlink"
        code = main(
            [
                "analyze",
                "--mode", "unlink",
                "--data", str(data_dir),
                "--seed-a", "1",
                "--seed-b", "2",
                "--out", str(out),
            ]
            + SMALL_KEY
            + SMALL_MCC
        )
        assert code == 0
        report = json.loads((out / "unlink.json").read_text())
        assert len(report["mated_genuine"]) == 12
        assert len(report["non_mated_impostor"]) == 6
        assert 0.0 <= report["histogram_intersection"] <= 1.0
        hist = (out / "unlink_hist.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,mated_genuine_fraction,non_mated_impostor_fraction"
        assert len(hist) == 1 + 100

    def test_unlink_on_one_finger_is_runtime_error(self, data_dir, tmp_path, capsys):
        one_finger = tmp_path / "one_finger"
        one_finger.mkdir()
        finger = sorted(data_dir.glob("*.txt"))[0].name.rsplit("_", 1)[0]
        for path in data_dir.glob(f"{finger}_*.txt"):
            shutil.copy(path, one_finger)
        out = tmp_path / "unlink"
        argv = ["analyze", "--mode", "unlink", "--data", str(one_finger), "--seed-a", "1", "--seed-b", "2"]
        assert main(argv + ["--out", str(out)] + SMALL_KEY + SMALL_MCC) == 2
        assert capsys.readouterr().err == "error: protocol needs >= 2 fingers for impostor comparisons\n"
        assert not out.exists()

    def test_unlink_requires_both_seeds(self, data_dir, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["analyze", "--mode", "unlink", "--data", str(data_dir), "--seed-a", "1", "--out", str(out)]
        assert "requires --data, --seed-a and --seed-b" in assert_usage_error(argv, out, capsys)

    def test_unlink_equal_seeds_is_usage_error(self, data_dir, tmp_path, capsys):
        # the key pair is checked before --data is read, so a missing dataset gives the same error
        out = tmp_path / "x"
        for data in (data_dir, tmp_path / "missing"):
            argv = ["analyze", "--mode", "unlink", "--data", str(data), "--seed-a", "1", "--seed-b", "1"]
            assert "keys must have different seeds" in assert_usage_error(argv + ["--out", str(out)], out, capsys)

    def test_revoke(self, data_dir, tmp_path):
        out = tmp_path / "revoke"
        code = main(
            [
                "analyze",
                "--mode", "revoke",
                "--data", str(data_dir),
                "--base-seed", "5",
                "--n-keys", "2",
                "--seed", "9",
                "--out", str(out),
            ]
            + SMALL_KEY
            + SMALL_MCC
        )
        assert code == 0
        report = json.loads((out / "revoke.json").read_text())
        assert len(report["mated_genuine"]) == 4 * 2
        assert len(report["genuine"]) == 12
        assert len(report["impostor"]) == 6
        assert 0.0 <= report["intersection_mated_vs_impostor"] <= 1.0
        hist = (out / "revoke_hist.csv").read_text().splitlines()
        assert len(hist) == 1 + 100

    def test_revoke_requires_base_seed(self, data_dir, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["analyze", "--mode", "revoke", "--data", str(data_dir), "--out", str(out)]
        assert "requires --data and --base-seed" in assert_usage_error(argv, out, capsys)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--mode", "unlink", "--seed-a", "1", "--seed-b", "2", "--ns", "1"],
            ["--mode", "revoke", "--base-seed", "1", "--max-np", "2"],
            ["--mode", "unlink", "--seed-a", "1", "--seed-b", "2", "--radius", "nan"],
            ["--mode", "unlink", "--seed-a", "1", "--seed-b", "2", "--q", "1"],
            ["--mode", "revoke", "--base-seed", "1", "--tau-p", "-inf"],
            ["--mode", "unlink", "--seed-a", "1", "--seed-b", "2", "--ns", "0"],
            ["--mode", "revoke", "--base-seed", "1", "--m", "0"],
            ["--mode", "unlink", "--seed-a", "-1", "--seed-b", "2"],
            ["--mode", "revoke", "--base-seed", "-1"],
            ["--mode", "revoke", "--base-seed", "1", "--min-np", "0"],
        ],
    )
    def test_value_rejected_by_parameter_type_is_usage_error(self, tmp_path, capsys, flag):
        # unlink and revoke build their MccParams, LgsParams and keys before they read --data
        out = tmp_path / "x"
        argv = ["analyze", "--data", str(tmp_path / "missing"), "--attempts", "10", "--out", str(out)] + flag
        assert_usage_error(argv, out, capsys)

    @pytest.mark.parametrize("flag", [["--ns", "1"], ["--q", "1"], ["--max-np", "2"], ["--radius", "nan"]])
    def test_invert_ignores_options_it_never_reads(self, tmp_path, flag):
        # the bundled cases carry their own banks, so invert reads no key, cylinder or matcher option
        out = tmp_path / "x"
        argv = ["analyze", "--mode", "invert", "--attempts", "10", "--out", str(out)]
        assert main(argv + flag) == 0
        assert (out / "invert.json").exists()

    def test_analyze_rerun_is_byte_identical(self, tmp_path):
        args = ["analyze", "--mode", "invert", "--seed", "0", "--attempts", "5000"]
        first = tmp_path / "one"
        second = tmp_path / "two"
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert read_bytes(first) == read_bytes(second)


class TestTopLevel:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        out = tmp_path / "x"
        assert main(["analyze", "--mode", "invert", "--out", str(out), "--bogus"]) == 1
        assert not out.exists()

    def test_unknown_flag_before_subcommand_reported_by_top_level_parser(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["--bogus", "evaluate", "--data", "missing", "--seed", "1", "--out", str(out), "--later"]) == 1
        err = capsys.readouterr().err
        assert "giom: error: unrecognized arguments: --bogus\n" in err
        assert "giom evaluate:" not in err and not out.exists()

    @pytest.mark.parametrize(
        "argv, removed",
        [
            pytest.param(["match", "--a", "a.json", "--b", "b.json", "--detail"], ["--flat-topk"], id="match"),
            pytest.param(["evaluate", "--data", "missing", "--seed", "1", "--out"], ["--flat-topk"], id="evaluate"),
            pytest.param(["sweep", "--data", "missing", "--seed", "1", "--out"], ["--flat-topk"], id="sweep"),
            pytest.param(
                ["analyze", "--mode", "unlink", "--data", "missing", "--seed-a", "1", "--seed-b", "2", "--out"],
                ["--flat-topk"],
                id="analyze",
            ),
            pytest.param(["sweep", "--data", "missing", "--seed", "1", "--out"], ["--threads", "2"], id="sweep-threads"),
        ],
    )
    def test_removed_flat_topk_flag_is_usage_error(self, tmp_path, capsys, argv, removed):
        # a removed option is an unrecognized argument, reported by the subcommand's own parser
        out = tmp_path / "x"
        err = assert_usage_error(argv + [str(out)] + removed, out, capsys)
        assert f"giom {argv[0]}: error: unrecognized arguments: {' '.join(removed)}" in err

    @pytest.mark.parametrize(
        "add_args, title, params, elsewhere",
        [
            (_add_mcc_args, "cylinder encoding", MccParams, set()),
            (_add_lgs_args, "matcher", LgsParams, set()),
            (_add_synth_args, "dataset shape", SynthParams, set()),
            # each command's own seed flag gives seed, and d is the cylinder encoding's dim
            (_add_key_args, "hash key", HashKey, {"seed", "d"}),
        ],
        ids=["mcc", "lgs", "synth", "key"],
    )
    def test_one_flag_per_parameter_field(self, add_args, title, params, elsewhere):
        parser = argparse.ArgumentParser()
        add_args(parser)
        (group,) = [group for group in parser._action_groups if group.title == title]
        assert {action.dest for action in group._group_actions} == {
            f.name for f in dataclasses.fields(params)
        } - elsewhere

    @pytest.mark.parametrize(
        "argv, library, params",
        [
            (["gen-data", "--seed", "1"], "giomhash.cli.synth_dataset", [SynthParams()]),
            # one end of the minutiae range given, the other keeps its default
            (
                ["gen-data", "--seed", "1", "--min-minutiae", "20"],
                "giomhash.cli.synth_dataset",
                [SynthParams(min_minutiae=20)],
            ),
            (
                ["gen-data", "--seed", "1", "--max-minutiae", "18"],
                "giomhash.cli.synth_dataset",
                [SynthParams(max_minutiae=18)],
            ),
            (
                ["evaluate", "--seed", "1"],
                "giomhash.cli.run_evaluation",
                [HashKey(seed=1, d=MccParams().dim), MccParams(), LgsParams()],
            ),
            (["sweep", "--seed", "1"], "giomhash.cli.sweep", [MccParams(), LgsParams()]),
            (
                ["analyze", "--mode", "revoke", "--base-seed", "1"],
                "giomhash.security.revocability_experiment",
                [HashKey(seed=1, d=MccParams().dim), MccParams(), LgsParams()],
            ),
        ],
        ids=["gen-data", "gen-data-min", "gen-data-max", "evaluate", "sweep", "analyze-revoke"],
    )
    def test_absent_parameter_flags_take_the_type_defaults(self, data_dir, tmp_path, monkeypatch, argv, library, params):
        class Called(Exception):
            pass

        def capture(*args, **kwargs):
            types = (SynthParams, MccParams, LgsParams, HashKey)
            raise Called([value for value in (*args, *kwargs.values()) if isinstance(value, types)])

        monkeypatch.setattr(library, capture)
        data = [] if argv[0] == "gen-data" else ["--data", str(data_dir)]
        with pytest.raises(Called) as called:
            main(argv + data + ["--out", str(tmp_path / "x")])
        assert called.value.args[0] == params

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["gen-data", "--seed", "1", "--out", ""], id="gen-data"),
            pytest.param(["hash", "--data", "", "--seed", "1", "--out", "x"], id="hash"),
            pytest.param(["match", "--a", "A", "--b", "B", "--detail", ""], id="match"),
            pytest.param(["evaluate", "--data", "DATA", "--seed", "1", "--out", ""] + SMALL_KEY + SMALL_MCC, id="evaluate"),
            pytest.param(["sweep", "--data", "DATA", "--seed", "1", "--out", ""] + SMALL_KEY + SMALL_MCC, id="sweep"),
            pytest.param(["analyze", "--mode", "revoke", "--data", "", "--base-seed", "1", "--out", "x"], id="analyze"),
        ],
    )
    def test_empty_path_is_usage_error(self, data_dir, hashed_dir, tmp_path, monkeypatch, capsys, argv):
        # an empty path would name the working directory, so it is refused before anything is read or made
        files = {"A": hashed_dir / "f0000_01.json", "B": hashed_dir / "f0001_01.json", "DATA": data_dir}
        monkeypatch.chdir(tmp_path)
        err = assert_usage_error([str(files.get(part, part)) for part in argv], tmp_path / "x", capsys)
        assert "expected a non-empty path" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["giom", "gen-data", "hash", "match", "evaluate", "sweep", "analyze"])
    def test_help_exits_zero(self, command, capsys):
        argv = [] if command == "giom" else [command]
        assert main(argv + ["--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['giom'] + argv)} ")

    def test_console_script_runs(self, tmp_path):
        # Runs the entry point that pyproject.toml declares the way pip's
        # generated launcher does, so no installed package is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["giom"]
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"entry = EntryPoint('giom', {spec!r}, 'console_scripts').load()\n"
            "sys.argv[0] = 'giom'\n"
            "sys.exit(entry())\n"
        )
        out = tmp_path / "inv"
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "analyze", "--mode", "invert", "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert_invert_ran(proc, out)

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency only; importing it cost the CLI ~0.4 s
        probe = "import sys, giomhash.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.skipif(
        shutil.which("giom") is None, reason="giom console script is not installed"
    )
    def test_installed_console_script_runs(self, tmp_path):
        out = tmp_path / "inv"
        proc = subprocess.run(
            ["giom", "analyze", "--mode", "invert", "--out", str(out)], capture_output=True, text=True
        )
        assert_invert_ran(proc, out)

    def test_no_binary_artifacts(self, data_dir, hashed_dir):
        for directory in (data_dir, hashed_dir):
            assert list(directory.glob("*.npy")) == []
