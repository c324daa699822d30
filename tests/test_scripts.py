import csv
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_param_sweep_writes_data_and_grid(tmp_path):
    proc = run_script(
        "run_param_sweep.py",
        "--out", str(tmp_path),
        "--fingers", "3", "--samples", "2", "--m", "5", "--q", "5", "--trials", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "data").glob("*.txt"))) == 3 * 2
    trials = read_csv(tmp_path / "sweep_trials.csv")
    assert [(r["m"], r["q"], r["trial"]) for r in trials] == [("5", "5", "0")]
    means = read_csv(tmp_path / "sweep_means.csv")
    assert len(means) == 1 and 0.0 <= float(means[0]["mean_eer"]) <= 1.0


def test_security_suite_writes_every_analysis(tmp_path):
    proc = run_script(
        "run_security_suite.py",
        "--out", str(tmp_path),
        "--attempts", "100", "--volume-samples", "100", "--n-keys", "1",
    )
    assert proc.returncode == 0, proc.stderr
    for mode in ("invert", "unlink", "revoke"):
        report = json.loads((tmp_path / mode / f"{mode}.json").read_text())
        assert report["mode"] == mode
    assert (tmp_path / "invert" / "invert_volume.csv").is_file()
    unlink = json.loads((tmp_path / "unlink" / "unlink.json").read_text())
    assert len(unlink["mated_genuine"]) == 40 * 6 and len(unlink["non_mated_impostor"]) == 40 * 39 // 2
    revoke = json.loads((tmp_path / "revoke" / "revoke.json").read_text())
    assert len(revoke["mated_genuine"]) == 100 and revoke["config"]["n_keys"] == 1
    for mode in ("unlink", "revoke"):
        assert len(read_csv(tmp_path / mode / f"{mode}_hist.csv")) == 100
