#!/usr/bin/env python3
"""Generate a synthetic dataset and sweep mean EER over the (m, q) grid.

Writes the dataset, per-trial EERs and grid means under --out. With the
default grid this reproduces the headline accuracy table; trim --m/--q or
--trials for a quick look.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from giomhash.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/sweep", help="output directory")
    parser.add_argument("--seed", type=int, default=77, help="sweep base seed")
    parser.add_argument("--data-seed", type=int, default=909, help="dataset seed")
    parser.add_argument("--fingers", type=int, default=30)
    parser.add_argument("--samples", type=int, default=4)
    parser.add_argument("--m", default=None, help="comma-separated code lengths")
    parser.add_argument("--q", default=None, help="comma-separated alphabet sizes")
    parser.add_argument("--trials", type=int, default=3)
    args = parser.parse_args()

    out = Path(args.out)
    data_dir = out / "data"
    gen = [
        "gen-data",
        "--fingers", str(args.fingers),
        "--samples", str(args.samples),
        "--min-minutiae", "15",
        "--max-minutiae", "22",
        "--jitter-pos", "4",
        "--jitter-theta", "0.08",
        "--drop-rate", "0.1",
        "--field-size", "300",
        "--seed", str(args.data_seed),
        "--out", str(data_dir),
    ]
    code = cli_main(gen)
    if code != 0:
        return code

    sweep = [
        "sweep",
        "--data", str(data_dir),
        "--seed", str(args.seed),
        "--trials", str(args.trials),
        "--radius", "100",
        "--ns", "6",
        "--nd", "4",
        "--out", str(out),
    ]
    if args.m:
        sweep += ["--m", args.m]
    if args.q:
        sweep += ["--q", args.q]
    return cli_main(sweep)


if __name__ == "__main__":
    sys.exit(main())
