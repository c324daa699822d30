"""Command-line pipeline: data generation, hashing, matching, evaluation, sweeps,
and the security analyses.

Exit codes: 0 success, 1 usage error, 2 runtime error. A flag that fills a field
of a parameter type (MccParams, LgsParams, SynthParams, HashKey) is parsed as a
plain number: an absent one keeps the type's default, and a value out of the
type's range is a usage error, as is any value argparse rejects. All randomness flows
from explicit --seed flags and outputs carry no timestamps, so reruns with
identical arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import cases, security
from .evaluation import encode_dataset, evaluation_config, hash_dataset, json_text, run_evaluation, sweep, write_csv, write_sweep_csv
from .hashing import hash_rows
from .matching import LgsParams, lgs_match_detail
from .mcc import MccParams, SynthParams, synth_dataset, write_dataset
from .model import HashKey, file_stem, load_hashed, load_minutiae, save_hashed, save_key

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

THREADS_HELP = "accepted for compatibility; scoring is batched, so it changes neither results nor speed"

DEFAULT_M = 700
DEFAULT_Q = 100
DEFAULT_M_GRID = "5,10,50,100,150,200,250,300,500,700"
DEFAULT_Q_GRID = "5,10,50,100,150,200,250,300"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected a non-empty integer list")
    for value, count in Counter(values).items():
        if count > 1:
            raise argparse.ArgumentTypeError(f"expected distinct integers, got {value} more than once in {text!r}")
    return values


def _add_mcc_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("cylinder encoding")
    group.add_argument("--radius", type=float, help="cylinder radius in pixels")
    group.add_argument("--ns", type=int, help="spatial cells per axis")
    group.add_argument("--nd", type=int, help="directional cells")
    group.add_argument("--sigma-s", type=float, help="spatial kernel std-dev (default radius/7.5)")
    group.add_argument("--sigma-d", type=float, help="angular kernel std-dev")


def _add_lgs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("matcher")
    group.add_argument("--min-np", type=int, help="minimum pair budget")
    group.add_argument("--max-np", type=int, help="maximum pair budget")
    group.add_argument("--mu-p", type=float, help="pair-budget sigmoid midpoint")
    group.add_argument("--tau-p", type=float, help="pair-budget sigmoid slope")


def _add_synth_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dataset shape")
    group.add_argument("--fingers", type=int)
    group.add_argument("--samples", type=int, dest="samples_per_finger")
    group.add_argument("--min-minutiae", type=int)
    group.add_argument("--max-minutiae", type=int)
    group.add_argument("--jitter-pos", type=float)
    group.add_argument("--jitter-theta", type=float)
    group.add_argument("--drop-rate", type=float)
    group.add_argument("--field-size", type=float)


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Report a parameter type's ValueError raised in the block as a usage error of parser's command (exit 1)."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _params(parser: argparse.ArgumentParser, cls, args, **given):
    """cls built from given and the flags whose dests are its field names; an absent flag keeps the field's default."""
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    with _usage_errors(parser):
        return cls(**{name: value for name, value in flags.items() if value is not None} | given)


def _key_from_args(parser: argparse.ArgumentParser, args, seed: int, mcc: MccParams) -> HashKey:
    with _usage_errors(parser):
        return HashKey(seed=seed, m=args.m, q=args.q, d=mcc.dim)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giom",
        description="Cancellable point-set template hashing: pipeline and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic minutiae dataset")
    p.set_defaults(run=functools.partial(_cmd_gen_data, p))
    p.add_argument("--seed", type=_nonneg_int, required=True)
    p.add_argument("--out", required=True, help="output directory for template text files")
    _add_synth_args(p)

    p = sub.add_parser("hash", help="hash minutiae templates into protected index codes")
    p.set_defaults(run=functools.partial(_cmd_hash, p))
    p.add_argument("--case", type=int, choices=sorted(cases.CASES), help="print the code of a bundled worked example and exit")
    p.add_argument("--data", help="template file or directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--q", type=int, default=DEFAULT_Q)
    p.add_argument("--out", help="output directory for hashed templates and the key")
    _add_mcc_args(p)

    p = sub.add_parser("match", help="score two hashed templates")
    p.set_defaults(run=functools.partial(_cmd_match, p))
    p.add_argument("--a", required=True, help="first hashed template (JSON)")
    p.add_argument("--b", required=True, help="second hashed template (JSON)")
    p.add_argument("--detail", help="write selected pairs and n_p as JSON")
    _add_lgs_args(p)

    p = sub.add_parser("evaluate", help="run the genuine/impostor protocol and report EER")
    p.set_defaults(run=functools.partial(_cmd_evaluate, p))
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--q", type=int, default=DEFAULT_Q)
    p.add_argument("--threads", type=_positive_int, default=1, help=THREADS_HELP)
    p.add_argument("--out", required=True)
    _add_mcc_args(p)
    _add_lgs_args(p)

    p = sub.add_parser("sweep", help="mean EER over a grid of (m, q)")
    p.set_defaults(run=functools.partial(_cmd_sweep, p))
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=_int_list, default=_int_list(DEFAULT_M_GRID))
    p.add_argument("--q", type=_int_list, default=_int_list(DEFAULT_Q_GRID))
    p.add_argument("--trials", type=_positive_int, default=3)
    p.add_argument("--out", required=True)
    _add_mcc_args(p)
    _add_lgs_args(p)

    p = sub.add_parser("analyze", help="security experiments: invert, unlink, revoke")
    p.set_defaults(run=functools.partial(_cmd_analyze, p))
    p.add_argument("--mode", choices=list(_ANALYSES), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--data", help="dataset directory (unlink and revoke modes)")
    p.add_argument("--attempts", type=_positive_int, default=1_000_000, help="rejection-sampling budget (invert)")
    p.add_argument("--volume-samples", type=_positive_int, default=200_000, help="Monte-Carlo volume samples (invert)")
    p.add_argument("--seed-a", type=int, help="first key seed (unlink)")
    p.add_argument("--seed-b", type=int, help="second key seed (unlink)")
    p.add_argument("--base-seed", type=int, help="base key seed (revoke)")
    p.add_argument("--n-keys", type=_positive_int, default=50, help="fresh keys per finger (revoke)")
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--q", type=int, default=DEFAULT_Q)
    _add_mcc_args(p)
    _add_lgs_args(p)

    return parser


def _out_dir(args) -> Path:
    """The --out directory, made when a command has its results and writes them."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json_text(payload))


def _write_hist_csv(path: Path, columns: dict[str, list[float]]) -> None:
    edges = security.HIST_EDGES.tolist()
    fractions = [security.score_fractions(scores).tolist() for scores in columns.values()]
    header = ["bin_left", "bin_right"] + [f"{name}_fraction" for name in columns]
    write_csv(path, header, zip(edges[:-1], edges[1:], *fractions))


def _cmd_gen_data(parser: argparse.ArgumentParser, args) -> None:
    # the one field built from two flags; an absent flag keeps its end of the default range
    ends = zip((args.min_minutiae, args.max_minutiae), SynthParams.minutiae_range)
    minutiae_range = tuple(default if flag is None else flag for flag, default in ends)
    params = _params(parser, SynthParams, args, minutiae_range=minutiae_range)
    dataset = synth_dataset(args.seed, params)
    paths = write_dataset(dataset, args.out)
    print(f"wrote {len(paths)} templates to {args.out}")


def _cmd_hash(parser: argparse.ArgumentParser, args) -> None:
    if args.case is not None:
        # a bundled case carries its own bank, so no key or cylinder flag is read
        case = cases.get_case(args.case)
        print(" ".join(str(int(i)) for i in hash_rows(case.vector[None, :], case.bank)[0]))
        return
    if not args.data or args.seed is None or not args.out:
        parser.error("hash requires --data, --seed and --out (or --case)")
    mcc = _params(parser, MccParams, args)
    key = _key_from_args(parser, args, args.seed, mcc)
    templates = load_minutiae(args.data)
    hashed = hash_dataset(encode_dataset(templates, mcc), key)
    out = _out_dir(args)
    for template_key, template in hashed.items():
        save_hashed(template, out / f"{file_stem(template_key)}.json")
    save_key(key, out / "key.json")
    print(f"hashed {len(templates)} templates under key {key.fingerprint()} to {args.out}")


def _cmd_match(parser: argparse.ArgumentParser, args) -> None:
    lgs = _params(parser, LgsParams, args)
    a = load_hashed(args.a)
    b = load_hashed(args.b)
    score, selected, n_p = lgs_match_detail(a, b, lgs)
    if args.detail:
        _write_json(
            Path(args.detail),
            {
                "score": score,
                "n_p": n_p,
                "pairs": [[i, j, s] for i, j, s in selected],
                "config": dataclasses.asdict(lgs),
            },
        )
    print(repr(score))


def _cmd_evaluate(parser: argparse.ArgumentParser, args) -> None:
    mcc = _params(parser, MccParams, args)
    lgs = _params(parser, LgsParams, args)
    key = _key_from_args(parser, args, args.seed, mcc)
    dataset = load_minutiae(args.data)
    report = run_evaluation(dataset, key, mcc, lgs)
    # the config dict is this report's own, so the scores are not copied into a new report
    report.config["data"] = args.data
    out = _out_dir(args)
    report.save(out / "report.json")
    report.write_roc_csv(out / "roc.csv")
    print(f"eer={report.eer!r} ({len(report.genuine_scores)} genuine, {len(report.impostor_scores)} impostor)")


def _cmd_sweep(parser: argparse.ArgumentParser, args) -> None:
    mcc = _params(parser, MccParams, args)
    lgs = _params(parser, LgsParams, args)
    # every grid cell's key is checked before the dataset is read
    with _usage_errors(parser):
        for m in args.m:
            for q in args.q:
                HashKey(seed=args.seed, m=m, q=q, d=mcc.dim)
    dataset = load_minutiae(args.data)
    result = sweep(dataset, args.m, args.q, args.trials, args.seed, mcc, lgs)
    out = _out_dir(args)
    write_sweep_csv(result, out / "sweep_trials.csv", out / "sweep_means.csv")
    print(f"swept {len(result.means)} (m, q) cells x {args.trials} trials into {args.out}")


def _analyze_invert(parser: argparse.ArgumentParser, args) -> None:
    # the bundled cases carry their own banks, so no key, cylinder or matcher flag is read
    report = {
        "mode": "invert",
        "seed": args.seed,
        "attempts": args.attempts,
        "volume_samples": args.volume_samples,
    }
    volume_rows = []
    for number in sorted(cases.CASES):
        case = cases.get_case(number)
        system = security.build_inequalities(case.bank, case.expected_code)
        forged = security.sample_preimage(system, attempts=args.attempts, seed=args.seed)
        entry = {
            "case": case.name,
            "dim": system.variable_dim,
            "constraints": system.n_constraints,
            "target_code": [int(i) for i in case.expected_code],
            "found": forged is not None,
        }
        if forged is not None:
            code = hash_rows(forged[None, :], case.bank)[0]
            entry["forged"] = [float(v) for v in forged]
            entry["rehash_matches"] = bool(np.array_equal(code, case.expected_code))
        # volume of the cone cut by growing constraint prefixes, fixed sample set
        for prefix in range(system.n_constraints + 1):
            sub = security.InequalitySystem(system.normals[:prefix])
            vol = security.preimage_volume_estimate(sub, samples=args.volume_samples, seed=args.seed)
            volume_rows.append((case.name, prefix, vol))
        report[case.name] = entry
    out = _out_dir(args)
    _write_json(out / "invert.json", report)
    write_csv(out / "invert_volume.csv", ["case", "constraints", "volume_estimate"], volume_rows)


def _analyze_unlink(parser: argparse.ArgumentParser, args) -> None:
    if not args.data or args.seed_a is None or args.seed_b is None:
        parser.error("analyze --mode unlink requires --data, --seed-a and --seed-b")
    mcc = _params(parser, MccParams, args)
    lgs = _params(parser, LgsParams, args)
    key_a = _key_from_args(parser, args, args.seed_a, mcc)
    key_b = _key_from_args(parser, args, args.seed_b, mcc)
    with _usage_errors(parser):
        security.check_key_pair(key_a, key_b)
    dataset = load_minutiae(args.data)
    mated, non_mated = security.unlinkability_experiment(dataset, key_a, key_b, mcc, lgs)
    out = _out_dir(args)
    _write_json(
        out / "unlink.json",
        {
            "mode": "unlink",
            "config": evaluation_config(key_a, mcc, lgs) | {"seed_b": key_b.seed, "data": args.data},
            "mated_genuine": mated,
            "non_mated_impostor": non_mated,
            "histogram_intersection": security.histogram_intersection(mated, non_mated),
            "mated_mean": float(np.mean(mated)),
            "non_mated_mean": float(np.mean(non_mated)),
        },
    )
    _write_hist_csv(out / "unlink_hist.csv", {"mated_genuine": mated, "non_mated_impostor": non_mated})


def _analyze_revoke(parser: argparse.ArgumentParser, args) -> None:
    if not args.data or args.base_seed is None:
        parser.error("analyze --mode revoke requires --data and --base-seed")
    mcc = _params(parser, MccParams, args)
    lgs = _params(parser, LgsParams, args)
    base_key = _key_from_args(parser, args, args.base_seed, mcc)
    dataset = load_minutiae(args.data)
    mated, genuine, impostor = security.revocability_experiment(
        dataset, base_key, n_keys=args.n_keys, seed=args.seed, mcc=mcc, lgs=lgs
    )
    out = _out_dir(args)
    _write_json(
        out / "revoke.json",
        {
            "mode": "revoke",
            "config": evaluation_config(base_key, mcc, lgs)
            | {"n_keys": args.n_keys, "fresh_key_seed": args.seed, "data": args.data},
            "mated_genuine": mated,
            "genuine": genuine,
            "impostor": impostor,
            "intersection_mated_vs_impostor": security.histogram_intersection(mated, impostor),
            "intersection_mated_vs_genuine": security.histogram_intersection(mated, genuine),
            "mated_mean": float(np.mean(mated)),
            "genuine_mean": float(np.mean(genuine)),
            "impostor_mean": float(np.mean(impostor)),
        },
    )
    _write_hist_csv(out / "revoke_hist.csv", {"mated_genuine": mated, "genuine": genuine, "impostor": impostor})


_ANALYSES = {"invert": _analyze_invert, "unlink": _analyze_unlink, "revoke": _analyze_revoke}


def _cmd_analyze(parser: argparse.ArgumentParser, args) -> None:
    _ANALYSES[args.mode](parser, args)
    print(f"wrote {args.mode} analysis to {args.out}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # leftovers before the subcommand's name are the top-level parser's and come first; run's parser reports the rest
            leading = unknown[: argv.index(args.command)]
            (parser if leading else args.run.args[0]).error(f"unrecognized arguments: {' '.join(leading or unknown)}")
        args.run(args)
    except SystemExit as exc:  # argparse's exit, also from parser.error inside a handler
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
