"""giomhash benchmark: one workload, measured from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads are defined in workloads.py: verify, gallery, key-churn.
The harness writes the workload's inputs from --seed and computes the
reference outputs (reference.py) before anything is timed. It then runs
passes, each in a fresh child process with PYTHONPATH=src, until --seconds
have elapsed, checks every operation's output against the reference, and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over passes):

- setup_s: child spawn until its first operation can start (the imports);
- wall_s: wall time of one pass's operations;
- peak_rss_mb: the child's maximum resident set.

With --trace 1, passes alternate between untraced and traced children and
the metrics are the per-layer ones from the spans of spans.py; the report
also states whether each workload's predicted dominant layer held.
Scratch files live under .bench_work/ and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, median_low

BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MB = 1024.0 * 1024.0


def environment(root: Path) -> dict:
    import numpy
    import scipy

    env = {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / MB),
        "machine": platform.machine(),
    }
    env.update(_blas_info(numpy))
    return env


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest(root: Path) -> str:
    """sha256 over the package's source files, which identifies the program without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "giomhash").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_info(numpy) -> dict:
    import ctypes

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        info["blas_threads"] = get_threads()
        info["blas_config"] = get_config().decode()
    return info


def run_child(root: Path, spec: dict, pass_dir: Path, timeout: float) -> dict:
    """Run one pass; return spawn time, rusage peak, exit status and the child's result."""
    pass_dir.mkdir(parents=True)
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log_path = pass_dir / "child.log"
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
        killed, exited, lock = [], threading.Event(), threading.Lock()

        def kill_on_timeout():
            with lock:
                if not exited.is_set():
                    killed.append(True)
                    os.kill(proc.pid, signal.SIGKILL)

        # block rather than poll, so that the harness takes no CPU from the pass; wait
        # without reaping first, so that the timer never signals a pid that is no longer ours
        timer = threading.Timer(timeout, kill_on_timeout)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited.set()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    result_path = Path(spec["result"])
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        tail = log_path.read_text()[-2000:]
        print(f"child exited with {proc.returncode}{' (timed out)' if killed else ''}:\n{tail}", file=sys.stderr)
    return {"spawn": spawn, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode, "result": result}


def check_pass(workload, spec: dict, child: dict, pass_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure reasons) for one pass."""
    if child["result"] is None:
        return len(spec["ops"]), len(spec["ops"]), [f"child exit {child['exit']}"]
    failed, reasons = 0, []
    for op in child["result"]["ops"]:
        if op["error"]:
            reason = op["error"]
        elif op.get("exit", 0) != 0:
            reason = f"exit code {op['exit']}"
        else:
            try:
                reason = workload.check(op, pass_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            failed += 1
            reasons.append(f"{op['id']}: {reason}")
    missing = len(spec["ops"]) - len(child["result"]["ops"])
    return len(spec["ops"]), failed + missing, reasons


def per_layer(spans) -> dict:
    """Per-layer metric values of one traced pass."""
    import spans as spans_mod

    totals = spans_mod.analyze(spans)

    def get(name, field):
        t = totals.get(name)
        if t is None:
            return 0
        if field in ("calls", "self_s"):
            return t[field]
        if field == "peak_mb":
            return t["counts"].get("peak_bytes", 0) / MB
        return t["counts"].get(field, 0)

    values = {}
    for metric, _unit in PER_LAYER:
        if metric.startswith("trace.") or metric == "matching.cells_per_pair":
            continue
        name, field = metric.rsplit(".", 1)
        values[metric] = get(name, field)
    # one similarity matrix per comparison, whether via lgs_match or `giom match`
    comparisons = get("matching.similarity_matrix", "calls")
    values["matching.cells_per_pair"] = get("matching.similarity_matrix", "cells") / comparisons if comparisons else 0
    return values


# Times (self_s, peak_mb) only of spans that every workload calls, so that no
# time reads 0 on every run; counts of spans only some workloads call are 0
# on the others. Every span's calls, self time and errors are printed in the
# traced report.
PER_LAYER = [
    ("mcc.encode_cylinders.calls", "count"),
    ("mcc.encode_cylinders.rows", "count"),
    ("mcc.encode_cylinders.self_s", "s"),
    ("randomness.derive_bank.calls", "count"),
    ("randomness.derive_bank.matrices", "count"),
    ("randomness.derive_bank.self_s", "s"),
    ("randomness.derive_bank.peak_mb", "MB"),
    ("randomness.derive_bank.bytes_computed", "B"),
    ("hashing.hash_rows.calls", "count"),
    ("hashing.hash_rows.rows", "count"),
    ("hashing.hash_rows.self_s", "s"),
    ("hashing.hash_rows.peak_mb", "MB"),
    ("hashing.hash_rows.flops_computed", "flop"),
    ("hashing.hash_rows.tensor_bytes_computed", "B"),
    ("hashing.giom_hash.calls", "count"),
    ("matching.lgs_match.calls", "count"),
    ("matching.lgs_match.self_s", "s"),
    ("matching.similarity_matrix.cells", "count"),
    ("matching.similarity_matrix.self_s", "s"),
    ("matching.cells_per_pair", "count"),
    ("evaluation.hash_dataset.calls", "count"),
    ("evaluation.hash_dataset.self_s", "s"),
    ("evaluation.score_pairs.pairs", "count"),
    ("evaluation.score_pairs.self_s", "s"),
    ("evaluation.compute_eer.calls", "count"),
    ("evaluation.compute_eer.self_s", "s"),
    ("evaluation.EvalReport.save.bytes", "B"),
    ("security.revocability_experiment.calls", "count"),
    ("model.load_minutiae.files", "count"),
    ("model.load_minutiae.self_s", "s"),
    ("model.save_hashed.bytes", "B"),
    ("model.load_hashed.bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _pass_wall(result: dict) -> float:
    ops = result["ops"]
    return ops[-1]["end"] - ops[0]["start"]


def report_trace(workload, traced: list[dict]) -> None:
    """Print every span's totals and whether each predicted dominant layer held.

    Shares are of the summed self time of all spans plus the operations'
    time outside any span; spans on pool threads count separately, so with
    threads the denominator exceeds the operations' wall time.
    """
    last = traced[-1]["result"]
    if last.get("absent"):
        print(f"absent spans (name not found): {', '.join(last['absent'])}")
    for prefix, predicted in workload.predictions:
        _report_scope(last, prefix, predicted)


def _report_scope(result: dict, prefix: str | None, predicted: tuple[str, ...]) -> None:
    import spans as spans_mod

    ops = None if prefix is None else {op["id"] for op in result["ops"] if op["id"].startswith(prefix)}
    op_time = sum(op["end"] - op["start"] for op in result["ops"] if ops is None or op["id"] in ops)
    totals = spans_mod.analyze(result["spans"], ops)
    outside = op_time - spans_mod.root_time(result["spans"], ops)
    total = outside + sum(t["self_s"] for t in totals.values())
    scope_text = "all ops" if prefix is None else f"{prefix} ops"
    print(f"spans of the last traced pass ({scope_text}: {op_time:.3f} s wall, {total:.3f} s summed self time):")
    print(f"  {'span':36s} {'calls':>7s} {'self_s':>9s} {'share':>6s} {'errors':>6s}  counts")
    for name in spans_mod.SPAN_NAMES:
        t = totals.get(name)
        if t is None:
            continue
        counts = {("peak_mb" if k == "peak_bytes" else k): (round(v / MB, 1) if k == "peak_bytes" else v)
                  for k, v in t["counts"].items()}
        print(f"  {name:36s} {t['calls']:7d} {t['self_s']:9.4f} {t['self_s'] / total:6.1%} "
              f"{t['errors']:6d}  {counts}")
    print(f"  {'(outside any span)':36s} {'':7s} {outside:9.4f} {outside / total:6.1%}")
    share = sum(totals[n]["self_s"] for n in predicted if n in totals)
    top_other = max(((t["self_s"], n) for n, t in totals.items() if n not in predicted), default=(0.0, "none"))
    verdict = "HELD" if share > top_other[0] else "NOT HELD"
    print(f"predicted dominant layer: {' + '.join(predicted)} ({scope_text}): {verdict}, "
          f"self-time share {share / total:.1%}; largest other span {top_other[1]} {top_other[0] / total:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated harness still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "giomhash" / "__init__.py").is_file():
        print(f"error: {root}/src/giomhash not found; run from the repository root", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = workloads.make(args.workload)
    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return _run(args, root, workload, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


def _run(args, root: Path, workload, work_dir: Path, started: float) -> int:
    workload.prepare(work_dir, args.seed)
    env = environment(root)
    print(f"bench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"why: {workload.why}")
    print(f"work per pass: {workload.work()}")
    print(f"inputs and reference prepared in {time.monotonic() - started:.2f} s (not timed)")

    untraced, traced, failures = [], [], []
    attempted = failed = 0
    measure_start = time.monotonic()
    longest = 0.0
    k = 0
    while True:
        elapsed = time.monotonic() - measure_start
        need_traced = args.trace and not traced
        if k > 0 and elapsed >= args.seconds and not need_traced:
            break
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        if k > 0 and remaining < 2.0 * longest + 5.0:
            print(f"stopping early: {remaining:.0f} s of the run budget left", file=sys.stderr)
            break
        trace = bool(args.trace) and k % 2 == 1
        pass_dir = work_dir / f"pass{k:03d}"
        spec = workload.plan(pass_dir)
        spec.update(trace=trace, result=str(pass_dir / "result.json"))
        pass_start = time.monotonic()
        child = run_child(root, spec, pass_dir, timeout=max(remaining - 5.0, 1.0))
        longest = max(longest, time.monotonic() - pass_start)
        n_attempted, n_failed, reasons = check_pass(workload, spec, child, pass_dir)
        attempted += n_attempted
        failed += n_failed
        failures += reasons
        if child["result"] is not None:
            (traced if trace else untraced).append(child)
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1

    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; operations attempted {attempted}, "
          f"failed {failed}, error_rate {failed / max(attempted, 1):.4f}")

    metrics = {}
    if untraced:
        setup = [c["result"]["ready"] - c["spawn"] for c in untraced]
        walls = [_pass_wall(c["result"]) for c in untraced]
        rss = [c["rss_mb"] for c in untraced]
        print(f"  setup_s {median(setup):.4f} s (median of {len(setup)}; min {min(setup):.4f}, max {max(setup):.4f})")
        print(f"  wall_s {median(walls):.4f} s (median of {len(walls)}: {' '.join(f'{w:.3f}' for w in walls)})")
        print(f"  peak_rss_mb {median(rss):.1f} MB (median of {len(rss)}; max {max(rss):.1f})")
        if not args.trace:
            metrics = {
                "setup_s": {"value": median(setup), "unit": "s"},
                "wall_s": {"value": median(walls), "unit": "s"},
                "peak_rss_mb": {"value": median(rss), "unit": "MB"},
            }
    if args.trace and traced:
        report_trace(workload, traced)
        layers = [per_layer(c["result"]["spans"]) for c in traced]
        traced_wall = median(_pass_wall(c["result"]) for c in traced)
        untraced_wall = median(_pass_wall(c["result"]) for c in untraced) if untraced else traced_wall
        print(f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced {untraced_wall:.4f} s "
              f"= {traced_wall - untraced_wall:.4f} s")
        for metric, unit in PER_LAYER:
            if metric == "trace.wall_s":
                value = traced_wall
            elif metric == "trace.overhead_s":
                value = traced_wall - untraced_wall
            else:
                # counts repeat exactly, so keep them whole rather than averaging two middles
                pick = median if unit in ("s", "MB") else median_low
                value = pick(layer[metric] for layer in layers)
            metrics[metric] = {"value": value, "unit": unit}

    correct = failed == 0 and attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
