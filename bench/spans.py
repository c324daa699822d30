"""Spans around calls into giomhash's public functions, installed from outside.

The tracer rebinds each traced name where its caller looks it up (for
example `giomhash.evaluation.hash_rows`, which `hash_dataset` calls), so the
package itself carries no tracing code. A span records its name, start,
end, parent span, operation id, whether it raised, and counts taken from
its arguments and result. Parents travel in a context variable; the thread
pool of `evaluation.score_pairs` is swapped for one that runs each task in
a copy of the submitting context, so spans on worker threads keep their
parent. Names that no longer exist are reported as absent.

`analyze` turns the recorded spans into per-span totals: call counts, the
counts above, and self time (duration minus the union of child spans).
This module imports only the standard library; the harness uses `analyze`
without importing giomhash.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

_parent = contextvars.ContextVar("bench_span_parent", default=None)
_op = contextvars.ContextVar("bench_op", default=None)


def _rows(result):
    return {"rows": int(result.vectors.shape[0])}


def _bank(args, kwargs):
    key = args[0] if args else kwargs["key"]
    return {"matrices": key.m, "bytes_computed": key.m * key.d * key.q * 8}


def _hash_rows(args, kwargs, result):
    bank = args[1] if len(args) > 1 else kwargs["bank"]
    n = int(result.shape[0])
    return {
        "rows": n,
        "flops_computed": 2 * n * bank.d * bank.m * bank.q,
        "tensor_bytes_computed": n * bank.m * bank.q * 8,
    }


def _cells(result):
    return {"cells": int(result.shape[0]) * int(result.shape[1])}


def _pairs(args, kwargs):
    pairs = args[0] if args else kwargs["pairs"]
    return {"pairs": len(pairs)}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bank_size(args, kwargs):
    key = args[0] if args else kwargs["key"]
    return key.m * key.d * key.q


def _tensor_size(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    bank = args[1] if len(args) > 1 else kwargs["bank"]
    return len(rows) * bank.m * bank.q


# (span name, home module, attribute, caller modules that look the name up,
#  counts from (args, kwargs) before the call, counts from (args, kwargs,
#  result) after it, size of the call for sampling its tracemalloc peak)
SPANS = [
    ("cli.main", "giomhash.cli", "main", [], None, None, None),
    ("mcc.encode_cylinders", "giomhash.mcc", "encode_cylinders",
     ["giomhash", "giomhash.evaluation", "giomhash.cli"], None, lambda a, k, r: _rows(r), None),
    ("randomness.derive_bank", "giomhash.randomness", "derive_bank",
     ["giomhash", "giomhash.evaluation", "giomhash.cli"], _bank, None, _bank_size),
    ("hashing.hash_rows", "giomhash.hashing", "hash_rows",
     ["giomhash", "giomhash.evaluation", "giomhash.cli"], None, _hash_rows, _tensor_size),
    ("hashing.giom_hash", "giomhash.hashing", "giom_hash", ["giomhash", "giomhash.cli"], None, None, None),
    ("matching.lgs_match", "giomhash.matching", "lgs_match",
     ["giomhash", "giomhash.evaluation", "giomhash.security"], None, None, None),
    ("matching.similarity_matrix", "giomhash.matching", "similarity_matrix",
     ["giomhash"], None, lambda a, k, r: _cells(r), None),
    ("evaluation.hash_dataset", "giomhash.evaluation", "hash_dataset", ["giomhash.security"], None, None, None),
    ("evaluation.score_pairs", "giomhash.evaluation", "score_pairs", ["giomhash.security"], _pairs, None, None),
    ("evaluation.compute_eer", "giomhash.evaluation", "compute_eer", ["giomhash"], None, None, None),
    ("evaluation.EvalReport.save", "giomhash.evaluation", "EvalReport.save", [], None,
     lambda a, k, r: {"bytes": _file_bytes(a[1] if len(a) > 1 else k["path"])}, None),
    ("security.revocability_experiment", "giomhash.security", "revocability_experiment",
     ["giomhash"], None, None, None),
    ("model.load_minutiae", "giomhash.model", "load_minutiae", ["giomhash", "giomhash.cli"], None,
     lambda a, k, r: {"files": len(r)}, None),
    ("model.save_hashed", "giomhash.model", "save_hashed", ["giomhash", "giomhash.cli"], None,
     lambda a, k, r: {"bytes": _file_bytes(a[1] if len(a) > 1 else k["path"])}, None),
    ("model.load_hashed", "giomhash.model", "load_hashed", ["giomhash", "giomhash.cli"],
     lambda a, k: {"bytes": _file_bytes(a[0] if a else k["path"])}, None, None),
]

SPAN_NAMES = [spec[0] for spec in SPANS]


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans in memory; `install` rebinds the traced names."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)

    def install(self) -> None:
        for name, module, attr, callers, before, after, size in SPANS:
            home = _resolve(module, attr)
            if home is None:
                self.absent.append(name)
                continue
            original = getattr(*home)
            wrapped = self._wrap(name, original, before, after, size)
            setattr(*home, wrapped)
            for caller in callers:
                site = _resolve(caller, attr.split(".")[-1])
                if site is not None and getattr(*site) is original:
                    setattr(*site, wrapped)
        pool_site = _resolve("giomhash.evaluation", "ThreadPoolExecutor")
        if pool_site is not None:
            setattr(*pool_site, _ContextPool)

    @contextlib.contextmanager
    def operation(self, op_id: str):
        """Mark every span inside the block with op_id."""
        token = _op.set(op_id)
        try:
            yield
        finally:
            _op.reset(token)

    def _wrap(self, name, fn, before, after, size):
        """Span-recording wrapper around fn.

        tracemalloc runs only inside calls larger (by `size`) than every
        earlier call of the span, so the largest call's peak is recorded
        while the many small calls run at full speed.
        """
        tracer = self
        largest = 0

        def traced(*args, **kwargs):
            nonlocal largest
            span_id = next(tracer._ids)
            parent = _parent.get()
            counts = _call(before, {}, args, kwargs)
            token = _parent.set(span_id)
            call_size = _call(size, 0, args, kwargs)
            own_tracemalloc = call_size > largest and not tracemalloc.is_tracing()
            if own_tracemalloc:
                largest = call_size
                tracemalloc.start()
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                if own_tracemalloc:
                    counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                _parent.reset(token)
                record = {
                    "id": span_id,
                    "name": name,
                    "parent": parent,
                    "op": _op.get(),
                    "start": start,
                    "end": end,
                    "error": error,
                    "counts": counts,
                }
                tracer.spans.append(record)
            counts.update(_call(after, {}, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def _call(counter, default, *call):
    """A counter's value, or default when there is none or it no longer fits the signature."""
    if counter is None:
        return default
    try:
        return counter(*call)
    except (AttributeError, IndexError, KeyError, TypeError):
        return default


# ---------------------------------------------------------------------------
# analysis (harness side)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyze(spans, ops=None) -> dict:
    """Per-span-name totals: calls, errors, self_s, summed counts and peak bytes.

    `ops`, when given, restricts the totals to spans whose operation id is in it.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict = {}
    for span in spans:
        if ops is not None and span["op"] not in ops:
            continue
        t = totals.setdefault(span["name"], {"calls": 0, "errors": 0, "self_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["errors"] += int(span["error"])
        inner = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
            if e > span["start"] and s < span["end"]
        ]
        t["self_s"] += (span["end"] - span["start"]) - _union_length(inner)
        for key, value in span["counts"].items():
            if key == "peak_bytes":
                t["counts"][key] = max(t["counts"].get(key, 0), value)
            else:
                t["counts"][key] = t["counts"].get(key, 0) + value
    return totals


def root_time(spans, ops=None) -> float:
    """Wall time covered by the top-level spans (those without a parent)."""
    return _union_length(
        (s["start"], s["end"]) for s in spans if s["parent"] is None and (ops is None or s["op"] in ops)
    )
