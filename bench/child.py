"""One benchmark pass in a fresh process: set up, run the operations, report.

Usage: PYTHONPATH=src python3 bench/child.py SPEC.json

The spec (written by run.py) lists the operations: `giom` command lines run
through `giomhash.cli.main`. Setup is the imports of giomhash, NumPy and
SciPy; the monotonic time at which the first operation can start is
reported as `ready`. Each operation records its start, end and outcome.
With `"trace": true` the spans of spans.py are installed before setup and
written out with the result. With `"capture_codes": true` every operation
also reports a digest of the codes `giomhash.evaluation.hash_dataset`
returned, or None when that name is missing or its result changed shape,
which the harness counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def _codes_digest(value):
    """Digest of a {key: HashedTemplate} mapping, or None if it is not one."""
    import reference

    try:
        return reference.codes_digest({k: v.codes for k, v in value.items()})
    except (AttributeError, TypeError, IndexError):
        return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())

    import giomhash
    import giomhash.cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    captured = []
    if spec["capture_codes"] and hasattr(giomhash.evaluation, "hash_dataset"):
        original = giomhash.evaluation.hash_dataset

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            captured.append(result)
            return result

        giomhash.evaluation.hash_dataset = capturing
    ready = time.monotonic()

    records = []
    for op in spec["ops"]:
        record = {"id": op["id"], "error": None}
        scope = tracer.operation(op["id"]) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                record["exit"] = giomhash.cli.main(op["argv"])
        except Exception as exc:  # an operation's failure is a result, not a harness crash
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["start"], record["end"] = start, time.perf_counter()
        if spec["capture_codes"]:
            record["codes_digest"] = _codes_digest(captured[-1]) if captured else None
            captured.clear()
        if "index" in op:
            record["index"] = op["index"]
        records.append(record)

    result = {"ready": ready, "ops": records}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
