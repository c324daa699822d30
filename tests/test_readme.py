"""README's module map names real things: every identifier in a `giomhash.*` row resolves in that module.

A backticked token is checked when it is a plain name or a dotted attribute
path (`GaussianBank.of`); tokens with other punctuation (`(N, d)`,
`matrix(i)`) and builtins (`float`, `repr`) are skipped.
"""

import builtins
import importlib
import operator
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(giomhash\.\w+)` \| (.*) \|$")
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def module_rows(text: str) -> dict[str, str]:
    return {match[1]: match[2] for line in text.splitlines() if (match := ROW.match(line))}


def unresolved(module_name: str, contents: str) -> list[str]:
    module = importlib.import_module(module_name)
    missing = []
    for token in re.findall(r"`([^`]+)`", contents):
        if not NAME.fullmatch(token) or hasattr(builtins, token.split(".")[0]):
            continue
        try:
            operator.attrgetter(token)(module)
        except AttributeError:
            missing.append(token)
    return missing


ROWS = module_rows(README.read_text())


def test_checker_flags_a_stale_name():
    assert {"giomhash.evaluation", "giomhash.matching", "giomhash.model"} <= set(ROWS)
    contents = "`hash_rows`, `GaussianBank.of`, `float`, `(N, d)`, `matrix(i)`, `giom_hash`, `GaussianBank.key`"
    assert unresolved("giomhash.hashing", "`hash_rows`, `GaussianBank.of`") == []
    assert unresolved("giomhash.model", contents) == ["hash_rows", "giom_hash", "GaussianBank.key"]


@pytest.mark.parametrize("module_name", sorted(ROWS))
def test_module_map_names_resolve(module_name):
    assert unresolved(module_name, ROWS[module_name]) == []
