"""README names real things.

Every identifier in a `giomhash.*` row of the module map resolves in that
module. A backticked token is checked when it is a plain name or a dotted
attribute path (`GaussianBank.of`); tokens with other punctuation (`(N, d)`,
`matrix(i)`) and builtins (`float`, `repr`) are skipped.

Every `giom` line of the "Command line" block parses with the CLI's parser;
none is run here. CI's step that runs the block takes its lines from
`command_lines`, so both see the same argv lists.
"""

import builtins
import importlib
import operator
import re
import shlex
from pathlib import Path

import pytest

from giomhash.cli import build_parser

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


def command_lines(text: str) -> list[list[str]]:
    """The argv of each `giom` line in the Command line block; continuations joined, comments skipped."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    return [argv for argv in commands if argv[0] == "giom"]


ROWS = module_rows(README.read_text())
COMMANDS = command_lines(README.read_text())


def test_checker_flags_a_stale_name():
    assert {"giomhash.evaluation", "giomhash.matching", "giomhash.model"} <= set(ROWS)
    contents = "`hash_rows`, `GaussianBank.of`, `float`, `(N, d)`, `matrix(i)`, `giom_hash`, `GaussianBank.key`"
    assert unresolved("giomhash.hashing", "`hash_rows`, `GaussianBank.of`") == []
    assert unresolved("giomhash.model", contents) == ["hash_rows", "giom_hash", "GaussianBank.key"]


@pytest.mark.parametrize("module_name", sorted(ROWS))
def test_module_map_names_resolve(module_name):
    assert unresolved(module_name, ROWS[module_name]) == []


def test_command_block_covers_every_subcommand():
    # an empty block would leave test_command_line_parses nothing to check
    assert {argv[1] for argv in COMMANDS} == {"gen-data", "hash", "match", "evaluate", "sweep", "analyze"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{i}-{argv[1]}" for i, argv in enumerate(COMMANDS)])
def test_command_line_parses(argv):
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {shlex.join(argv)}")
