"""The README documents exactly the settings the code has: the fields of
its `--config` example are the ones `cli.load_config` accepts, and each
subcommand line of its CLI synopsis lists exactly the options that
subcommand's parser defines."""

import argparse
import json
import re
from pathlib import Path

import pytest

from zkgrid import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _synopsis() -> dict[tuple[str, ...], str]:
    """The README's CLI synopsis, by subcommand path: ("check",),
    ("protocol", "run"), ..."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README, re.S)
    assert block, "README has no CLI synopsis block"
    lines = {}
    for line in block.group(1).splitlines():
        words = line.split()
        assert words[0] == "zkgrid", line
        path = tuple(words[1:3]) if words[1] == "protocol" else (words[1],)
        lines[path] = line
    return lines


def _subparsers(parser) -> dict:
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _parsers() -> dict[tuple[str, ...], object]:
    """Every leaf subcommand's parser, by subcommand path."""
    out = {}
    for name, sub in _subparsers(cli.build_parser()).items():
        nested = _subparsers(sub)
        if nested:
            out.update(((name, n), p) for n, p in nested.items())
        else:
            out[(name,)] = sub
    return out


def test_config_example_names_the_accepted_fields():
    example = re.search(r"`--config` is a JSON file: `(\{.*?\})`", README, re.S)
    assert example, "README has no --config example"
    doc = json.loads(example.group(1))
    assert sorted(doc) == sorted(cli.CONFIG_FIELDS)


def test_synopsis_covers_every_subcommand():
    assert sorted(_synopsis()) == sorted(_parsers())


@pytest.mark.parametrize("path", sorted(_parsers()), ids=" ".join)
def test_synopsis_lists_each_option(path):
    line = _synopsis()[path]
    listed = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", line))
    options = [a.option_strings for a in _parsers()[path]._actions if a.option_strings and a.dest != "help"]
    defined = {s for strings in options for s in strings}
    assert listed <= defined, f"{line!r} lists options the parser lacks: {sorted(listed - defined)}"
    missing = [strings for strings in options if not listed & set(strings)]
    assert not missing, f"{line!r} omits {missing}"
