"""The README documents exactly the settings the code has: the fields of
its `--config` example are the ones `cli.load_config` accepts, and each
subcommand line of its CLI synopsis lists exactly the options that
subcommand's parser defines, its file formats carry the versions
`serialize` writes, its sponge rows per absorb are what compile lays
out, and its sponge param bounds are the ones `SpongeParams` enforces."""

import argparse
import json
import random
import re
from pathlib import Path

import pytest

from zkgrid import cli, serialize
from zkgrid.arithmetize import CompileConfig, compile
from zkgrid.commit import MAX_SPONGE_ROUNDS, MAX_SPONGE_WIDTH, VisibilityMode
from zkgrid.modelgen import random_model

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


@pytest.mark.parametrize("name, version", [
    ("Layout", serialize._LAYOUT_VERSION),
    ("Witness", serialize._WITNESS_VERSION),
])
def test_file_format_versions(name, version):
    """The README's file-format section names each format's current
    version, so a format change that forgets the README fails here."""
    stated = re.findall(rf"\*\*{name}\*\* \(version (\d+)\)", README)
    assert stated == [str(version)], f"README states {name} version(s) {stated}, the code writes {version}"


def test_sponge_rows_per_absorb():
    """The README's rows-per-absorb figure is what compile gives at the
    default sponge params."""
    stated = re.findall(r"Each absorb takes (\d+) rows at the default sponge params", README)
    g = random_model(random.Random(4), max_hw=4, max_c=2, max_layers=2)
    _, stats = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    sponge = stats.regions["sponge"]
    assert stated == [str(sponge["rows"] // sponge["absorbs"])]
    assert sponge["rows"] % sponge["absorbs"] == 0


def test_sponge_param_bounds():
    """The README's config section states the bounds `SpongeParams`
    refuses past."""
    text = " ".join(README.split())
    assert re.findall(r"`t` must lie in 2\.\.(\d+)", text) == [str(MAX_SPONGE_WIDTH)]
    assert re.findall(r"`full_rounds \+ partial_rounds` at most (\d+)", text) == [str(MAX_SPONGE_ROUNDS)]
