"""The config schema matches the code it configures: each level option read
as ``<level>.options["name"]`` in ``src/mulr`` has a default in
``levels.KIND_DEFAULTS`` and each default is read, no level reads an
option with a default of its own, and each ``SgnsConfig``/``TrainConfig``
field is a ``pipeline.SCHEMA`` key or set by another section."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import mulr
from mulr import pipeline
from mulr.embeddings import SgnsConfig
from mulr.levels import KIND_DEFAULTS, LEVEL_KINDS, LEVEL_OPTIONS
from mulr.typer import TrainConfig

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))


def option_reads(source: str) -> list[str]:
    """The option name of each ``<x>.options[...]`` read in ``source``; a
    name that is not a string literal, and each ``<x>.options.get(...)``
    with a literal name (a default of the reader's own), read as
    ``<line N>``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "options"):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                out.append(key.value)
            else:
                out.append(f"<line {node.lineno}>")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "options"
              and node.args and isinstance(node.args[0], ast.Constant)):
            out.append(f"<line {node.lineno}>")
    return sorted(out)


def test_level_options_read_are_the_typed_ones():
    read = {name for path in SOURCES
            for name in option_reads(path.read_text(encoding="utf-8"))}
    assert read == {name for defaults in KIND_DEFAULTS.values()
                    for name in defaults}


def test_each_option_is_read_by_some_kind():
    assert set(KIND_DEFAULTS) <= set(LEVEL_KINDS)
    assert {name for defaults in KIND_DEFAULTS.values()
            for name in defaults} == set(LEVEL_OPTIONS)


def test_guard_reads_each_option_read():
    source = ("k = lv.options['top_k']\nw = level.options[name]\n"
              "x = opts['widths']\nd = lv.options.get('char_dim', 3)\n"
              "e = lv.options.get(name, value)\n")
    assert option_reads(source) == ["<line 2>", "<line 4>", "top_k"]


@pytest.mark.parametrize("cls,section,elsewhere", [
    (SgnsConfig, "embeddings", pipeline.SGNS_SET_ELSEWHERE),
    (SgnsConfig, "subword", pipeline.SGNS_SET_ELSEWHERE),
    (TrainConfig, "train", pipeline.TRAIN_SET_ELSEWHERE),
])
def test_each_field_is_a_key_or_set_elsewhere(cls, section, elsewhere):
    names = {f.name for f in fields(cls)}
    keys = pipeline.SCHEMA[section]
    assert set(elsewhere) <= names
    for f in fields(cls):
        assert (f.name in keys) != (f.name in elsewhere), f.name
        if f.name in keys:
            assert keys[f.name] is type(f.default), f.name
