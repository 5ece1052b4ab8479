"""The config schema matches the code it configures: each level option read
through ``LevelSpec.opt`` in ``src/mulr`` is typed in
``levels.LEVEL_OPTIONS`` and each typed option is read, and each
``SgnsConfig``/``TrainConfig`` field is a ``pipeline.SCHEMA`` key or set by
another section."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import mulr
from mulr import pipeline
from mulr.embeddings import SgnsConfig
from mulr.levels import KIND_OPTIONS, LEVEL_KINDS, LEVEL_OPTIONS
from mulr.typer import TrainConfig

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))


def opt_reads(source: str) -> list[str]:
    """The option name of each ``.opt(...)`` call in ``source``; a name that
    is not a string literal reads as ``<line N>``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "opt"):
            continue
        arg = node.args[0] if node.args else None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
        else:
            out.append(f"<line {node.lineno}>")
    return out


def test_level_options_read_are_the_typed_ones():
    read = {name for path in SOURCES
            for name in opt_reads(path.read_text(encoding="utf-8"))}
    assert read == set(LEVEL_OPTIONS)


def test_each_option_is_read_by_some_kind():
    assert set(KIND_OPTIONS) <= set(LEVEL_KINDS)
    assert {name for names in KIND_OPTIONS.values() for name in names} \
        == set(LEVEL_OPTIONS)


def test_guard_reads_each_opt_call():
    source = ("k = lv.opt('top_k', 20)\nw = level.opt(name, ())\n"
              "x = opts.get('widths')\n")
    assert opt_reads(source) == ["top_k", "<line 2>"]


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
