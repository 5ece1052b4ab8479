"""The package depends on numpy alone: every top-level import in
``src/mulr`` is relative, from the standard library, or numpy."""

import ast
import sys
from pathlib import Path

import pytest

import mulr

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """``line: module`` for each module-level import of ``source`` that is
    not relative, not in the standard library and not numpy."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        out += [f"{node.lineno}: {m}" for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names
                and m.partition(".")[0] != "numpy"]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_foreign_import():
    source = ("from __future__ import annotations\nimport json, scipy\n"
              "import numpy.linalg\nfrom . import nn\n"
              "from scipy.sparse import csr_matrix\n")
    assert foreign_imports(source) == ["2: scipy", "5: scipy.sparse"]
