"""Every SGNS setting comes from the experiment config: ``SgnsConfig`` is
constructed in the package only inside ``pipeline.load_config``, so no
command keeps its own copy of the defaults, bounds or seed rule."""

import ast
from pathlib import Path

import mulr

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))
SETTINGS = "SgnsConfig"
OWNER = ("pipeline.py", "load_config")


def constructions(source: str) -> list[str]:
    """``<function>`` (``<module>`` at the top level) for each call that
    constructs ``SETTINGS``, by bare or qualified name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == SETTINGS:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_sgns_settings_are_built_only_by_load_config():
    found = {(path.name, scope)
             for path in SOURCES
             for scope in constructions(path.read_text(encoding="utf-8"))}
    assert found == {OWNER}


def test_guard_finds_an_inline_construction():
    source = '''
def _cmd_embed(args):
    cfg = SgnsConfig(dim=args.dim, seed=args.seed)

class Runner:
    def main_store(self):
        return embeddings.SgnsConfig()

DEFAULT = SgnsConfig()
'''
    assert constructions(source) == ["_cmd_embed", "main_store", "<module>"]
