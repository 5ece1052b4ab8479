"""Every pipeline cache goes through one helper: ``_cached`` and
``_write_meta`` are named only inside ``PipelineRun._cached_stage``, so no
stage checks or writes its sidecars by hand."""

import ast
from pathlib import Path

import mulr

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))
HELPER = "_cached_stage"
CACHE_FUNCTIONS = ("_cached", "_write_meta")


def uses_outside_helper(source: str) -> list[str]:
    """``<name> in <function>`` for each use of a cache function that no
    ``HELPER`` encloses."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in CACHE_FUNCTIONS and HELPER not in scope:
            found.append(f"{name} in {'.'.join(scope) or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_cache_functions_are_used_only_by_the_helper():
    found = {path.name: uses_outside_helper(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_helper_uses_both_cache_functions():
    source = (Path(mulr.__file__).parent / "pipeline.py").read_text(
        encoding="utf-8")
    helper = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == HELPER)
    names = {node.id for node in ast.walk(helper)
             if isinstance(node, ast.Name)}
    assert set(CACHE_FUNCTIONS) <= names


def test_guard_finds_an_inline_stage():
    source = '''
class Run:
    def _cached_stage(self, name, key, outputs, build, load):
        if all(_cached(p, key) for p in outputs.values()):
            return load()

    def predict_test(self):
        if _cached(path, key):
            return path
        write(path)
        _write_meta(path, key, self.cfg.seed)

check = pipeline._cached
'''
    assert uses_outside_helper(source) == [
        "_cached in Run.predict_test", "_write_meta in Run.predict_test",
        "_cached in <module>"]
