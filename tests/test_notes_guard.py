"""Notes are made by the code that owns the finished result, from that
result: no function in ``src/mulr`` takes a ``flags`` list for its callee
to append to."""

import ast
from pathlib import Path

import mulr

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))
PARAMETER = "flags"


def functions_taking(source: str, parameter: str = PARAMETER) -> list[str]:
    """The qualified name of each function in ``source`` with a parameter
    named ``parameter``, of any kind."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == parameter for p in params):
                found.append(".".join(scope + (name,)))
            scope = scope + (name,)
        elif isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_function_takes_a_flags_list():
    found = {path.name: functions_taking(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}


def test_guard_finds_an_inline_flags_parameter():
    source = '''
def wlr(name, store, flags=None):
    return store

class Assembler:
    def frozen_matrix(self, instances, *, flags):
        def row(eid, name, **flags):
            return eid
        return [row(*i) for i in instances]

    def feature_rows(self, instances):
        return instances

note = lambda text, flags: flags.append(text)
'''
    assert functions_taking(source) == [
        "wlr", "Assembler.frozen_matrix", "Assembler.frozen_matrix.row",
        "<lambda>"]
