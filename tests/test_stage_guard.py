"""Every pipeline cache commits through one helper: a rename into place
(``os.replace``, ``os.rename`` or a path's ``replace``/``rename``) and the
temporary name (``os.getpid``, a ``.part`` suffix) appear only inside
``PipelineRun._cached_stage``, so no stage commits or checks its cache by
hand."""

import ast
from pathlib import Path

import mulr

SOURCES = sorted(Path(mulr.__file__).parent.glob("*.py"))
HELPER = "_cached_stage"
OS_NAMES = ("replace", "rename", "getpid")


def commit_use(node) -> str | None:
    """The commit step ``node`` is, if any: an ``os`` rename or pid, a
    one-argument ``replace``/``rename`` call (a path's; ``str.replace``
    takes two) or a string holding the ``.part`` suffix."""
    if (isinstance(node, ast.Attribute) and node.attr in OS_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "os"):
        return f"os.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        names = [a.name for a in node.names if a.name in OS_NAMES]
        return f"os.{names[0]}" if names else None
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("replace", "rename")
            and len(node.args) == 1 and not node.keywords):
        return f".{node.func.attr}()"
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".part" in node.value):
        return "'.part'"
    return None


def uses_outside_helper(source: str) -> list[str]:
    """``<use> in <function>`` for each commit step that no ``HELPER``
    encloses; docstrings are text, not steps."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        use = commit_use(node)
        if use and HELPER not in scope:
            found.append(f"{use} in {'.'.join(scope) or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_commit_steps_are_used_only_by_the_helper():
    found = {path.name: uses_outside_helper(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_helper_commits_by_rename_from_a_pid_name():
    source = (Path(mulr.__file__).parent / "pipeline.py").read_text(
        encoding="utf-8")
    helper = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == HELPER)
    uses = {commit_use(node) for node in ast.walk(helper)}
    assert {"os.replace", "os.getpid", "'.part'"} <= uses


def test_guard_finds_an_inline_stage():
    source = '''
from os import rename

class Run:
    def _cached_stage(self, name, outputs, build, load):
        os.replace(part, path)

    def predict_test(self):
        part = path.with_name(f"{path.name}.{os.getpid()}.part")
        write(part)
        part.replace(path)
        return text.replace("a", "b")

commit = os.replace
'''
    assert uses_outside_helper(source) == [
        "os.rename in <module>", "os.getpid in Run.predict_test",
        "'.part' in Run.predict_test", ".replace() in Run.predict_test",
        "os.replace in <module>"]
