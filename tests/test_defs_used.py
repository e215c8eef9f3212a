"""Every function, class, method and module-level name defined in the package is
referenced outside its definition, and not by the tests alone.

A stdlib `ast` check over the package, `tests/` and `benches/`.  A module-level
name is one that an assignment (`X = ...` or `X: T = ...`) in a module's body
binds; the assignment is its definition.  A reference
is a name, an attribute, an imported name, or a string constant made of
dotted identifiers (the way `benches/` names the methods and spans it
traces); the strings of `__all__` and `_LAZY`, which list the public names,
and a definition's references to itself do not count.  Dunder names, which
Python reads, and click commands, which their group calls, are exempt.  Names
are matched alone, so a method counts as referenced when any attribute of that
name is.

A definition must also be reached from the package itself, `benches/`, the code
spans and code blocks of README.md, or `tests/test_acceptance.py`: one that
only the other tests reach is test-only API.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterable

import wavemult

PACKAGE = Path(wavemult.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
NAME_LISTS = ("__all__", "_LAZY")  # whose strings name the public API, and reference nothing


def references(tree: ast.AST) -> Counter:
    exported = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                if any(isinstance(t, ast.Name) and t.id in NAME_LISTS for t in assign.targets)
                for node in ast.walk(assign.value)}
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                counts.update(parts)
    return counts


def code_identifiers(markdown: str) -> Counter:
    """The identifiers in the code spans and fenced code blocks of a Markdown text."""
    code = re.findall(r"```[^\n]*\n(.*?)```|`([^`]+)`", markdown, flags=re.S)
    return Counter(re.findall(r"[A-Za-z_]\w*", " ".join(block + span for block, span in code)))


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def exempt(node) -> bool:
    return dunder(node.name) or any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                                    and d.func.attr == "command" for d in node.decorator_list)


def definitions(tree: ast.Module):
    """(name, defining node) for every function, class and method of the tree, and for
    every name bound by an assignment in its body."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS) and not exempt(node):
            yield node.name, node
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not dunder(name.id):
                    yield name.id, node


def unreferenced(modules: list[ast.Module], everything: list[ast.AST],
                 known: Iterable[str] = ()) -> list[tuple[str, int]]:
    """(name, line) of the definitions in `modules` that no tree of `everything` (which
    holds `modules`) references outside the definition itself, and that `known` lacks."""
    total = sum((references(tree) for tree in everything), Counter(known))
    return [(name, node.lineno) for tree in modules for name, node in definitions(tree)
            if total[name] <= references(node)[name]]


def test_the_check_sees_unreferenced_definitions():
    source = (
        "import click\n@click.group()\ndef cli(): ...\n@cli.command('run')\ndef run_cmd(): ...\n"
        "class A:\n    def __init__(self): ...\n    def used(self): return self.other()\n"
        "    def other(self): ...\n    def gone(self): return self.gone()\n"
        "def f(n): return f(n - 1)\ndef g(): ...\n__all__ = ['f']\nTRACED = ('A.used', 'g')\n"
        "__version__ = '1'\nUSED, LEFT = 1, 2\nTYPED: int = USED\nNOTED: int\nA.attr = 3\n"
        "_LAZY = {'lazy': ('TYPED',)}\n"
    )
    tree = ast.parse(source)
    assert sorted(name for name, _ in unreferenced([tree], [tree])) == [
        "LEFT", "NOTED", "TRACED", "TYPED", "_LAZY", "f", "gone"]
    known = code_identifiers("`f(n)` and g\n```python\nTRACED.gone\n```\n`x`")
    assert sorted(known) == ["TRACED", "f", "gone", "n", "x"]
    assert sorted(name for name, _ in unreferenced([tree], [tree], known)) == [
        "LEFT", "NOTED", "TYPED", "_LAZY"]


def test_every_definition_is_referenced():
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    others = [ast.parse(path.read_text()) for folder in ("tests", "benches")
              for path in sorted((ROOT / folder).glob("*.py"))]
    assert [f"{name} (line {line})" for name, line in unreferenced(modules, modules + others)] == []


def test_every_definition_is_reached_outside_the_tests():
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    paths = [*sorted((ROOT / "benches").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    readme = code_identifiers((ROOT / "README.md").read_text())
    reached = modules + [ast.parse(path.read_text()) for path in paths]
    assert [f"{name} (line {line})" for name, line in unreferenced(modules, reached, readme)] == []
