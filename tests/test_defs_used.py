"""Every function, class and method defined in the package is referenced outside its definition.

A stdlib `ast` check over the package, `tests/` and `benches/`.  A reference
is a name, an attribute, an imported name, or a string constant made of
dotted identifiers (the way `benches/` names the methods and spans it
traces); the strings of an `__all__` list and a definition's references to
itself do not count.  Dunder methods, which Python calls, and click commands,
which their group calls, are exempt.  Names are matched alone, so a method
counts as referenced when any attribute of that name is.
"""

import ast
from collections import Counter
from pathlib import Path

import wavemult

PACKAGE = Path(wavemult.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    exported = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
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


def exempt(node) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def unreferenced(modules: list[ast.AST], everything: list[ast.AST]) -> list:
    """Definitions in `modules` that no tree of `everything` (which holds `modules`)
    references outside the definition itself."""
    total = sum((references(tree) for tree in everything), Counter())
    return [node for tree in modules for node in ast.walk(tree)
            if isinstance(node, DEFS) and not exempt(node)
            and total[node.name] <= references(node)[node.name]]


def test_the_check_sees_unreferenced_definitions():
    source = (
        "import click\n@click.group()\ndef cli(): ...\n@cli.command('run')\ndef run_cmd(): ...\n"
        "class A:\n    def __init__(self): ...\n    def used(self): return self.other()\n"
        "    def other(self): ...\n    def gone(self): return self.gone()\n"
        "def f(n): return f(n - 1)\ndef g(): ...\n__all__ = ['f']\nTRACED = ('A.used', 'g')\n"
    )
    tree = ast.parse(source)
    assert sorted(node.name for node in unreferenced([tree], [tree])) == ["f", "gone"]


def test_every_definition_is_referenced():
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    others = [ast.parse(path.read_text()) for folder in ("tests", "benches")
              for path in sorted((ROOT / folder).glob("*.py"))]
    assert [f"{node.name} (line {node.lineno})"
            for node in unreferenced(modules, modules + others)] == []
