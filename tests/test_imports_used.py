"""Every module of the package uses each name it imports.

A stdlib `ast` check: an imported name counts as used when the module's code
mentions it, in an annotation string included.  `__init__.py` is skipped, since
it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import wavemult

MODULES = sorted(p for p in Path(wavemult.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that its code never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    strings = [node.value for ann in annotations if ann is not None for node in ast.walk(ann)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    trees = [tree, *(ast.parse(text, mode="eval") for text in strings)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\nimport os, numpy as np\nfrom x import (a, b as c)\n"
        "def f(v: 'a') -> np.ndarray: ..."
    )
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
