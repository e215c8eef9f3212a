"""The references in `tests/_oracles.py` share no kernel with the library they check.

A stdlib `ast` check of that module: it imports no name of `wavemult` that starts with
`_`, neither the walk `cover` nor `merge_cells`, and reads no attribute whose name starts
with `_` (a private member of a library class, or any other) or is one of those two.  The
table in its docstring names, in its second column, every top-level definition of the
module once, and no other name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "_oracles.py"
KERNELS = {"cover", "merge_cells"}


def kernel_uses(source: str) -> list[str]:
    """The private or kernel names that `source` imports from `wavemult` or reads as attributes."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "wavemult":
            uses += [f"{node.module}.{alias.name}" for alias in node.names
                     if alias.name.startswith("_") or alias.name in KERNELS]
        elif isinstance(node, ast.Import):
            uses += [alias.name for alias in node.names if alias.name.partition(".")[0] == "wavemult"
                     and any(part.startswith("_") for part in alias.name.split("."))]
        elif isinstance(node, ast.Attribute) and (node.attr.startswith("_") or node.attr in KERNELS):
            uses.append(f".{node.attr} (line {node.lineno})")
    return uses


def table_names(source: str) -> list[str]:
    """The names in backticks in the second column of the rows of the module docstring's table."""
    rows = [line for line in (ast.get_docstring(ast.parse(source)) or "").splitlines()
            if line.startswith("|") and not line.startswith("|---")]
    return [name for row in rows[1:] for name in re.findall(r"`([^`]+)`", row.split("|")[2])]


def top_level_names(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return names


def test_the_check_sees_kernels_and_table_gaps():
    source = (
        '"""Doc.\n\n| Verdict | References | Why |\n|---|---|---|\n| a | `f`, `gone` | uses `g` |\n"""\n'
        "import wavemult.exact._x\nfrom wavemult.exact import Interval, _coordinates, cover\n"
        "from wavemult import sigma\nfrom other import _private\n"
        "def f(m): return m._carried, sigma.compose, sigma.merge_cells, m.__dict__\n"
        "def g(): ...\nLIMIT = 3\n"
    )
    assert kernel_uses(source) == [
        "wavemult.exact._x", "wavemult.exact._coordinates", "wavemult.exact.cover",
        "._carried (line 11)", ".merge_cells (line 11)", ".__dict__ (line 11)"]
    assert table_names(source) == ["f", "gone"]
    assert top_level_names(source) == ["f", "g", "LIMIT"]


def test_the_references_use_no_library_kernel():
    assert kernel_uses(ORACLES.read_text()) == []


def test_the_table_names_every_definition_once():
    source = ORACLES.read_text()
    named, defined = Counter(table_names(source)), Counter(top_level_names(source))
    assert [name for name, count in named.items() if count > 1] == []
    assert sorted(named) == sorted(defined)
