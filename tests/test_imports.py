"""Every module imports only what it uses.

No linter is a dependency, so this walks the syntax tree with the standard
library.  A name counts as used when it appears as an identifier anywhere in
the module, or inside a string that parses as an expression (a quoted
annotation such as ``"Matrix"``).  ``__init__.py`` files re-export by
importing, so they are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.glob("src/icx/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def _names_in_string(text: str) -> set:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _names_in_string(node.value)
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Sequence\n\nx: 'Optional[int]' = sys.maxsize\n"
    assert unused_imports(source) == [(1, "os"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
