"""No module of the package keeps a module-level import that it never uses.

Each module under src/imperfect (the package's __init__ re-exports by
design and is skipped) is parsed with ast. A name bound by an import
statement at module level counts as used when it appears anywhere else in
the module as a name, including annotations and string annotations.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imperfect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name, line) for every name bound by a module-level import."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "SparsePoly" or "Optional[RatFunc]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_the_package_has_modules_to_scan():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import re\nfrom typing import List, Tuple\nx: List[int] = []\n")
    names = {name for name, _ in imported_names(tree)} - used_names(tree)
    assert names == {"re", "Tuple"}
