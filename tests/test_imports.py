"""No module of the package keeps a module-level import that it never uses,
and no private module-level name is left that the package never reads.

Each module under src/imperfect (the package's __init__ re-exports by
design and is skipped) is parsed with ast. A name bound by an import
statement at module level counts as used when it appears anywhere else in
the module as a name, including annotations and string annotations.

A private name (one leading underscore) that a module defines at module
level, by def, class or assignment, counts as referenced when any module of
the package, __init__ included, reads it: as a name, as an attribute, or
in a from-import. Tests do not count, so a helper that only tests call
belongs in the tests. The same holds for a public def or class at module
level: some module of the package reads it, or __init__ exports it. A
method or property of a module-level class, other than a dunder, is reached
only as an attribute, so its name must be read as an attribute somewhere in
the package; like the other rules, this one goes by name, not by class.

No module writes into the terms dict of a polynomial. A product by 1 hands
back its other factor, so polynomials and field elements are shared, and a
write into one would change every holder of it. The scan flags item
assignment and deletion on a `.terms` attribute, its mutating dict methods,
and rebinding `.terms` outside an __init__.

Only pbasis names `p_monomial`: everywhere else a tuple's p-monomials are
read from its PBasis, which builds them once.

No package import hides inside a function, except the one that breaks a
real cycle: tower's `IndifferentSpec.torus_data` imports `_torus_data` from
sp4, which imports tower. Every other module is imported at module level,
so what a module depends on shows at its top.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imperfect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


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


def private_definitions(tree):
    """(name, line) for every private name defined at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def referenced_names(tree):
    """Names read anywhere in the module: loaded names, attributes, from-imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_private_name_goes_unreferenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    refs = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = [f"{name} ({module}:{line})" for module, tree in trees.items()
                    for name, line in private_definitions(tree) if name not in refs]
    assert not unreferenced, f"never referenced in src: {', '.join(unreferenced)}"


def test_the_scan_sees_an_unreferenced_private_name():
    tree = ast.parse("import m\n_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f():\n    return _A + m._g()\n"
                     "class _C:\n    pass\nx = _C\n")
    names = {name for name, _ in private_definitions(tree)} - referenced_names(tree)
    assert names == {"_B", "_f"}


def public_definitions(tree):
    """(name, line) for every public def or class at module level."""
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_no_public_definition_goes_unread():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    refs = set().union(*(referenced_names(tree) for tree in trees.values()))
    unread = [f"{name} ({module}:{line})" for module, tree in trees.items()
              if module != "__init__.py"
              for name, line in public_definitions(tree) if name not in refs]
    assert not unread, f"neither read in src nor exported: {', '.join(unread)}"


def test_the_scan_sees_an_unread_public_definition():
    tree = ast.parse("from .m import g\nX = 1\n"
                     "def f():\n    return h()\n"
                     "def h():\n    return g\n"
                     "class C:\n    def method(self):\n        pass\n"
                     "class D:\n    pass\n"
                     "def _private():\n    return D\n")
    names = {name for name, _ in public_definitions(tree)} - referenced_names(tree)
    assert names == {"f", "C"}


def method_definitions(tree):
    """(class, name, line) for every method or property of a module-level
    class, dunders left out."""
    return [(node.name, item.name, item.lineno) for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def attribute_names(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_no_method_goes_unread():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    read = set().union(*(attribute_names(tree) for tree in trees.values()))
    unread = [f"{cls}.{name} ({module}:{line})" for module, tree in trees.items()
              for cls, name, line in method_definitions(tree) if name not in read]
    assert not unread, f"never read in src: {', '.join(unread)}"


def test_the_scan_sees_an_unread_method():
    tree = ast.parse("class C:\n"
                     "    def __init__(self):\n        self.used()\n"
                     "    def used(self):\n        return self.size\n"
                     "    @property\n    def size(self):\n        return 1\n"
                     "    @property\n    def length(self):\n        return 2\n"
                     "    def unread(self, length):\n        return length\n"
                     "def f(x):\n    def inner():\n        pass\n    return inner\n")
    names = {name for _, name, _ in method_definitions(tree)} - attribute_names(tree)
    assert names == {"length", "unread"}


DICT_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_writes(tree):
    """(kind, line) for every write into a `.terms` dict."""
    in_init = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "__init__" for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_terms(node.value):
            if isinstance(node.ctx, ast.Store):
                out.append(("assign", node.lineno))
            elif isinstance(node.ctx, ast.Del):
                out.append(("delete", node.lineno))
        elif _is_terms(node) and not isinstance(node.ctx, ast.Load) and id(node) not in in_init:
            out.append(("rebind", node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_MUTATORS and _is_terms(node.func.value)):
            out.append((node.func.attr, node.lineno))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_writes_into_polynomial_terms(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    writes = [f"{kind} (line {line})" for kind, line in terms_writes(tree)]
    assert not writes, f"{path.name} writes into a .terms dict: {', '.join(writes)}"


def test_the_scan_sees_writes_into_terms():
    tree = ast.parse(
        "f.terms[k] = 1\n"
        "f.terms[k] += 1\n"
        "del f.terms[k]\n"
        "f.terms.update(g.terms)\n"
        "f.terms.pop(k)\n"
        "f.terms.popitem()\n"
        "f.terms.setdefault(k, 1)\n"
        "f.terms.clear()\n"
        "f.terms, g = {}, 1\n"
        "class P:\n"
        "    def __init__(self, terms):\n"
        "        self.terms = terms\n"
        "out = dict(f.terms)\n"
        "out[k] = f.terms[k] + f.terms.get(k, 0)\n"
        "out.pop(k)\n"
    )
    assert sorted(terms_writes(tree), key=lambda w: w[1]) == [
        ("assign", 1), ("assign", 2), ("delete", 3), ("update", 4), ("pop", 5),
        ("popitem", 6), ("setdefault", 7), ("clear", 8), ("rebind", 9),
    ]


def p_monomial_references(tree):
    """Lines that name p_monomial: as a name, an attribute or a from-import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "p_monomial" in names:
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", [p for p in ALL_MODULES if p.name != "pbasis.py"],
                         ids=lambda p: p.name)
def test_only_pbasis_builds_p_monomials(path):
    lines = p_monomial_references(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} names p_monomial on lines {lines}; read PBasis.monomials"


def test_the_scan_sees_p_monomial():
    tree = ast.parse(
        "from .pbasis import p_monomial\n"
        "m = p_monomial(ctx, 1, a)\n"
        "n = pbasis.p_monomial(ctx, 2, a)\n"
        "k = basis.monomials[1] * p_monomials\n"
        "def f():\n"
        "    from .pbasis import monomial_exponents, p_monomial as pm\n"
    )
    assert sorted(p_monomial_references(tree)) == [1, 2, 3, 6]


# (module, function, imported module) of the one function-level import allowed
CYCLE_IMPORTS = {("tower.py", "torus_data", "sp4")}


def function_level_imports(tree):
    """(innermost function, imported module, line) for every relative import in a function."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if func and isinstance(child, ast.ImportFrom) and child.level > 0:
                out.append((func, child.module, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return out


def test_no_package_import_hides_inside_a_function():
    found = {(path.name, name, module) for path in ALL_MODULES
             for name, module, _ in function_level_imports(
                 ast.parse(path.read_text(), filename=str(path)))}
    assert found == CYCLE_IMPORTS


def test_the_scan_sees_a_function_level_import():
    tree = ast.parse(
        "from .field import parse_element\n"
        "import json\n"
        "def f():\n"
        "    from .sp4 import Mat4\n"
        "    import re\n"
        "class C:\n"
        "    def g(self):\n"
        "        if self:\n"
        "            from . import pbasis\n"
        "        from json import dumps\n"
        "        def h():\n"
        "            from .tower import Config\n"
    )
    assert function_level_imports(tree) == [("f", "sp4", 4), ("g", None, 9), ("h", "tower", 12)]
