"""Standard-library AST scans that stand in for a linter.

Every imported name in the package, the tests and the demos is used: an
import binds a name, and the module must read that name somewhere (string
annotations included).  Package ``__init__.py`` files are exempt, because
their imports are the public re-exports.

Every public function, class and method of the package has a caller outside
the tests: a reference elsewhere in the package or in the demos or the
benchmark, or its name in the CI workflow.  What only tests reach belongs in
the tests.

A package module reads a private attribute (``obj._name``, not a dunder)
through anything but ``self`` only if it defines that name itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [path for folder in ("src/pmcut", "tests", "demos")
           for path in sorted((ROOT / folder).glob("*.py"))]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in SCANNED:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# Names with no caller outside the tests yet, and why they stay.
EXEMPT = {
    "parse_matching": "reads the file of solve-pmc --witness; the planned check-witness calls it",
    "parse_cut": "reads the file of solve-pmc --cut; the planned check-witness calls it",
}


def _public_definitions(tree: ast.Module):
    """(name, node) of every public top-level function and class, and
    (Class.method, node) of every public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name[0] != "_")


def _references(node: ast.AST) -> Counter:
    """Identifiers, attribute names and string constants under node; the
    benchmark names the functions it drives by string."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def test_package_names_have_a_non_test_caller():
    package = {path: ast.parse(path.read_text(), filename=str(path))
               for path in sorted((ROOT / "src/pmcut").glob("*.py"))}
    in_package = sum(map(_references, package.values()), Counter())
    outside = Counter()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside += _references(ast.parse(path.read_text(), filename=str(path)))
    outside.update(re.findall(r"\w+", (ROOT / ".github/workflows/tier1.yml").read_text()))
    unreached = []
    for path, tree in package.items():
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(tree):
            name = qualname.rpartition(".")[2]
            if (qualname in EXEMPT or outside[name]
                    or in_package[name] > _references(node)[name]):
                continue
            unreached.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not unreached, "reached only from tests:\n" + "\n".join(unreached)


def _private(name: str) -> bool:
    return name[0] == "_" and not (name[:2] == "__" and name[-2:] == "__")


def _defined_private_names(tree: ast.Module) -> set[str]:
    """Private names a module defines: its functions, classes and methods,
    and the attributes it assigns."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return {name for name in out if _private(name)}


def test_private_attributes_are_read_where_they_are_defined():
    """Outside ``self``, a package module reads only the private attributes
    it defines itself; another module's private state is reached through
    that module's functions."""
    foreign = []
    for path in sorted((ROOT / "src/pmcut").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = _defined_private_names(tree)
        foreign += [f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _private(node.attr)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                    and node.attr not in defined]
    assert not foreign, "private attributes read outside their module:\n" + "\n".join(foreign)
