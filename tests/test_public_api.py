"""Every public name is used by something besides its own unit tests.

A name that ``framepr/__init__.py`` imports must be referenced somewhere
else: in the library outside its own definition and ``__init__.py``, in a
demo, in the benchmark, or in the acceptance suite.  A reference is a loaded
name, an attribute, an import alias or a string constant equal to the name
(the benchmark's tracer names its targets by string).  A public function
that only its unit tests call is dead weight in the public API.  Likewise
every module-level constant of the package (an upper-case name, with or
without a leading underscore) must be read by one of those sources, and
every name a package module imports must be used in that module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framepr"


def _exported() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def _constants() -> list:
    """``module.NAME`` of every upper-case name a package module assigns at top level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                found += [f"{path.stem}.{name.id}" for target in node.targets for name in ast.walk(target)
                          if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id)]
    return found


def _references(tree: ast.AST, owner: str | None = None):
    """(name, enclosing top-level definition) of every reference in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _references(node, node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, owner
        elif isinstance(node, ast.Attribute):
            yield node.attr, owner
        elif isinstance(node, ast.alias):
            yield from ((part, owner) for part in node.name.split("."))
            if node.asname:
                yield node.asname, owner
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, owner
        yield from _references(node, owner)


def _sources() -> list:
    library = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    others = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return library + others + [ROOT / "tests" / "test_acceptance.py"]


@pytest.fixture(scope="module")
def referenced() -> set:
    names = set()
    for path in _sources():
        for name, owner in _references(ast.parse(path.read_text())):
            if name != owner:  # a definition's use of itself is no use
                names.add(name)
    return names


@pytest.mark.parametrize("name", _exported())
def test_public_name_is_used_outside_its_unit_tests(name, referenced):
    assert name in referenced, f"{name} is exported but nothing outside its unit tests uses it"


@pytest.mark.parametrize("constant", _constants())
def test_module_constant_is_read(constant, referenced):
    assert constant.split(".")[1] in referenced, f"{constant} is set but nothing reads it"


class _WithoutImports(ast.NodeTransformer):
    def visit_Import(self, node):
        return None

    visit_ImportFrom = visit_Import


@pytest.mark.parametrize("module", [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"])
def test_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    unused = imported - {name for name, _ in _references(_WithoutImports().visit(tree))}
    assert not unused, f"{module} imports {sorted(unused)} but never uses them"
