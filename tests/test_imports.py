"""Every module of the package uses each name it imports, none reads a
pair's ``certificate``, and only naming and display read a quadratic
ring's ``half_basis``."""

import ast
from pathlib import Path

import pytest

import polydecomp

PACKAGE = Path(polydecomp.__file__).parent

#: Modules whose imports are the package's public names, not their own use.
RE_EXPORTERS = {"__init__.py"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{name bound by an import: its line}, __future__ imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, those inside string annotations too."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name not in RE_EXPORTERS)


def certificate_reads(tree: ast.Module) -> list[int]:
    """Lines that read an attribute named ``certificate``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "certificate"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert unused == {}, f"{module} imports names it never uses"


def test_a_name_used_only_in_an_annotation_counts():
    tree = ast.parse("from typing import Any\n"
                     "from .domains import QQ\n"
                     "def f(x: 'Any') -> 'list[QQ]': pass\n")
    assert set(imported_names(tree)) <= used_names(tree)


def test_an_unused_import_is_found():
    tree = ast.parse("from functools import cache, cached_property\n"
                     "import os.path\n"
                     "@cache\n"
                     "def f(): pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"cached_property",
                                                           "os"}


@pytest.mark.parametrize("module", sorted(path.name
                                          for path in PACKAGE.glob("*.py")))
def test_no_module_reads_a_certificate(module):
    # every decider proves its pair as it builds it; the recomposition is
    # for consumers, and a library read would verify an answer twice
    tree = ast.parse((PACKAGE / module).read_text(), module)
    assert certificate_reads(tree) == [], \
        f"{module} recomposes a pair through .certificate"


def test_a_certificate_read_is_found():
    tree = ast.parse("class D:\n"
                     "    @property\n"
                     "    def certificate(self): pass\n"
                     "ok = D().certificate == 1\n")
    assert certificate_reads(tree) == [4]


#: The functions that may read ``half_basis``: it names and displays a
#: quadratic ring, while the arithmetic reads the basis rule w^2 = t*w + q.
HALF_BASIS_READERS = {"domains.py": {"_QuadraticDomain.__new__",
                                     "QuadraticIntRing._name",
                                     "QuadraticField.element",
                                     "QuadraticField.display_coords"}}


def half_basis_reads(tree: ast.Module) -> dict[str, list[int]]:
    """{qualified name of the enclosing function: lines} for every read
    of an attribute named ``half_basis``."""
    reads: dict[str, list[int]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr == "half_basis"
                    and isinstance(child.ctx, ast.Load)):
                reads.setdefault(".".join(scope), []).append(child.lineno)
            visit(child, scope)

    visit(tree, ())
    return reads


@pytest.mark.parametrize("module", sorted(path.name
                                          for path in PACKAGE.glob("*.py")))
def test_only_naming_and_display_read_the_basis_flag(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    readers = set(half_basis_reads(tree))
    assert readers <= HALF_BASIS_READERS.get(module, set()), \
        f"{module} reads half_basis outside naming and display"


def test_a_basis_flag_read_is_found():
    tree = ast.parse("class QuadraticElement:\n"
                     "    def norm(self):\n"
                     "        self.half_basis = 1\n"
                     "        return self.dom.half_basis\n"
                     "def name(dom):\n"
                     "    return dom.half_basis\n")
    assert half_basis_reads(tree) == {"QuadraticElement.norm": [4],
                                      "name": [6]}
