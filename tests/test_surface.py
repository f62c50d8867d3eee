"""Every public name in the package has a caller outside tests.

Each module of src/cpstrata is parsed with ast; its public functions,
classes and constants (module-level names without a leading underscore)
must each be referenced in the code of src/, demos/ or perfbench/: read as
a name, reached as an attribute `.name`, or imported.  Their own
definition does not count, and neither does a mention in a string or a
comment.  The public methods and properties of its module-level classes
(dunder methods aside) must each be reached there as an attribute, `.name`
in code: a variable of the same name does not count.  A name that only
tests reach is surface no workload uses.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cpstrata"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def public_names(path):
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def public_methods(path):
    """(class, method) for each public method or property of a module-level class."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            out += [
                (node.name, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return out


@cache
def files():
    return [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]


@cache
def nodes():
    return [node for p in files() for node in ast.walk(ast.parse(p.read_text()))]


@cache
def attributes():
    """Every attribute name referenced as `.name` in src/, demos/ and perfbench/."""
    return {node.attr for node in nodes() if isinstance(node, ast.Attribute)}


@cache
def references():
    """Every name the code of src/, demos/ and perfbench/ reads, reaches as
    an attribute or imports; an assignment target is not a reference."""
    return (
        attributes()
        | {node.id for node in nodes() if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        | {node.name for node in nodes() if isinstance(node, ast.alias)}
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_names_have_a_caller_outside_tests(path):
    unused = [name for name in public_names(path) if name not in references()]
    assert not unused, f"{path.stem}: no caller outside tests for {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_methods_have_a_caller_outside_tests(path):
    unused = [f"{cls}.{name}" for cls, name in public_methods(path) if name not in attributes()]
    assert not unused, f"{path.stem}: no caller outside tests for {', '.join(unused)}"
