"""The package ships only what runs: every function, class and method that
``src/refgame`` defines is used by the package itself or by ``scripts/``,
and every name a module imports is named in that module. Test doubles and
test oracles live in ``tests/helpers.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "refgame"
SCRIPTS = ROOT / "scripts"


def parsed(directory: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))]


def imported(module: ast.Module) -> list[str]:
    """The names that the module's top-level imports bind, except
    ``from __future__`` imports."""
    names = []
    for node in module.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def defined(module: ast.Module) -> list[str]:
    """Module-level function and class names, and the non-dunder method
    names of module-level classes."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return names


def referenced(modules: list[ast.Module]) -> set[str]:
    names = set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_used():
    package = parsed(PACKAGE)
    used = referenced(package + parsed(SCRIPTS))
    unused = sorted({name for module in package for name in defined(module)} - used)
    assert unused == []


def test_every_import_is_named():
    stale = {
        path.name: sorted(set(imported(module)) - referenced([module]))
        for path, module in zip(sorted(PACKAGE.glob("*.py")), parsed(PACKAGE))
    }
    assert {name: names for name, names in stale.items() if names} == {}
