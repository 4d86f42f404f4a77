"""Rules the package source must keep."""

import ast
from pathlib import Path

import pptlab
from settable_values import counts

PACKAGE = Path(pptlab.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))

# CLI options, defaulted parameters of public functions and defaulted class
# fields (tests/settable_values.py); lower it when a change removes one
SETTABLE_VALUES_CEILING = 48


def test_package_sources_use_no_assert():
    """Checks must raise a PptlabError: ``python -O`` strips ``assert``."""
    assert SOURCES
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/pptlab: {found}"


def test_settable_values_do_not_grow():
    found = counts(PACKAGE)
    assert sum(found.values()) <= SETTABLE_VALUES_CEILING, found


def _imported_modules(path: Path) -> set:
    """The absolute names of the modules ``path`` imports, and of each name
    a ``from`` import takes from a package (it may be a submodule)."""
    package = ".".join(("pptlab",) + path.relative_to(PACKAGE).parent.parts)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")[:len(package.split(".")) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_the_cli():
    """``python -m pptlab.cli`` runs cli.py as ``__main__``: a module that
    imported ``pptlab.cli`` would make each process compile it twice."""
    assert [str(path.relative_to(PACKAGE)) for path in SOURCES
            if "pptlab.cli" in _imported_modules(path)] == []
