"""Rules the package source must keep."""

import ast
from pathlib import Path

import pptlab
from settable_values import counts

SOURCES = sorted(Path(pptlab.__file__).parent.glob("*.py"))

# CLI options, defaulted parameters of public functions and defaulted class
# fields (tests/settable_values.py); lower it when a change removes one
SETTABLE_VALUES_CEILING = 48


def test_package_sources_use_no_assert():
    """Checks must raise a PptlabError: ``python -O`` strips ``assert``."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/pptlab: {found}"


def test_settable_values_do_not_grow():
    found = counts(Path(pptlab.__file__).parent)
    assert sum(found.values()) <= SETTABLE_VALUES_CEILING, found
