"""Rules the package source must keep."""

import ast
from pathlib import Path

import pptlab

SOURCES = sorted(Path(pptlab.__file__).parent.glob("*.py"))


def test_package_sources_use_no_assert():
    """Checks must raise a PptlabError: ``python -O`` strips ``assert``."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/pptlab: {found}"
