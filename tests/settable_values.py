"""Count the independently settable values of ``src/pptlab``, from the AST.

A settable value is one of:

- an ``add_argument`` call in ``cli.py`` (a command-line option);
- a defaulted parameter of a public function or method (its name does not
  start with ``_``), ``__init__`` and ``__new__`` included;
- a class-body field with a default (``name: type = value``).

``python tests/settable_values.py`` prints the three counts and their
total; ``tests/test_source_rules.py`` keeps the total at or below a ceiling.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pptlab"


def _public(name: str) -> bool:
    return not name.startswith("_") or name in ("__init__", "__new__")


def counts(package: Path) -> dict:
    """``{"options", "parameters", "fields"}`` counted over the modules of
    ``package`` and of its subpackages."""
    out = {"options": 0, "parameters": 0, "fields": 0}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (path.name == "cli.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"):
                out["options"] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                out["parameters"] += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                out["fields"] += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                     for stmt in node.body)
    return out


if __name__ == "__main__":
    found = counts(PACKAGE)
    print("Settable values: " + " + ".join(f"{v} {k}" for k, v in found.items())
          + f" = {sum(found.values())}")
