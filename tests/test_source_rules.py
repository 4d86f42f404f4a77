"""Rules the package source must keep."""

import ast
import sys
from pathlib import Path

import pptlab
from settable_values import counts

PACKAGE = Path(pptlab.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))

# CLI options, defaulted parameters of public functions and defaulted class
# fields (tests/settable_values.py); lower it when a change removes one
SETTABLE_VALUES_CEILING = 34


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


def _imported_modules(path: Path, nodes=ast.walk) -> set:
    """The absolute names of the modules ``path`` imports, and of each name
    a ``from`` import takes from a package (it may be a submodule); with
    ``nodes=ast.iter_child_nodes``, of its module-level imports only."""
    package = ".".join(("pptlab",) + path.relative_to(PACKAGE).parent.parts)
    found = set()
    for node in nodes(ast.parse(path.read_text(), filename=str(path))):
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


def test_no_module_names_numpy_random():
    """The sampler draws its start points from ``random.Random``, which
    ``statistics`` already loads: ``numpy.random`` would cost every sampling
    process about 6 MB of RSS."""
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "random"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    found += [str(path.relative_to(PACKAGE)) for path in SOURCES
              if "numpy.random" in _imported_modules(path)]
    assert found == []


def _run_at_import(tree):
    """The nodes of ``tree`` that run when its module is imported: all but
    the bodies of functions."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from _run_at_import(node)


def test_no_module_imports_numpy_when_it_is_imported():
    """numpy is the ``pptlab[sample]`` extra, and ``numlab`` imports it at
    its first numeric call: an import that runs with a module's own would
    load numpy's 13.7 MB into every process that imports the module, the
    exact certifier's included, and break every install without numpy."""
    assert [str(path.relative_to(PACKAGE)) for path in SOURCES
            if any(name.split(".")[0] == "numpy"
                   for name in _imported_modules(path, _run_at_import))] == []


def test_no_module_imports_the_groebner_oracle():
    """``algcert`` is the tests' independent membership oracle: the package
    proves every membership by an indexed cofactor identity that
    ``minors.minor_identity_holds`` replays (acceptance criteria 1 and 2
    included), so no module of it imports the oracle, not even inside a
    function, and no ``reproduce`` process loads it."""
    assert [str(path.relative_to(PACKAGE)) for path in SOURCES
            if "pptlab.algcert" in _imported_modules(path)] == []


# the trusted replay: the pptlab modules each of its modules may import
# besides the standard library, at module level and inside a function
# (the kernel loads the sn-lower replay only when it replays a lower half)
REPLAY_IMPORTS = {
    "replay.py": ({"pptlab.errors"}, {"pptlab.minors"}),
    "minors.py": ({"pptlab.errors", "pptlab.replay"}, set()),
}


def _outside(found: set, allowed: set) -> set:
    """The names in ``found`` that are neither standard library nor the
    package itself nor in (or taken from) an ``allowed`` module."""
    return {name for name in found
            if name.split(".")[0] not in sys.stdlib_module_names and name != "pptlab"
            and not any(name == a or name.startswith(a + ".") for a in allowed)}


def test_the_replay_imports_only_the_kernel_errors_and_the_standard_library():
    """``replay.py`` imports only ``errors``, and ``minors.py`` only
    ``replay`` and ``errors``: neither may load the certifier or the
    Groebner oracle with its polynomials into a ``verify`` process."""
    for name, (top, lazy) in REPLAY_IMPORTS.items():
        path = PACKAGE / name
        assert _outside(_imported_modules(path, ast.iter_child_nodes), top) == set(), name
        assert _outside(_imported_modules(path), top | lazy) == set(), name
