"""Each CLI process compiles only the code its verb runs.

The certify-then-replay loop is a sequence of short ``pptlab`` processes,
and without a ``__pycache__`` each compiles every module it imports.  The
ceilings below are on the lines of ``src/pptlab`` a process loads
(``tests/loaded_lines.py``), measured on the benchmark's kind of state
file and its sampling requests; lower one when a change takes code off a
verb's path.
"""

import pytest
from loaded_lines import measure

CEILINGS = {
    "ppt-check": 1700,  # compiles exactmat: its LDL* makes the certificate's evidence
    "certify-sn": 2173,
    "verify ppt": 1179,
    "verify sn-verdict": 1552,
    "sample": 961,
    "survey": 980,
}

# what a replay must not trust: the certifiers' exact layer and writers
NOT_REPLAYED = {"pptlab.exactmat", "pptlab.qstates", "pptlab.serialize", "pptlab.algcert",
                "pptlab.certifier"}


@pytest.fixture(scope="module")
def found(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("verbs"))


def test_each_verb_process_stays_under_its_line_ceiling(found):
    assert {name: process.lines for name, process in found.items()
            if process.lines > CEILINGS[name]} == {}, CEILINGS
    for name in ("verify ppt", "verify sn-verdict"):
        assert not NOT_REPLAYED.intersection(found[name].modules), name
    assert "pptlab.minors" in found["verify sn-verdict"].modules
    assert "pptlab.certifier" in found["certify-sn"].modules
    assert "pptlab.algcert" not in found["certify-sn"].modules


def test_a_cli_process_compiles_the_cli_once(found):
    """``python -m pptlab.cli`` runs cli.py as ``__main__``; a module that
    imported ``pptlab.cli`` would compile it a second time."""
    assert [name for name, process in found.items() if "pptlab.cli" in process.modules] == []


def test_no_process_loads_numpy_random(found):
    """Start points come from the standard library's ``random.Random``:
    ``numpy.random`` would add nine extension modules, ``secrets``,
    ``hashlib`` and OpenSSL, about 6 MB of RSS, to every sampling process."""
    assert [name for name, process in found.items() if process.numpy_random] == []
