"""Each CLI process compiles only the code its verb runs.

The certify-then-replay loop is a sequence of short ``pptlab`` processes,
and without a ``__pycache__`` each compiles every module it imports.  The
ceilings below are on the lines of ``src/pptlab`` a process loads
(``tests/loaded_lines.py``), measured on the benchmark's kind of state
file; lower one when a change takes code off a verb's path.
"""

import pytest
from loaded_lines import measure

CEILINGS = {
    "ppt-check": 1509,
    "certify-sn": 2315,
    "verify ppt": 1331,
    "verify sn-verdict": 1704,
}

# what a replay must not trust: the certifiers' exact layer and writers
NOT_REPLAYED = {"pptlab.exactmat", "pptlab.qstates", "pptlab.serialize", "pptlab.algcert",
                "pptlab.certifier"}


@pytest.fixture(scope="module")
def found(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("verbs"))


def test_each_verb_process_stays_under_its_line_ceiling(found):
    assert {name: lines for name, (lines, _) in found.items()
            if lines > CEILINGS[name]} == {}, CEILINGS
    for name in ("verify ppt", "verify sn-verdict"):
        assert not NOT_REPLAYED.intersection(found[name][1]), name
    assert "pptlab.minors" in found["verify sn-verdict"][1]
    assert "pptlab.certifier" in found["certify-sn"][1]
    assert "pptlab.algcert" not in found["certify-sn"][1]


def test_a_cli_process_compiles_the_cli_once(found):
    """``python -m pptlab.cli`` runs cli.py as ``__main__``; a module that
    imported ``pptlab.cli`` would compile it a second time."""
    assert [name for name, (_, modules) in found.items() if "pptlab.cli" in modules] == []
