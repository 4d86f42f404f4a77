"""How a ``pptlab`` process parses its verb and how it ends.

``cli.run`` builds the subparser of the verb it runs alone, and every help,
usage and error text stays the one the parser of all verbs prints.
``cli.main``, the console script, freezes the collector's objects on every
way out of ``cli.run``, so that the interpreter's shutdown skips them;
``cli.run`` itself, which long-lived processes call, never freezes.  A
reader that closes the output pipe early ends the process with 141.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from loaded_lines import SRC, probe

from pptlab import certifier as ce
from pptlab import cli
from pptlab.errors import InternalInconsistency

# the arguments each verb requires, with values that parse
REQUIRED = {
    "build": ["--state", "s.json"],
    "ppt-check": ["--state", "s.json"],
    "extend": ["--state", "s.json", "--step", "{}"],
    "certify-sn": ["--state", "s.json"],
    "extremal": ["--state", "s.json"],
    "sample": ["--dims", "3x3", "--birank", "4,4"],
    "survey": ["--dims", "3x3", "--birank", "4,4"],
    "verify": ["c.json"],
    "reproduce": [],
    "plot": ["--state", "s.json"],
}

PARSES = ([[verb, "--help"] for verb in cli.VERBS]
          + [[verb] for verb in cli.VERBS if REQUIRED[verb]]
          + [[verb, *REQUIRED[verb], "--no-such-option"] for verb in cli.VERBS]
          + [["certify-sn", "--state", "s.json", "--k", "x"], ["reproduce", "--seed", "x"],
             ["build", "--label"], ["verify", "a", "b"],
             ["build", "--graph", "g.json", "--state", "s.json"],
             ["--help"], [], ["-v"], ["-v", "verify", "missing.json"], ["no-such-verb"],
             ["no-such-verb", "--help"], ["--help", "verify"], ["-v", "--help", "verify"],
             ["--verb", "verify", "missing.json"]])


def _ran(argv, capsys):
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)``."""
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSES, ids=" ".join)
def test_each_parse_prints_what_the_parser_of_all_verbs_prints(argv, capsys, monkeypatch):
    built = _ran(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verbs: full(cli.VERBS))
    assert built == _ran(argv, capsys)


def test_usage_lists_every_verb_after_a_known_one(capsys):
    """A usage error after the verb prints the top-level usage, which
    names every verb although only the one verb's subparser was built."""
    code, out, err = _ran(["verify", "c.json", "--no-such-option"], capsys)
    assert (code, out) == (2, "")
    assert "{" + ",".join(cli.VERBS) + "}" in err
    assert err.endswith("pptlab: error: unrecognized arguments: --no-such-option\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A ppt certificate of rho3x3 (``ppt.json``), and one without its
    ``rho`` evidence (``forged.json``), written in this process by ``cli.run``."""
    path = tmp_path_factory.mktemp("exit")
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(path / "ppt.json")]) == 0
    data = json.loads((path / "ppt.json").read_text())
    del data["rho"]
    (path / "forged.json").write_text(json.dumps(data))
    return path


def test_a_verify_run_builds_one_subparser(workdir, monkeypatch):
    calls = []
    add = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: calls.append(name) or add(self, name, **kw))
    assert cli.run(["verify", str(workdir / "ppt.json")]) == 0
    assert calls == ["verify"]
    calls.clear()
    with pytest.raises(SystemExit):
        cli.run(["--help"])
    assert calls == list(cli.VERBS)


@pytest.mark.parametrize("argv, code", [
    (["verify", "ppt.json"], 0),
    (["verify", "forged.json"], 1),
    (["verify", "missing.json"], 2),
    (["verify"], 2),
], ids=["ok", "failed", "input-error", "usage-error"])
def test_main_freezes_the_collector_on_every_exit(workdir, argv, code):
    """In a fresh ``python -m pptlab.cli`` process an ``atexit`` probe, which
    runs before the interpreter's last collections, finds the objects frozen."""
    exited, found, _ = probe(argv, workdir)
    assert (exited, found["frozen"] > 0) == (code, True)


@pytest.mark.parametrize("argv", [["verify", "ppt.json"], ["verify", "forged.json"],
                                  ["ppt-check", "--state", "rho3x3", "--json"]],
                         ids=["verify-ok", "verify-failed", "ppt-check-json"])
def test_a_closed_output_pipe_exits_141_with_nothing_on_stderr(workdir, argv):
    """``pptlab verify GOOD.json | head -c0`` printed a ``BrokenPipeError``
    traceback and exited 1, which reads as a failed replay."""
    proc = subprocess.Popen([sys.executable, "-m", "pptlab.cli", *argv], cwd=workdir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    proc.stdout.close()  # the reader is gone before the verb prints
    assert (proc.wait(), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


def test_an_internal_inconsistency_is_raised_not_an_input_error(monkeypatch):
    """A self-check of the program that fails is a fault of the program:
    ``cli.run`` lets it out as a traceback instead of exiting 2 as it does
    for a refused input.  Here certify-sn's cofactor identity does not replay."""
    monkeypatch.setattr(ce.mi, "minor_identity_holds", lambda *args: False)
    with pytest.raises(InternalInconsistency, match="the identity does not replay"):
        cli.run(["certify-sn", "--state", "rho3x3", "--k", "2"])


def test_run_leaves_the_collector_unfrozen(workdir):
    assert cli.run(["verify", str(workdir / "ppt.json")]) == 0
    assert cli.run(["verify", str(workdir / "forged.json")]) == 1
    with pytest.raises(SystemExit):
        cli.run(["verify"])
    assert gc.get_freeze_count() == 0


def test_the_console_script_is_main():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"pptlab": "pptlab.cli:main"}
