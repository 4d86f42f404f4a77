"""Count the lines of ``src/pptlab`` that each kind of CLI process compiles.

``pptlab`` runs as ``python -m pptlab.cli``, which compiles ``cli.py`` as
``__main__`` and every ``pptlab`` module the verb imports; without a
``__pycache__`` (``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs it)
each process compiles them afresh.  :func:`measure` writes the benchmark's
kind of state file (rho4x5, with ``pptlab build``) and runs, each in a
fresh process, ``ppt-check`` and ``certify-sn`` on it and ``verify`` of the
two certificates they write.

``python tests/loaded_lines.py`` prints the four totals;
``tests/test_verb_loading.py`` keeps each under a ceiling.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# runs ``pptlab argv`` as ``python -m pptlab.cli`` does (cli.py as
# ``__main__``), then writes the pptlab modules left in sys.modules
_PROBE = """\
import atexit, json, runpy, sys
def dump():
    with open({out!r}, "w") as fh:
        json.dump({{name: module.__file__ for name, module in sys.modules.items()
                   if name.split(".")[0] == "pptlab"}}, fh)
atexit.register(dump)
sys.argv = ["pptlab", *{argv!r}]
runpy.run_module("pptlab.cli", run_name="__main__", alter_sys=True)
"""

VERBS = (
    ("ppt-check", ["ppt-check", "--state", "state.json", "--out", "ppt.json"]),
    ("certify-sn", ["certify-sn", "--state", "state.json", "--out", "sn.json"]),
    ("verify ppt", ["verify", "ppt.json"]),
    ("verify sn-verdict", ["verify", "sn.json"]),
)


def _lines(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def loaded(argv, cwd) -> dict:
    """``{module: file}`` of the ``pptlab`` modules that a fresh process
    running ``pptlab argv`` in ``cwd`` has loaded when it exits (0)."""
    out = os.path.join(cwd, "modules.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _PROBE.format(out=out, argv=argv)], cwd=cwd,
                   env=env, check=True, capture_output=True)
    with open(out) as fh:
        return json.load(fh)


def measure(workdir) -> dict:
    """``{verb: (lines compiled, loaded module names)}`` for :data:`VERBS`;
    ``cli.py`` counts once as ``__main__``, and again if imported."""
    subprocess.run([sys.executable, "-m", "pptlab.cli", "build", "--state", "rho4x5",
                    "--out", "state.json"], cwd=workdir, check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    main = _lines(SRC / "pptlab" / "cli.py")
    out = {}
    for name, argv in VERBS:
        modules = loaded(argv, workdir)
        out[name] = (main + sum(_lines(path) for path in modules.values()), set(modules))
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = measure(tmp)
    print("Lines of pptlab compiled per process: "
          + ", ".join(f"{name} {lines}" for name, (lines, _) in found.items()))
