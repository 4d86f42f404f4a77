"""Count the lines of ``src/pptlab`` that each kind of CLI process compiles.

``pptlab`` runs as ``python -m pptlab.cli``, which compiles ``cli.py`` as
``__main__`` and every ``pptlab`` module the verb imports; without a
``__pycache__`` (``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs it)
each process compiles them afresh.  :func:`measure` writes the benchmark's
kind of state file (rho4x5, with ``pptlab build``) and runs, each in a
fresh process, ``ppt-check`` and ``certify-sn`` on it, ``verify`` of the
two certificates they write, and the benchmark's ``sample`` (4x4 (7,7))
and ``survey`` (3x3 (4,4), 20 samples).  Each process reports at exit
whether it loaded ``numpy.random`` and its peak RSS, ``VmHWM`` of
``/proc/self/status`` (``None`` where there is no ``/proc``): the
``ru_maxrss`` that ``wait4`` returns can hold the parent's high-water
mark for a child started by ``vfork``.

``python tests/loaded_lines.py`` prints the six totals, one line per
process with its peak RSS and each module it loaded and that module's
lines (where its total is spent), and, for each of the four certificate
processes, the median time from ``main`` returning to the parent's wait
returning (:func:`exit_times`, five runs): the interpreter's shutdown,
which ``cli.main`` shortens by freezing the collector's objects.
``tests/test_verb_loading.py`` keeps each total under a ceiling.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"

# runs ``pptlab argv`` as ``python -m pptlab.cli`` does (cli.py as
# ``__main__``), then writes the pptlab modules left in sys.modules, whether
# numpy.random is among them, the peak RSS in KB, the collector's freeze
# count and the system-wide monotonic time at which ``main`` returned (by
# ``sys.exit`` or an exception)
_PROBE = """\
import atexit, gc, json, runpy, sys, time
returned = []
def peak_kb():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        return None
def dump():
    with open({out!r}, "w") as fh:
        json.dump({{"modules": {{name: module.__file__ for name, module in sys.modules.items()
                                if name.split(".")[0] == "pptlab"}},
                   "numpy_random": "numpy.random" in sys.modules, "peak_kb": peak_kb(),
                   "frozen": gc.get_freeze_count(), "returned": returned[0]}}, fh)
atexit.register(dump)
sys.argv = ["pptlab", *{argv!r}]
try:
    runpy.run_module("pptlab.cli", run_name="__main__", alter_sys=True)
finally:
    returned.append(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

VERBS = (
    ("ppt-check", ["ppt-check", "--state", "state.json", "--out", "ppt.json"]),
    ("certify-sn", ["certify-sn", "--state", "state.json", "--out", "sn.json"]),
    ("verify ppt", ["verify", "ppt.json"]),
    ("verify sn-verdict", ["verify", "sn.json"]),
)
# the benchmark's sampling processes, which read no state file
SAMPLERS = (
    ("sample", ["sample", "--dims", "4x4", "--birank", "7,7"]),
    ("survey", ["survey", "--dims", "3x3", "--birank", "4,4", "--samples", "20"]),
)


class Process(NamedTuple):
    """What :func:`measure` finds of one process."""

    lines: int            # lines of src/pptlab compiled, cli.py as __main__ included
    modules: dict         # loaded pptlab module -> its lines
    numpy_random: bool    # whether it loaded numpy.random
    peak_kb: int | None   # VmHWM at exit


def _lines(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def probe(argv, cwd) -> tuple:
    """Run ``pptlab argv`` in ``cwd`` in a fresh process; return its exit
    code, what it wrote at exit (``modules``: ``{module: file}`` of the
    ``pptlab`` modules loaded, ``frozen``: ``gc.get_freeze_count()``), and
    the seconds from ``main`` returning to this process's wait returning."""
    out = os.path.join(cwd, "probe.json")
    if os.path.exists(out):  # a process that writes none must not read the last one's
        os.remove(out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = subprocess.run([sys.executable, "-c", _PROBE.format(out=out, argv=argv)], cwd=cwd,
                          env=env, capture_output=True).returncode
    waited = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(out) as fh:
        found = json.load(fh)
    return code, found, waited - found["returned"]


def measure(workdir) -> dict:
    """``{process: Process}`` for :data:`VERBS` and :data:`SAMPLERS`, each
    run once in a fresh process that must exit 0; ``cli.py`` counts once as
    ``__main__``, and again if imported."""
    subprocess.run([sys.executable, "-m", "pptlab.cli", "build", "--state", "rho4x5",
                    "--out", "state.json"], cwd=workdir, check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    main = _lines(SRC / "pptlab" / "cli.py")
    out = {}
    for name, argv in VERBS + SAMPLERS:
        code, found, _ = probe(argv, workdir)
        if code != 0:
            raise subprocess.CalledProcessError(code, ["pptlab", *argv])
        modules = {module: _lines(path) for module, path in found["modules"].items()}
        out[name] = Process(main + sum(modules.values()), modules, found["numpy_random"],
                            found["peak_kb"])
    return out


def exit_times(workdir) -> dict:
    """``{verb: median seconds from main returning to the wait returning}``
    over five fresh processes of each of :data:`VERBS`, in a ``workdir``
    that :func:`measure` has filled."""
    return {name: statistics.median(probe(argv, workdir)[2] for _ in range(5))
            for name, argv in VERBS}


def main() -> None:
    """Print the totals, the modules behind them and the exit times."""
    with tempfile.TemporaryDirectory() as tmp:
        found = measure(tmp)
        exits = exit_times(tmp)
    print("Lines of pptlab compiled per process: "
          + ", ".join(f"{name} {process.lines}" for name, process in found.items()))
    cli_lines = _lines(SRC / "pptlab" / "cli.py")
    for name, process in found.items():
        peak = "?" if process.peak_kb is None else f"{process.peak_kb / 1024:.1f} MB"
        print(f"  {name} ({process.lines}; peak RSS {peak}"
              + (", numpy.random loaded" if process.numpy_random else "")
              + f"): cli as __main__ {cli_lines}, " + ", ".join(
                  f"{module.removeprefix('pptlab.')} {n}"
                  for module, n in sorted(process.modules.items(), key=lambda item: -item[1])))
    print("Median exit time per process (main returning to the wait returning, five runs): "
          + ", ".join(f"{name} {seconds * 1e3:.1f} ms" for name, seconds in exits.items()))


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's shutdown
    except BrokenPipeError:  # the reader left early (``| head -1``): end as cli.main does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for that flush
        sys.exit(141)
