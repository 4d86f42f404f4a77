"""pptlab without numpy: the exact certifier runs, the sampler names its extra.

numpy is the ``pptlab[sample]`` extra.  The interpreter of a virtual
environment made without pip (``venv.create(..., with_pip=False)``) has no
site packages, so with ``PYTHONPATH`` at ``src`` it runs this ``pptlab``
with no numpy to find.  There, every exact verb prints and writes what it
does with numpy installed, ``ppt-check`` of a stored matrix state (whose
LDL* ``serialize`` imports only when it certifies) included; ``sample``
and ``survey`` exit 2 with one stderr line naming the extra; and
acceptance criterion 8 fails with "numpy is not installed" as its reason,
which ``reproduce`` prints on its FAIL line, so ``reproduce`` still runs
the exact criteria and never reports 8 as passed.
"""

import json
import os
import subprocess
import sys
import venv

import pytest
from loaded_lines import SRC

# a sampled state stored as its matrix, rounded to exact entries
ROUNDED = str(SRC.parent / "tests" / "data" / "rounded_4x4_s634511.json")

# the exact verbs on rho3x3, the sn certificate of rho4x5 (whose build runs the
# extension pipeline), then on the rounded matrix state, run in order in one
# directory: (argv, file it writes)
EXACT = (
    (["build", "--state", "rho3x3", "--out", "state.json"], "state.json"),
    (["ppt-check", "--state", "state.json", "--out", "ppt.json"], "ppt.json"),
    (["certify-sn", "--state", "state.json", "--k", "2", "--out", "sn.json"], "sn.json"),
    (["verify", "ppt.json"], None),
    (["verify", "sn.json"], None),
    (["certify-sn", "--state", "rho4x5", "--out", "sn45.json"], "sn45.json"),
    (["verify", "sn45.json"], None),
    (["ppt-check", "--state", ROUNDED, "--out", "rounded.json"], "rounded.json"),
    (["verify", "rounded.json"], None),
)
SAMPLERS = (
    ["sample", "--dims", "3x3", "--birank", "4,4"],
    ["survey", "--dims", "3x3", "--birank", "4,4", "--samples", "2"],
)
MISSING = "numpy is not installed: pip install 'pptlab[sample]'"


@pytest.fixture(scope="module")
def bare_python(tmp_path_factory):
    """An interpreter that finds no numpy (checked) and this ``pptlab``."""
    env_dir = tmp_path_factory.mktemp("bare")
    venv.create(env_dir, with_pip=False)
    python = str(env_dir / "bin" / "python")
    found = _run(python, ["-c", "import importlib.util as u; print(u.find_spec('numpy'))"])
    assert found.stdout == "None\n", found
    return python


def _run(python, args, cwd=None):
    return subprocess.run([python, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


def _verbs(python, workdir):
    """``[(argv, exit code, stdout, stderr, bytes written)]`` of :data:`EXACT`."""
    out = []
    for argv, written in EXACT:
        done = _run(python, ["-m", "pptlab.cli", *argv], cwd=workdir)
        out.append((argv, done.returncode, done.stdout, done.stderr,
                    (workdir / written).read_bytes() if written else None))
    return out


def test_exact_verbs_run_byte_identically_without_numpy(bare_python, tmp_path):
    (tmp_path / "with").mkdir()
    (tmp_path / "without").mkdir()
    with_numpy = _verbs(sys.executable, tmp_path / "with")
    assert [code for _, code, *_ in with_numpy] == [0] * len(EXACT), with_numpy
    assert _verbs(bare_python, tmp_path / "without") == with_numpy


@pytest.mark.parametrize("argv", SAMPLERS, ids=lambda argv: argv[0])
def test_sampling_verbs_exit_2_naming_the_extra(bare_python, tmp_path, argv):
    done = _run(bare_python, ["-m", "pptlab.cli", *argv], cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "", f"{argv[0]}: PreconditionViolation: {MISSING}\n")


def test_criterion_8_fails_for_want_of_numpy(bare_python):
    code = ("import json; from pptlab import acceptance as ac; r = ac.criterion_8(); "
            "print(json.dumps([r.number, r.name, r.passed, r.details]))")
    done = _run(bare_python, ["-c", code])
    assert done.returncode == 0, done.stderr
    number, name, passed, details = json.loads(done.stdout)
    assert (number, passed, details) == (8, False, {"error": MISSING})
    assert name == "random birank-(4,4) survey, dimension 3 throughout"


def test_reproduce_prints_why_criterion_8_failed(bare_python):
    """Without ``--json``, the FAIL line of criterion 8 names the reason."""
    code = ("import sys; from pptlab import acceptance as ac, cli; "
            "ac.run_all = lambda: [ac.criterion_8()]; sys.exit(cli.run(['reproduce']))")
    done = _run(bare_python, ["-c", code])
    assert (done.returncode, done.stderr) == (1, ""), done.stderr
    assert done.stdout.startswith("FAIL  criterion 8: random birank-(4,4) survey")
    assert done.stdout.endswith(f"s)]  {MISSING}\n"), done.stdout
