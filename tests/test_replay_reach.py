"""The replay holds what ``verify`` runs, and builder-only code only where
it is named.

``replay.py`` (the shared core and the ppt replay) and ``minors.py`` (the
sn-verdict replay) are what a reader of a certificate has to trust, so code
that only the builders run belongs in ``exactmat``, ``qstates``,
``serialize``, ``numlab`` or the certifier.  With ``sys.setprofile`` the
test records every function of the two modules that ``pptlab verify``
(through :func:`cli.run`, in process) runs over the committed certificates
and over fresh ones: ppt certificates of edge and matrix states, PSD and
NPT, and sn-verdicts, proven on either basis and inconclusive.  It fails
when either module defines a function outside that set and outside
:data:`KEPT` or :data:`MINORS_KEPT`, the builder-only names that stay, each
group for its stated reason.
"""

import contextlib
import copy
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

from pptlab import cli
from pptlab import constructions as co
from pptlab import minors as mi
from pptlab import replay as rp
from pptlab import serialize as se

from oracles import matrix_state

DATA = Path(__file__).resolve().parent / "data"

KEPT = {
    # pinned by name in pptbench/tracer.py (exactmat.*), and
    # ExactMatrix.identity, which pptbench/workloads.py calls as a method
    "ExactMatrix.outer", "ExactMatrix.__add__", "ExactMatrix.matmul", "ExactMatrix.identity",
    # the value protocol of the kernel's immutable types: the builders compare,
    # hash, print, read and do arithmetic on the same objects the replay makes,
    # and a failing test prints a scalar's value
    "GaussianRational.__setattr__", "GaussianRational.__hash__", "GaussianRational.__repr__",
    "GaussianRational.__str__", "GaussianRational.__neg__", "GaussianRational.__sub__",
    "GaussianRational.__truediv__", "GaussianRational.abs2", "ExactMatrix.__setattr__",
    "ExactMatrix.__hash__", "ExactMatrix.__sub__", "ExactMatrix.scale",
    "ExactMatrix._check_same_shape", "ExactMatrix.row", "ExactMatrix.tolists",
    "Subspace.__setattr__", "Subspace.__eq__", "BipartiteState.__setattr__",
    "BipartiteState.__eq__",
    # reached only on a failing input: a scalar past the int-to-text digit limit
    "_decimal_digits",
}

MINORS_KEPT = {
    # the grevlex order that _Packing encodes, by which the writers and the
    # Groebner oracle sort monomials
    "_grevlex_key",
}


def _defined(module) -> set:
    """The qualified names of the functions and methods ``module`` defines."""
    found = set()
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if inspect.isfunction(member) and member.__module__ == module.__name__:
                found.add(member.__code__.co_qualname)
    return found


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def _certificates(tmp_path) -> list:
    """The paths of fresh certificates, each verb's exit code checked, then
    of the committed ones."""
    rho3x3 = tmp_path / "rho3x3.json"
    assert _run(["build", "--state", "rho3x3", "--out", str(rho3x3)]) == 0
    state = json.loads(rho3x3.read_text())
    dependent = copy.deepcopy(state)  # e3 twice: the range is not spanned by independent edges
    dependent["edges"].append({**state["edges"][3], "name": "e3'"})
    bell = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "bell",
            "edges": [{"name": "b", "vector": [[0, "1"], [3, "1"]], "weight": "1"}]}
    product = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "product",
               "edges": [{"name": "a", "vector": [[0, "1"]], "weight": "1"},
                         {"name": "b", "vector": [[3, "1"]], "weight": "1"}]}
    tiles = se.state_to_json(matrix_state(co.tiles_complement()))
    for name, doc in (("dependent", dependent), ("bell", bell), ("product", product),
                      ("tiles", tiles)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    runs = (
        (["ppt-check", "--state", str(rho3x3)], 0),           # PSD, an edge state
        (["ppt-check", "--state", str(tmp_path / "tiles.json")], 0),  # PSD, a matrix state
        (["ppt-check", "--state", "rho4x5"], 0),
        (["ppt-check", "--state", str(tmp_path / "bell.json")], 0),  # NPT
        (["certify-sn", "--state", "rho3x3", "--k", "2"], 0),  # proven on the edges
        (["certify-sn", "--state", str(tmp_path / "dependent.json"), "--k", "2"], 0),  # the range
        (["certify-sn", "--state", "rho4x5"], 0),
        (["certify-sn", "--state", str(tmp_path / "product.json"), "--k", "2"], 1),  # inconclusive
    )
    paths = []
    for t, (argv, code) in enumerate(runs):
        path = tmp_path / f"cert{t}.json"
        assert _run(argv + ["--out", str(path)]) == code, argv
        paths.append(path)
    return paths + sorted(DATA.glob("*_sn_verdict.json"))


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> dict:
    """``{module: the qualified names of its functions that verify runs}``
    for ``replay`` and ``minors``."""
    paths = _certificates(tmp_path_factory.mktemp("reach"))
    found = {rp: set(), mi: set()}
    files = {module.__file__: names for module, names in found.items()}

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            files[frame.f_code.co_filename].add(frame.f_code.co_qualname)

    for path in paths:
        sys.setprofile(record)
        try:
            code = _run(["verify", str(path)])
        finally:
            sys.setprofile(None)
        assert code == 0, path
    return found


def test_the_kernel_defines_only_what_verify_runs_or_names_why_it_stays(reached):
    assert sorted(_defined(rp) - reached[rp] - KEPT) == []


def test_every_kept_name_is_defined_and_unreached(reached):
    """A name that ``verify`` now runs, or that left the kernel, leaves :data:`KEPT`."""
    assert sorted(KEPT - (_defined(rp) - reached[rp])) == []


def test_the_sn_verdict_replay_defines_only_what_verify_runs_or_names_why_it_stays(reached):
    assert sorted(_defined(mi) - reached[mi] - MINORS_KEPT) == []


def test_every_kept_sn_verdict_replay_name_is_defined_and_unreached(reached):
    assert sorted(MINORS_KEPT - (_defined(mi) - reached[mi])) == []

