"""Every verb that reads a state file is total on it.

``build``, ``ppt-check``, ``certify-sn``, ``extend``, ``extremal`` and
``plot`` all take ``--state FILE``.  The fuzzer below mutates small valid
state files, an edge state (rho3x3) and a matrix state (a Bell state), in
the ways a state file goes wrong: a zero, negative or missing weight, edges
and a matrix together, no or empty ``edges``, bad dimensions, unknown keys,
and any node replaced by a value of another type.  It runs every one of
those verbs on the file through :func:`cli.run` in process (:func:`cli.main`
would freeze the collector's objects).  Whatever the file, each run returns
0, 1 or 2, with ``SystemExit`` counted as its code, exits 2 with one line on
stderr and nothing on stdout, raises nothing else, and ends within the
example's deadline.  An unknown key, on the state, an edge or the matrix,
exits 2 from each of them, naming the key (``certify-sn`` and ``plot``
refuse a matrix state unread, for having no edges).
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pptlab import cli
from pptlab import constructions as co
from pptlab import serialize as se

BELL = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "bell",
        "matrix": {"rows": 4, "cols": 4, "entries": [["1", "0", "0", "1"], ["0"] * 4, ["0"] * 4,
                                                     ["1", "0", "0", "1"]]}}
BASES = {"rho3x3": se.state_to_json(co.rho_3x3()), "bell": BELL}

# what a mutation puts in place of a weight, a dimension or any node
WEIGHTS = ["0", "-1", "-1/2", "0/7", "0+0 i", "1 i", 0, 1, None]
DIMS = [0, -2, 1, 2, 4, "3", 3.0, True, None, 10 ** 6]
# every verb that reads a state file, with the arguments it needs
VERBS = (["build"], ["ppt-check"], ["certify-sn"], ["certify-sn", "--exclude-deltas"],
         ["extend", "--step", None], ["extremal"], ["plot"])
VALUES = ["1", "-1", "1/0", "x", "", True, 0, 2.5, 10 ** 400, None, [], {}, [[0, "1"]],
          {"rows": 1, "cols": 1, "entries": [["1"]]}]


def _paths(node, path=()):
    """Every path (keys and indices) into ``node``, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, doc: dict) -> None:
    """Apply one to three mutations to the state file ``doc`` in place."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        how = data.draw(st.sampled_from(["weight", "no-weight", "both", "no-edges",
                                         "empty-edges", "dims", "unknown-key", "replace"]),
                        label="how")
        edges = doc.get("edges")
        edge = data.draw(st.sampled_from(edges), label="edge") \
            if isinstance(edges, list) and edges and all(isinstance(e, dict) for e in edges) \
            else None
        if how == "weight" and edge is not None:
            edge["weight"] = data.draw(st.sampled_from(WEIGHTS), label="weight")
        elif how == "no-weight" and edge is not None:
            edge.pop("weight", None)
        elif how == "both":
            other = BASES["bell" if "edges" in doc else "rho3x3"]
            key = "matrix" if "edges" in doc else "edges"
            doc[key] = copy.deepcopy(other[key])
        elif how == "no-edges":
            doc.pop("edges", None)
        elif how == "empty-edges":
            doc["edges"] = []
        elif how == "dims":
            key = data.draw(st.sampled_from(["dim_a", "dim_b"]), label="dim")
            doc[key] = data.draw(st.sampled_from(DIMS), label="value")
        elif how == "unknown-key":
            target = edge if edge is not None and data.draw(st.booleans()) else doc
            target[data.draw(st.sampled_from(["extra", "names", "weights", "sites"]))] = "1"
        elif how == "replace":
            path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(VALUES), label="value"))


def _argvs(dim_a: int) -> list:
    """:data:`VERBS`, ``extend`` with a step on ``dim_a`` levels."""
    step = json.dumps({"kind": "slocc", "side": "A", "phi": ["1"] * dim_a})
    return [[step if arg is None else arg for arg in argv] for argv in VERBS]


def _run(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)``; a ``SystemExit``
    counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_state_files_exit_0_1_or_2(tmp_path, data):
    base = data.draw(st.sampled_from(sorted(BASES)), label="base")
    doc = copy.deepcopy(BASES[base])
    _mutate(data, doc)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    for argv in _argvs(BASES[base]["dim_a"]):
        code, out, err = _run(argv + ["--state", str(path)])
        assert code in (0, 1, 2), (argv, code, out, err)
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith(f"{argv[0]}: "), \
                (argv, err)


# an unknown key on each level of a state file: the base, and the path to the object
UNKNOWN_KEYS = {"state": ("rho3x3", ()), "edge": ("rho3x3", ("edges", 1)),
                "matrix-state": ("bell", ()), "matrix": ("bell", ("matrix",))}


@pytest.mark.parametrize("level", UNKNOWN_KEYS)
def test_an_unknown_key_exits_2_naming_it(tmp_path, level):
    base, where = UNKNOWN_KEYS[level]
    doc = copy.deepcopy(BASES[base])
    node = doc
    for key in where:
        node = node[key]
    node["lable"] = "x"
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    for argv in _argvs(doc["dim_a"]):
        code, out, err = _run(argv + ["--state", str(path)])
        assert (code, out) == (2, "") and err.count("\n") == 1, (argv, err)
        if base == "bell" and argv[0] in ("certify-sn", "plot"):
            assert err == f"{argv[0]}: state carries no edge decomposition\n"
        else:
            assert err.startswith(f"{argv[0]}: MalformedData: malformed state: ValueError: "
                                  "unknown ") and "keys ['lable']" in err, (argv, err)
