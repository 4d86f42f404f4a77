"""Grid-graph and step input: one strict reader each, and the size rule.

``build --graph`` reads a graph under the state reader's rules, ``extend
--step`` reads each parameter by its key, every state input (a state
file, a graph, ``family:k``) has at most ``replay.MAX_DIM`` levels, and
every stored rational expands to at most the int-to-text digit limit.  Each
malformed input exits 2 with one line on stderr (``verify``: exit 1 with
one ``FAILED`` line), never a traceback; the fuzzer at the end mutates
valid graphs and steps and drives :func:`cli.run` in process
(:func:`cli.main` would freeze the collector's objects).
"""

import contextlib
import copy
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pptlab import cli
from pptlab import constructions as co
from pptlab import replay as rp

# rho3x3 as a grid graph: the five edges of constructions.rho_3x3, solid first
RHO3X3_GRAPH = {
    "dims": [3, 3],
    "solid": [{"sites": [[0, 0], [1, 1], [2, 2]], "weight": "1"},
              {"sites": [[0, 1], [1, 2]], "weight": "1"},
              {"sites": [[0, 2]], "weight": "3"},
              {"sites": [[2, 0]], "weight": "3"}],
    "dashed": [{"sites": [[1, 0], [2, 1]], "weight": "1"}],
}

# valid steps, each with the state it extends
STEPS = (
    ("rho3x3", {"kind": "direct_sum", "side": "A", "names": ["p30", "p32"],
                "edge": {"rows": 3, "cols": 3,
                         "entries": [["3", "0", "0"], ["0", "0", "0"], ["0", "0", "3"]]}}),
    ("rho3x3", {"kind": "slocc", "side": "B", "phi": ["1", "-2", "1/2+1 i"]}),
    ("rho3x3", {"kind": "flat", "side": "A",
                "chi": {"rows": 9, "cols": 3,
                        "entries": [["1", "0", "0"]] + [["0", "0", "0"]] * 8}}),
    ("rho4x5:stage1", {"kind": "product_pair", "side": "B", "alpha": ["1", "0", "0"],
                       "beta": ["0", "0", "1", "0"], "gamma": ["0", "0", "0", "1"],
                       "names": ["q0"]}),
)


def _run(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _graph(**changes) -> dict:
    graph = copy.deepcopy(RHO3X3_GRAPH)
    graph.update(changes)
    return graph


def _solid(sites, weight="1") -> dict:
    return _graph(solid=[{"sites": sites, "weight": weight}], dashed=[])


def test_rho3x3_graph_builds_rho3x3(tmp_path):
    """The full graph builds rho3x3's matrix, edges named s0..s3 and d0 in
    graph order, as the bytes of its state file (pinned by SHA-256) show."""
    path, out = tmp_path / "g.json", tmp_path / "st.json"
    path.write_text(json.dumps(RHO3X3_GRAPH))
    assert _run(["build", "--graph", str(path), "--out", str(out)])[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "4eb6ece2c783bf372e6f28194dec78fe2bf2b939b90bfb8e36017066fc50a6dd"
    state = rp.state_from_json(json.loads(out.read_text()))
    assert state.matrix == co.rho_3x3().matrix and state.label == "grid-state"
    assert [e.name for e in state.edges] == ["s0", "s1", "s2", "s3", "d0"]


GRAPH_CASES = {
    "float-site": (_solid([[0.0, 0]]), "are not one or more distinct [i, j] int pairs"),
    "bool-site": (_solid([[True, 0]]), "are not one or more distinct [i, j] int pairs"),
    "repeated-site": (_solid([[0, 0], [0, 0]]), "distinct [i, j] int pairs"),
    "site-off-grid": (_solid([[0, 3]]), "on the 3x3 grid"),
    "no-sites": (_solid([]), "are not one or more"),
    "dashed-three-sites": (_graph(dashed=[{"sites": [[0, 0], [1, 1], [2, 2]], "weight": "1"}]),
                           "are not two distinct"),
    "dashed-one-site": (_graph(dashed=[{"sites": [[0, 0]], "weight": "1"}]),
                        "are not two distinct"),
    "number-weight-1e400": (_solid([[0, 0]], float("inf")), "inf is not a rational string"),
    "float-weight": (_solid([[0, 0]], 0.1), "0.1 is not a rational string"),
    "int-weight": (_solid([[0, 0]], 1), "1 is not a rational string"),
    # the state's constructor, not the graph reader, refuses a weight that is not positive
    "zero-weight": (_solid([[0, 0]], "0"), "BoundsViolation: edge 's0' has zero weight 0"),
    "negative-weight": (_solid([[0, 0]], "-1/2"),
                        "BoundsViolation: edge 's0' has negative weight -1/2"),
    "huge-dims": (_graph(dims=[100000, 100000]), "exceed 1024 levels in all"),
    "extra-key": (_graph(comment="x"), "unknown graph keys ['comment']"),
    "extra-edge-key": (_graph(solid=[{"sites": [[0, 0]], "weight": "1", "name": "a"}]),
                       "ValueError: unknown solid edge 0 keys ['name']"),
    "no-weight": (_graph(solid=[{"sites": [[0, 0]]}]), "KeyError: 'weight'"),
    "no-dims": ({"solid": []}, "KeyError: 'dims'"),
    "not-an-object": ([1, 2], "ValueError: unknown graph keys [1, 2]"),
}


@pytest.mark.parametrize("graph, message", GRAPH_CASES.values(), ids=GRAPH_CASES.keys())
def test_malformed_graph_exits_2(graph, message, tmp_path):
    path = tmp_path / "g.json"
    # JSON has no infinity: 1e400 is the number that json reads as one
    path.write_text(json.dumps(graph).replace("Infinity", "1e400"))
    code, out, err = _run(["build", "--graph", str(path)])
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    prefix = "" if message.startswith("BoundsViolation") else "MalformedData: malformed graph: "
    assert err.startswith(f"build: {prefix}") and message in err, err


STEP_CASES = {
    "edge-as-vector": ({"kind": "direct_sum", "side": "A", "edge": ["1", "0", "0"]},
                       "step parameter 'edge': TypeError: not a {rows, cols, entries} matrix"),
    "phi-as-matrix": ({"kind": "slocc", "side": "A",
                       "phi": {"rows": 1, "cols": 3, "entries": [["1", "0", "0"]]}},
                      "step parameter 'phi': TypeError: not a list of rational strings"),
    "number-entry": ({"kind": "slocc", "side": "A", "phi": ["1", 0, "0"]},
                     "step parameter 'phi': TypeError: 0 is not a rational string"),
    "bool-entry": ({"kind": "slocc", "side": "A", "phi": ["1", True, "0"]},
                   "step parameter 'phi': TypeError: True is not a rational string"),
    "number-matrix-entry": ({"kind": "direct_sum", "side": "A", "edge": {
        "rows": 1, "cols": 1, "entries": [[3]]}},
        "step parameter 'edge': TypeError: 3 is not a rational string"),
    "unknown-key": ({"kind": "slocc", "side": "A", "phi": ["1", "0", "0"], "psi": ["1"]},
                    "ValueError: unknown slocc step keys ['psi']"),
    "matrix-unknown-key": ({"kind": "direct_sum", "side": "A", "edge": {
        "rows": 1, "cols": 1, "entries": [["3"]], "row": 1}},
        "step parameter 'edge': ValueError: unknown matrix keys ['row']"),
    "missing-key": ({"kind": "product_pair", "side": "B", "alpha": ["1", "0", "0"],
                     "beta": ["0", "0", "1", "0"]}, "KeyError: 'gamma'"),
}


def test_json_nested_too_deeply_exits_2(tmp_path):
    """The JSON reader's RecursionError is input that does not parse."""
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["build", "--graph", str(path)],
                 ["extend", "--state", "rho3x3", "--step", deep]):
        code, out, err = _run(argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, err
        assert err.startswith(f"{argv[0]}: RecursionError: maximum recursion depth"), err


@pytest.mark.parametrize("step, message", STEP_CASES.values(), ids=STEP_CASES.keys())
def test_malformed_step_exits_2(step, message):
    code, out, err = _run(["extend", "--state", "rho3x3", "--step", json.dumps(step)])
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith("extend: ") and message in err, err


def _one_edge_state(n: int) -> dict:
    """An ``n x n`` state file of one product edge: a few hundred bytes
    whose dense matrix would hold ``n**4`` entries."""
    return {"kind": "state", "dim_a": n, "dim_b": n, "label": "big",
            "edges": [{"name": "a", "vector": [[0, "1"]], "weight": "1"}]}


def test_largest_family_member_builds_and_the_next_is_refused():
    assert rp.MAX_DIM == 1024  # family:16 is 31x31 = 961 levels
    code, out, err = _run(["build", "--state", "family:16"])
    assert (code, err) == (0, "") and out.startswith("built 31x31 state")
    assert _run(["build", "--state", "family:10"])[0] == 0
    code, out, err = _run(["build", "--state", "family:17"])
    assert (code, out) == (2, "") and err.startswith("build: InvalidK: family requires")


@pytest.mark.parametrize("argv, expected", [
    (["build", "--state", "family:99999999"],
     "build: InvalidK: family requires k >= 2 and (2k-1)^2 <= 1024, not k = 99999999\n"),
    (["ppt-check", "--state", "big-state.json"],
     "ppt-check: MalformedData: malformed state: ValueError: state dimensions 3000x3000 "
     "exceed 1024 levels in all\n"),
    (["build", "--graph", "big-graph.json"],
     "build: MalformedData: malformed graph: ValueError: state dimensions 100000x100000 "
     "exceed 1024 levels in all\n"),
], ids=["family", "state-file", "graph"])
def test_oversized_input_exits_2_before_allocating(argv, expected, tmp_path, monkeypatch):
    """Each used to run out of memory (the OOM killer ended ``family:99999999``)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big-state.json").write_text(json.dumps(_one_edge_state(3000)))
    (tmp_path / "big-graph.json").write_text(json.dumps(_graph(dims=[100000, 100000])))
    start = time.perf_counter()
    assert _run(argv) == (2, "", expected)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("kind", ["sn-verdict", "ppt"])
def test_oversized_certificate_fails_verify_before_allocating(kind, tmp_path):
    """A few hundred bytes claiming a 3000x3000 state (the sn-verdict of
    one edge reached a ``MemoryError`` at 2.9 GB) fail verify at once."""
    state = _one_edge_state(3000)
    if kind == "ppt":
        evidence = {"psd": True, "pivots": [[0, "1"]], "columns": [[[0, "1"]]]}
        cert = {"kind": "ppt", "state": state, "verdict": "PPT", "rho": evidence,
                "rho_ta": evidence}
    else:
        cert = {"kind": "sn-verdict", "state": state, "lower_inconclusive": "not searched",
                "upper": {"value": 1, "schmidt_ranks": [1]},
                "verdict": "SN <= 1 (lower bound inconclusive)"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cert))
    assert len(path.read_bytes()) < 400
    start = time.perf_counter()
    assert _run(["verify", str(path)]) == (1, "verify: FAILED: malformed state: ValueError: "
                                              "state dimensions 3000x3000 exceed 1024 levels "
                                              "in all\n", "")
    assert time.perf_counter() - start < 2


# -- the scalar bound ------------------------------------------------------------

# ten bytes that Fraction would expand, exactly, to a ten-million-digit int
HUGE = "1e10000000"


def _huge_case(case: str, tmp_path) -> tuple:
    """``(argv, exit code)`` of one reader given :data:`HUGE`, built from a
    valid input: ``verify`` exits 1, every other verb 2."""
    path = tmp_path / "input.json"
    if case in ("ppt-pivot", "cofactor"):
        verb = ["ppt-check"] if case == "ppt-pivot" else ["certify-sn", "--k", "2"]
        assert _run(verb + ["--state", "rho3x3", "--out", str(path)])[0] == 0
        cert = json.loads(path.read_text())
        if case == "ppt-pivot":
            cert["rho"]["pivots"][0][1] = HUGE
        else:
            cert["lower"]["minors"][0][2]["terms"][0][1] = HUGE
        path.write_text(json.dumps(cert))
        return ["verify", str(path)], 1
    if case == "step-entry":
        return ["extend", "--state", "rho3x3", "--step",
                json.dumps({"kind": "slocc", "side": "B", "phi": ["1", "0", HUGE]})], 2
    if case == "imaginary-part":
        return ["extend", "--state", "rho3x3", "--step",
                json.dumps({"kind": "slocc", "side": "B", "phi": ["1", "0", f"1-{HUGE} i"]})], 2
    if case == "graph-weight":
        path.write_text(json.dumps(_graph(solid=[{"sites": [[0, 0]], "weight": HUGE}])))
        return ["build", "--graph", str(path)], 2
    if case == "state-weight":
        assert _run(["build", "--state", "rho3x3", "--out", str(path)])[0] == 0
        state = json.loads(path.read_text())
        state["edges"][3]["weight"] = HUGE
    else:  # a matrix entry
        state = {"kind": "state", "dim_a": 1, "dim_b": 1, "label": "one",
                 "matrix": {"rows": 1, "cols": 1, "entries": [[HUGE]]}}
    path.write_text(json.dumps(state))
    return ["ppt-check", "--state", str(path)], 2


@pytest.mark.parametrize("case", ["state-weight", "matrix-entry", "graph-weight", "step-entry",
                                  "imaginary-part", "ppt-pivot", "cofactor"])
def test_a_scalar_past_the_digit_limit_is_refused_at_once(case, tmp_path):
    """Every stored rational is read by ``replay._rational``, which refuses
    an exponent that expands past ``sys.get_int_max_str_digits()`` digits:
    read exactly, this ten-byte value held each reader for seconds."""
    argv, expected = _huge_case(case, tmp_path)
    start = time.perf_counter()
    code, out, err = _run(argv)
    assert time.perf_counter() - start < 1
    assert code == expected
    line = out if expected == 1 else err
    limit = sys.get_int_max_str_digits()
    assert line.count("\n") == 1 and f"{HUGE}' expands past {limit} digits" in line, (out, err)


def test_exponents_within_the_digit_limit_still_read():
    """``"2e-3"`` is 1/500, as before, in either part of a scalar, and an
    exponent at the limit reads while one past it is refused."""
    limit = sys.get_int_max_str_digits()
    assert rp._rational("2e-3") == Fraction(1, 500)
    assert rp.parse_scalar("2e-3") == rp.GaussianRational(Fraction(1, 500))
    assert rp.parse_scalar("1-2e-3 i") == rp.GaussianRational(1, Fraction(-1, 500))
    assert rp.parse_scalar(" 3E2 ") == 300
    assert rp._rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}"):
        with pytest.raises(ValueError, match="expands past"):
            rp._rational(text)


# -- the fuzzer ------------------------------------------------------------------

def _paths(node, path=()):
    """Every path (keys and indices) into ``node``, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


REPLACEMENTS = ["1", "-1", "1/0", "0.1", "x", "", True, False, 0, 1, -1, 2.5, 0.0, 10 ** 400,
                2 ** 70, None, [], {}, [0, 0], ["1"], {"rows": 1, "cols": 1, "entries": [["1"]]}]


def _mutate(data, doc):
    """Apply one to three mutations to ``doc`` in place: replace a node by a
    value of another type (a bool, a float, a huge int among them), drop a
    key or an element, add a key, or repeat an element (a site, an edge)."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        parent, node = None, doc
        for key in path:
            parent, node = node, node[key]
        how = data.draw(st.sampled_from(["replace", "drop", "add-key", "repeat"]), label="how")
        if how == "replace" and path:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS),
                                                       label="value"))
        elif how == "drop" and path:
            del parent[path[-1]]
        elif how == "add-key" and isinstance(node, dict):
            node[data.draw(st.sampled_from(["sites", "weight", "extra", "dims", "names", "phi",
                                            "edge"]), label="key")] = "1"
        elif how == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[-1]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_graph_and_step_input_exits_0_or_2(tmp_path, data):
    """Whatever the mutation, ``build --graph`` and ``extend --step`` exit 0
    or 2, and exit 2 with one line on stderr and nothing on stdout; any
    exception escaping :func:`cli.run` fails the test."""
    if data.draw(st.booleans(), label="graph"):
        doc = copy.deepcopy(RHO3X3_GRAPH)
        _mutate(data, doc)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        argv = ["build", "--graph", str(path)]
    else:
        state, step = data.draw(st.sampled_from(STEPS), label="step")
        doc = copy.deepcopy(step)
        _mutate(data, doc)
        argv = ["extend", "--state", state, "--step", json.dumps(doc)]
    code, out, err = _run(argv)
    assert code in (0, 2), (code, out, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith(f"{argv[0]}: "), err
    else:
        assert err == "" and out.count("\n") == 1, out
