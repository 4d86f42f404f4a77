"""Serialization round-trips, certificate replay, and the CLI surface."""

import ast
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pptlab import algcert as ac
from pptlab import certifier as ce
from pptlab import cli
from pptlab import constructions as co
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import minors as mi
from pptlab import qstates as qs
from pptlab import replay as rp
from pptlab import serialize as se
from pptlab import verbs
from pptlab.errors import (
    BoundsViolation,
    ConvergenceFailure,
    NotARealRangeBasis,
    NotPsd,
    PptlabError,
)

from oracles import matrix_state

# Tiles stored as its matrix: the matrix state these tests read, write and spoil
TILES_MATRIX = matrix_state(co.tiles_complement())


def test_state_json_roundtrip():
    for st in (co.rho_3x3(), co.rho_4x5().final, co.tiles_complement(), TILES_MATRIX):
        data = json.loads(json.dumps(se.state_to_json(st)))
        back = se.state_from_json(data)
        assert back == st and se.state_from_json(data) == back
        if st.edges is not None:
            assert [e.name for e in back.edges] == [e.name for e in st.edges]


def test_graph_json_roundtrip():
    """A graph's state is its named edges: written as a state file, it
    reads back to the same edges and matrix."""
    graph = {"dims": [3, 4], "solid": [{"sites": [[0, 0], [1, 1]], "weight": "3/2"},
                                       {"sites": [[2, 3]], "weight": "1"}],
             "dashed": [{"sites": [[0, 1], [1, 0]], "weight": "2"}]}
    state = co.graph_state(json.loads(json.dumps(graph)), "g")
    e = [em.basis_vector(12, i) for i in range(12)]
    assert [(edge.name, edge.weight) for edge in state.edges] == \
        [("s0", Fraction(3, 2)), ("s1", 1), ("d0", 2)]
    assert state.edges[0].vec == tuple(a + b for a, b in zip(e[0], e[5]))
    assert state.edges[2].vec == tuple(a - b for a, b in zip(e[1], e[4]))
    back = se.state_from_json(json.loads(json.dumps(se.state_to_json(state))))
    assert back.edges == state.edges and back.matrix == state.matrix


def test_ppt_certificate_roundtrip_and_npt():
    cert = se.ppt_certificate(co.rho_3x3())
    assert cert["verdict"] == "PPT"
    assert se.verify_certificate(json.loads(json.dumps(cert)))
    v = em.vector([1, 0, 0, 1])
    bell = qs.BipartiteState(2, 2, em.ExactMatrix.outer(v, v), label="bell")
    cert = se.ppt_certificate(bell)
    assert cert["verdict"] == "NPT"
    assert se.verify_certificate(cert)


def test_ppt_certificate_tamper_detection():
    cert = se.ppt_certificate(co.rho_3x3())
    bad = json.loads(json.dumps(cert))
    bad["rho"]["pivots"][0][1] = "2"
    with pytest.raises(se.CertificateInvalid):
        se.verify_certificate(bad)


def _verdict(state, lower):
    """The sn-verdict of ``state`` with the ``lower`` result and the upper
    bound of its edges, as read back from JSON."""
    upper = ce.sn_upper_from_decomposition(state)
    return json.loads(json.dumps(se.sn_verdict_certificate(state, lower, upper)))


def test_sn_certificates_roundtrip():
    final = co.rho_4x5().final
    data = _verdict(final, ce.certify_sn_lower(final, 3, ()))
    assert set(data) == {"kind", "state", "lower", "upper", "verdict"}
    assert data["state"] == se.state_to_json(final) and data["verdict"] == "SN = 3"
    assert not {"kind", "state", "k"} & (set(data["lower"]) | set(data["upper"]))
    assert se.verify_certificate(data)
    bad = json.loads(json.dumps(data))
    bad["lower"]["minors"] = bad["lower"]["minors"][:2]
    with pytest.raises(se.CertificateInvalid, match="does not expand"):
        se.verify_certificate(bad)
    bad2 = json.loads(json.dumps(data))
    bad2["lower"]["minors"][0][0] = [0, 1, 2]    # another minor: the identity breaks
    with pytest.raises(se.CertificateInvalid, match="does not expand"):
        se.verify_certificate(bad2)


def test_cli_build_and_ppt_check(tmp_path):
    out = tmp_path / "state.json"
    rc = cli.run(["build", "--state", "family:2", "--out", str(out)])
    assert rc == 0
    rc = cli.run(["ppt-check", "--state", str(out)])
    assert rc == 0


def test_cli_build_from_graph(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "dims": [2, 2],
        "solid": [{"sites": [[0, 0]], "weight": "1"}],
        "dashed": [],
    }))
    out = tmp_path / "st.json"
    assert cli.run(["build", "--graph", str(graph), "--out", str(out)]) == 0
    st = se.state_from_json(json.loads(out.read_text()))
    assert st.dims == (2, 2)


def test_cli_build_label_names_a_named_or_stored_state(tmp_path, capsys):
    """``--label`` was ignored with ``--state``: ``build --state rho3x3
    --label mine`` wrote ``"label": "rho3x3"``.  A graph's state is still
    ``grid-state`` unless labeled."""
    stored = tmp_path / "rho3x3.json"
    assert cli.run(["build", "--state", "rho3x3", "--out", str(stored)]) == 0
    plain = json.loads(stored.read_text())
    capsys.readouterr()
    for ref in ("rho3x3", str(stored)):
        assert cli.run(["build", "--state", ref, "--label", "mine", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {**plain, "label": "mine"}
        assert cli.run(["build", "--state", ref, "--label", "mine"]) == 0
        assert capsys.readouterr().out == "built 3x3 state 'mine' (trace 13)\n"
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"dims": [2, 2], "solid": [{"sites": [[0, 0]], "weight": "1"}]}))
    for label, expected in (([], "grid-state"), (["--label", "g"], "g")):
        assert cli.run(["build", "--graph", str(graph), "--json", *label]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == expected


@pytest.mark.parametrize("argv, error", [
    (["--graph", "g.json", "--state", "tiles"],
     "argument --state: not allowed with argument --graph"),
    ([], "one of the arguments --graph --state is required"),
], ids=["both", "neither"])
def test_cli_build_takes_exactly_one_of_graph_and_state(argv, error, capsys):
    """``build --graph g.json --state tiles`` built the graph and exited 0."""
    with pytest.raises(SystemExit) as exc:
        cli.run(["build", *argv])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"pptlab build: error: {error}\n")


@pytest.mark.parametrize("dims", [[2.0, 2], [True, 2], [2], [0, 2]],
                         ids=["float", "bool", "one", "zero"])
def test_cli_build_refuses_graph_dims_that_are_not_two_positive_ints(dims, tmp_path, capsys):
    """A float dimension used to fail inside the state builder, and a bool
    one to write a state file with ``"dim_a": true`` that every reader
    refuses."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"dims": dims, "solid": [{"sites": [[0, 0]], "weight": "1"}]}))
    assert cli.run(["build", "--graph", str(graph)]) == 2
    assert capsys.readouterr().out == ""


def test_cli_zero_denominator_in_input_exits_2(tmp_path, capsys):
    """``"1/0"`` as a grid-graph weight or a step vector entry is input that
    does not parse, not a fault of the program."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"dims": [2, 2], "solid": [{"sites": [[0, 0]], "weight": "1/0"}]}))
    assert cli.run(["build", "--graph", str(graph)]) == 2
    step = {**RHO_4X5_STEP_JSON[1], "alpha": ["1/0", "0", "0"]}
    assert cli.run(["extend", "--state", "rho3x3", "--step", json.dumps(step)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("ZeroDivisionError") == 2


def test_cli_pipe_family_pptcheck_exit_codes(tmp_path):
    assert cli.run(["build", "--state", "nonexistent.json"]) == 2
    assert cli.run(["ppt-check", "--state", "rho3x3"]) == 0


def test_cli_certify_and_verify_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    rc = cli.run(["certify-sn", "--state", "rho4x5", "--k", "3", "--out", str(cert),
                  "--json"])
    assert rc == 0
    assert cli.run(["verify", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["verdict"] == "SN = 3"
    data["lower"]["minors"] = data["lower"]["minors"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.run(["verify", str(bad)]) == 1


# the three steps of qstates.rho_4x5() as `pptlab extend --step` JSON
RHO_4X5_STEP_JSON = (
    {"kind": "direct_sum", "side": "A",
     "edge": {"rows": 3, "cols": 3,
              "entries": [["3", "0", "0"], ["0", "0", "0"], ["0", "0", "3"]]}},
    {"kind": "product_pair", "side": "B", "alpha": ["1", "0", "0"],
     "beta": ["0", "0", "1", "0"], "gamma": ["0", "0", "0", "1"]},
    {"kind": "product_pair", "side": "B", "alpha": ["0", "0", "1", "0"],
     "beta": ["1", "0", "0", "0"], "gamma": ["0", "0", "0", "1"]},
)


def test_cli_replays_the_recorded_rho4x5_steps(tmp_path):
    pipe = co.rho_4x5()
    state = "rho3x3"
    for i, (data, step, want) in enumerate(zip(RHO_4X5_STEP_JSON, pipe.steps,
                                               (pipe.stage1, pipe.stage2, pipe.final))):
        assert ex.step_from_json(data, step.label).parameters == step.parameters
        out = tmp_path / f"stage{i}.json"
        assert cli.run(["extend", "--state", state, "--step", json.dumps(data),
                        "--out", str(out)]) == 0
        assert se.state_from_json(json.loads(out.read_text())).matrix == want.matrix
        state = str(out)


def _kernel_case(kind, side, tmp_path):
    """(state reference, its label, step parameters as JSON, the library
    kernel's extension) for one step kind on one side."""
    rho = co.rho_3x3()
    if kind == "slocc":
        phi = ["1", "-2", "1/2+1 i"]
        return "rho3x3", rho.label, {"phi": phi}, \
            ex.slocc_extension(rho, tuple(em.parse_scalar(x) for x in phi), side)
    if kind == "direct_sum":
        edge = em.diag([3, 0, Fraction(1, 2)])
        blocks = ex.ExtensionBlocks(rho, em.zeros(9, 3), edge, side, 3)
        return "rho3x3", rho.label, {"edge": se.matrix_to_json(edge)}, \
            ex.assemble_extension(blocks)
    if kind == "flat":
        chi = em.ExactMatrix([[rho.matrix.entry(r, c) for c in (0, 4, 8)] for r in range(9)])
        return "rho3x3", rho.label, {"chi": se.matrix_to_json(chi)}, \
            ex.flat_extension(rho, chi, side)
    core = co.rho_4x5().stage1 if side == "B" else qs.swap_subsystems(co.rho_4x5().stage1)
    path = tmp_path / "core.json"
    path.write_text(json.dumps(se.state_to_json(core)))
    vectors = {"alpha": em.basis_vector(3, 0), "beta": em.basis_vector(4, 2),
               "gamma": em.basis_vector(4, 3)}
    want = ex.product_pair_extension(core, **vectors, side=side)
    return str(path), core.label, \
        {k: [em.format_scalar(x) for x in v] for k, v in vectors.items()}, want


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("kind", ["direct_sum", "slocc", "product_pair", "flat"])
def test_cli_extend_matches_library_kernel(tmp_path, kind, side):
    state, label, params, want = _kernel_case(kind, side, tmp_path)
    out = tmp_path / "ext.json"
    step = {"kind": kind, "side": side, **params}
    assert cli.run(["extend", "--state", state, "--step", json.dumps(step),
                    "--out", str(out)]) == 0
    got = se.state_from_json(json.loads(out.read_text()))
    assert got.dims == want.dims and got.matrix == want.matrix
    assert got.label == f"{kind}({label})"


@pytest.mark.parametrize("step, message", [
    ({"kind": "twist", "side": "A", "phi": ["1", "0", "0"]},
     "BoundsViolation: unknown step kind 'twist'"),
    ({"kind": "slocc", "side": "A", "phi": ["1", "0"]},
     "DimensionMismatch: phi must live on the extended side"),
    ({"kind": "product_pair", "side": "A", "alpha": ["1", "0", "0"],
      "beta": ["0", "1"], "gamma": ["0", "0", "1"]},
     "DimensionMismatch: alpha on the extended side, beta/gamma on the other side"),
    ({"kind": "direct_sum", "side": "A", "edge": se.matrix_to_json(em.diag([1, 0, 0, 0]))},
     "DimensionMismatch: edge block has the wrong shape"),
    ({"kind": "direct_sum", "side": "A", "edge": se.matrix_to_json(em.diag([-1, 0, 3]))},
     "NotPsd: state 'direct_sum(rho3x3)' is not PSD; witness value -1"),
    ({"kind": "flat", "side": "A",
      "chi": se.matrix_to_json(em.ExactMatrix([[1, 0, 0]] + [[0, 0, 0]] * 8))},
     "PreconditionViolation: chi is not in the range of rho_c: "
     "no edge block makes the extension PSD"),
], ids=["unknown-kind", "short-phi", "short-beta", "large-edge", "negative-edge",
        "chi-outside-range"])
def test_cli_extend_input_errors_exit_2(step, message, capsys):
    """Each refusal names what the step got wrong: a direct-sum step
    supplies no coupling, so a 4x4 edge on rho3x3 is the edge's fault, and
    a negative one fails the state the step names.  A flat coupling with
    the column |00>, outside R(rho3x3), leaves no edge block that makes the
    extension PSD."""
    assert cli.run(["extend", "--state", "rho3x3", "--step", json.dumps(step)]) == 2
    assert capsys.readouterr() == ("", f"extend: {message}\n")


@pytest.mark.parametrize("state, digest", [
    ("rho4x5:stage1", "956bd6860ea363d682edabe486bca0084656c46fd8dbe2c509427fedb84a4dba"),
    ("rho4x5:stage2", "f073ebc465b4cc51b8028f6c72f7dcbf9e8b5cf64188cd6d3bd0f9920447ed6e"),
    ("rho4x5", "bd365a8b756efcdc370c4b304192f3d228eb3407d92664418268187259bcfd98"),
], ids=["stage1", "stage2", "final"])
def test_build_rho4x5_json_pinned(tmp_path, state, digest):
    """The pipeline states' bytes (labels, edge names and order, vectors and
    weights) are pinned by SHA-256."""
    out = tmp_path / "state.json"
    assert cli.run(["build", "--state", state, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_extend_lifts_the_edges_of_a_state_that_has_them(tmp_path):
    """With each step's ``names``, three ``pptlab extend`` calls rebuild
    rho4x5 with its edges: the file equals ``build --state rho4x5`` up to
    the label, and certify-sn and verify accept it with SN = 3 at power 4."""
    state = "rho3x3"
    for i, (data, step) in enumerate(zip(RHO_4X5_STEP_JSON, co.rho_4x5().steps)):
        named = {**data, "names": list(step.names)}
        assert ex.step_from_json(named, step.label) == step
        out = tmp_path / f"stage{i}.json"
        assert cli.run(["extend", "--state", state, "--step", json.dumps(named),
                        "--out", str(out)]) == 0
        state = str(out)
    built = se.state_to_json(co.rho_4x5().final)
    replayed = json.loads((tmp_path / "stage2.json").read_text())
    assert replayed["label"] != built["label"]
    assert {**replayed, "label": built["label"]} == built
    cert = tmp_path / "cert.json"
    assert cli.run(["certify-sn", "--state", state, "--out", str(cert)]) == 0
    assert cli.run(["verify", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert (data["verdict"], data["lower"]["power"]) == ("SN = 3", 4)


def test_cli_extend_names_an_unnamed_remainder(tmp_path):
    """A step without ``names`` still lifts the edges; the remainder's parts
    are named after the new level."""
    out = tmp_path / "ext.json"
    assert cli.run(["extend", "--state", "rho3x3", "--step", json.dumps(RHO_4X5_STEP_JSON[0]),
                    "--out", str(out)]) == 0
    st = se.state_from_json(json.loads(out.read_text()))
    assert [e.name for e in st.edges] == ["e0", "e1", "e2", "e3", "e4", "A3_0", "A3_1"]
    assert st.matrix == co.rho_4x5().stage1.matrix


@pytest.mark.parametrize("argv", [
    ["extend", "--state", "rho3x3", "--step", "{not json"],
    ["extend", "--state", "rho3x3", "--step", "[1, 2]"],
    ["extend", "--state", "rho3x3", "--step",
     json.dumps({**RHO_4X5_STEP_JSON[0], "names": "p30"})],
    ["ppt-check", "--state", "family:x"],
    ["ppt-check", "--state", "missing-state.json"],
    ["sample", "--dims", "3x3", "--birank", "4,4,4"],
], ids=["step-json", "step-not-object", "names-not-list", "family-k", "missing-file",
        "birank"])
def test_cli_input_that_does_not_parse_exits_2(argv, capsys):
    assert cli.run(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_internal_value_error_is_not_an_input_error(monkeypatch):
    """A ValueError raised by the computation, not by parsing the input,
    surfaces with its traceback instead of exiting 2."""
    def broken(state):
        raise ValueError("internal fault")

    monkeypatch.setattr(se, "ppt_certificate", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.run(["ppt-check", "--state", "rho3x3"])


def test_cli_verify_fails_a_certificate_that_does_not_parse(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    del data["rho"]
    cert.write_text(json.dumps(data))
    assert cli.run(["verify", str(cert)]) == 1
    assert "malformed certificate: KeyError" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    lambda d: [d],
    lambda d: {**d, "state": {**d["state"], "dim_a": 3.0}},
    lambda d: {**d, "rho": {**d["rho"], "pivots": [[0]]}},
    lambda d: {**d, "rho_ta": {**d["rho_ta"], "columns": "x"}},
    lambda d: {**d, "kind": ["ppt"]},
    lambda d: {**d, "rho": {**d["rho"], "psd": 1}},
    lambda d: {**d, "rho_ta": {**d["rho_ta"], "psd": "yes"}},
], ids=["not-an-object", "float-dimension", "short-pivot", "columns-not-a-list",
        "kind-not-a-string", "psd-one", "psd-yes"])
def test_cli_verify_fails_malformed_ppt_certificates(tmp_path, capsys, edit):
    cert = tmp_path / "cert.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    cert.write_text(json.dumps(edit(json.loads(cert.read_text()))))
    assert cli.run(["verify", str(cert)]) == 1
    assert "verify: FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["x", -5, 1000, True, None, 2.5, "swapped", "zero"],
                         ids=["string", "negative", "out-of-range", "bool", "null", "float",
                              "swapped", "zero"])
def test_cli_verify_fails_malformed_pivot_pairs(tmp_path, capsys, fault):
    """rho3x3's pivots are sparse ``[index, value]`` pairs, read as a stored
    vector's are.  A pivot index that is not an int below 9, its first two
    pairs (both ``"1"``) swapped, or a zero pivot inserted with a column of
    its own fails ``verify``; a reader of the values alone accepted each."""
    cert = tmp_path / "cert.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    pivots, columns = data["rho"]["pivots"], data["rho"]["columns"]
    assert pivots == [[0, "1"], [1, "1"], [2, "3"], [3, "1"], [6, "3"]]
    if fault == "swapped":
        pivots[0], pivots[1] = pivots[1], pivots[0]
    elif fault == "zero":
        pivots.insert(4, [4, "0"])
        columns.insert(4, columns[0])
    else:
        pivots[1][0] = fault
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.run(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verify: FAILED: malformed certificate: ValueError: entry [")
    assert out.count("\n") == 1


def _bell_json(dim_a, dim_b):
    """The Bell state ``|00> + |11>`` stored as one edge, with the stated dimensions."""
    return {"kind": "state", "dim_a": dim_a, "dim_b": dim_b, "label": "bell",
            "edges": [{"name": "e", "vector": [[0, "1"], [3, "1"]], "weight": "1"}]}


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4)], ids=["minus-2x-2", "minus-1x-4"])
def test_cli_refuses_non_positive_dimensions(tmp_path, capsys, dims):
    """The Bell state is NPT.  Stored with dimensions whose product is 4, it
    passed the shape checks, and its partial transpose over ``range(-2)``
    was the zero matrix: ``ppt-check`` called it PPT and ``verify`` replayed
    that certificate.  Both now refuse the dimensions."""
    state, cert = tmp_path / "state.json", tmp_path / "cert.json"
    state.write_text(json.dumps(_bell_json(2, 2)))
    assert cli.run(["ppt-check", "--state", str(state)]) == 0
    assert capsys.readouterr().out == "bell: NPT\n"
    state.write_text(json.dumps(_bell_json(*dims)))
    assert cli.run(["ppt-check", "--state", str(state)]) == 2
    assert capsys.readouterr() == ("", "ppt-check: MalformedData: malformed state: ValueError: "
                                   f"state dimensions {dims[0]}x{dims[1]} are not positive\n")
    bell = se.state_from_json(_bell_json(2, 2))
    forged = se.ppt_certificate(qs.BipartiteState._raw(*dims, bell.matrix, "bell", bell.edges))
    assert (forged["verdict"], forged["state"]["dim_a"]) == ("PPT", dims[0])
    cert.write_text(json.dumps(forged))
    assert cli.run(["verify", str(cert)]) == 1
    assert capsys.readouterr().out == ("verify: FAILED: malformed state: ValueError: "
                                       f"state dimensions {dims[0]}x{dims[1]} are not positive\n")


@pytest.mark.parametrize("verb, kernel", [
    ("ppt-check", "psd_check"), ("verify", "weighted_gram"),
])
def test_cli_kernel_fault_in_a_replay_keeps_its_traceback(tmp_path, replace, verb, kernel):
    """Reading a stored state or certificate is input parsing; the exact
    kernels that replay it are not, so a ValueError raised inside one
    surfaces instead of exiting 2 or failing the certificate."""
    path = tmp_path / "in.json"
    if verb == "verify":
        assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(path)]) == 0
        argv = ["verify", str(path)]
    else:
        assert cli.run(["build", "--state", "rho3x3", "--out", str(path)]) == 0
        argv = ["ppt-check", "--state", str(path)]

    def broken(*args):
        raise ValueError("kernel fault")

    replace(em, kernel, broken)
    with pytest.raises(ValueError, match="kernel fault"):
        cli.run(argv)


def test_cli_state_file_with_float_dimensions_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    assert cli.run(["build", "--state", "rho3x3", "--out", str(path)]) == 0
    path.write_text(json.dumps({**json.loads(path.read_text()), "dim_b": 3.0}))
    assert cli.run(["ppt-check", "--state", str(path)]) == 2
    assert "malformed state" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"rows": 4, "cols": 4, "entries": []},
    {"rows": 0, "cols": 2, "entries": []},
    {"rows": 2, "cols": 1, "entries": [["1"]]},
    {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0"]]},
    {"rows": 1, "cols": 2, "entries": ["10"]},
    {"rows": True, "cols": 1, "entries": [["1"]]},
    {"rows": 1, "cols": True, "entries": [["1"]]},
    {"rows": 1.0, "cols": 1, "entries": [["1"]]},
], ids=["empty-4x4", "empty-0x2", "short", "ragged", "row-not-a-list", "bool-rows",
        "bool-cols", "float-rows"])
def test_matrix_from_json_requires_rows_of_entries(data):
    with pytest.raises(ValueError, match="rows of"):
        se.matrix_from_json(data)


def test_matrix_from_json_reads_what_matrix_to_json_writes():
    assert se.matrix_from_json({"rows": 0, "cols": 0, "entries": []}).shape == (0, 0)
    M = em.ExactMatrix([[1, em.GaussianRational(0, Fraction(1, 2))], [0, -3]])
    assert se.matrix_from_json(json.loads(json.dumps(se.matrix_to_json(M)))) == M


def test_cli_a_matrix_without_its_entries_is_malformed(tmp_path, capsys):
    """Empty ``entries`` is not the zero matrix: a state file holding it
    exits 2 on ppt-check, a ppt certificate holding it fails verify, and
    an extend step whose edge holds it exits 2."""
    cert = se.ppt_certificate(qs.BipartiteState(2, 2, em.zeros(4, 4), label="0"))
    cert["state"]["matrix"]["entries"] = []
    state = tmp_path / "state.json"
    state.write_text(json.dumps(cert["state"]))
    assert cli.run(["ppt-check", "--state", str(state)]) == 2
    assert "malformed state: ValueError" in capsys.readouterr().err
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    assert "verify: FAILED: malformed state" in capsys.readouterr().out
    step = {**RHO_4X5_STEP_JSON[0], "edge": {"rows": 3, "cols": 3, "entries": []}}
    assert cli.run(["extend", "--state", "rho3x3", "--step", json.dumps(step)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ValueError: matrix entries" in captured.err


@pytest.mark.parametrize("state", [
    {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "none", "edges": []},
    se.state_to_json(TILES_MATRIX),
], ids=["empty-edges", "matrix-state"])
def test_cli_certify_sn_needs_edges(tmp_path, capsys, state):
    """certify-sn bounds a state through its edges, and plot draws them: a
    state without any exits 2 with one line, not a traceback."""
    if isinstance(state, dict):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        state = str(path)
    for verb in ("certify-sn", "plot"):
        assert cli.run([verb, "--state", state]) == 2
        assert capsys.readouterr().err == f"{verb}: state carries no edge decomposition\n"


def test_loading_an_edge_state_sums_its_edges_once(tmp_path, spy, monkeypatch):
    """A state file of edges is read by one Gram sum and no LDL*: a Gram sum
    of nonnegative weights is PSD by construction."""
    path = tmp_path / "family5.json"
    assert cli.run(["build", "--state", "family:5", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    calls = spy(em, "weighted_gram", "psd_check")
    loaded = se.state_from_json(data)
    assert [name for name, _ in calls] == ["weighted_gram"]
    monkeypatch.undo()
    assert loaded == co.rho_family(5) and loaded.edges == tuple(co.family_edges(5))


def test_cli_verify_of_a_witness_value_past_the_digit_limit_fails(tmp_path, capsys):
    """A stored witness whose value ``<w|M|w>`` is too long to write as text
    fails the replay with one line instead of a traceback."""
    cert = se.ppt_certificate(qs.BipartiteState(2, 2, em.ExactMatrix(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])))
    assert cert["verdict"] == "NPT"
    scale = 10 ** 2200 + 7
    cert["rho_ta"]["witness"] = [[i, em.format_scalar(em.parse_scalar(x) * scale)]
                                 for i, x in cert["rho_ta"]["witness"]]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verify: FAILED: a scalar with a ") and out.count("\n") == 1


# -- reading scalars and sparse vectors -------------------------------------------

BAD_SCALARS = ["1/0", "", "1//2", "1" * 5000, 1, [], None]
BAD_IDS = ["zero-denominator", "empty", "double-slash", "5000-digits", "int", "list", "null"]


def _malformed(what, bad):
    """The message ``serialize`` gives for ``bad``, from ``parse_scalar`` itself."""
    try:
        em.parse_scalar(bad)
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed {what}: {type(exc).__name__}: {exc}"
    raise AssertionError(f"{bad!r} parses")


def _spoil_state(data, bad):
    """``data`` (a stored state) with ``bad`` as the value of several stored
    entries of its edge vectors, or of its matrix when it stores no edges."""
    data = json.loads(json.dumps(data))
    if "edges" in data:
        for e, i in ((0, 0), (0, 2), (2, 1), (4, 0)):
            data["edges"][e]["vector"][i][1] = bad
    else:
        for i, j in ((0, 1), (1, 0), (2, 2), (4, 4)):
            data["matrix"]["entries"][i][j] = bad
    return data


# a state stored as its edges, and one stored as its matrix
SPOILED_STATES = (co.rho_3x3(), TILES_MATRIX)


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=BAD_IDS)
def test_repeated_malformed_scalar_in_a_state_is_rejected(bad):
    for state in SPOILED_STATES:
        data = _spoil_state(se.state_to_json(state), bad)
        with pytest.raises(se.MalformedData) as info:
            se.state_from_json(data)
        assert str(info.value) == _malformed("state", bad)


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=BAD_IDS)
def test_repeated_malformed_scalar_fails_verify(bad):
    for state in SPOILED_STATES:
        spoiled = se.ppt_certificate(state)
        spoiled["state"] = _spoil_state(spoiled["state"], bad)
        with pytest.raises(se.CertificateInvalid) as info:
            se.verify_certificate(spoiled)
        assert str(info.value) == _malformed("state", bad)
    cert = se.ppt_certificate(co.rho_3x3())
    spoiled = json.loads(json.dumps(cert))
    for col in spoiled["rho_ta"]["columns"][:3]:
        col[-1][1] = bad
    with pytest.raises(se.CertificateInvalid) as info:
        se.verify_certificate(spoiled)
    assert str(info.value) == _malformed("certificate", bad)


SPELLINGS = ["0", "-0", "0/3", " 0", "0+0 i", "1", "1/2", "2/4", "-3/7", "3e-2",
             "1+2 i", "1-2 i", "-1/2 i", "2/3+0 i"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_reading_equals_entrywise_parse(data):
    """A step's matrix and a diagonal state read exactly as ``parse_scalar``
    reads each entry, whatever strings repeat."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.lists(st.sampled_from(SPELLINGS), min_size=cols,
                                          max_size=cols), min_size=rows, max_size=rows))
    edge = ex.step_from_json({"kind": "direct_sum",
                              "edge": {"rows": rows, "cols": cols, "entries": entries}},
                             "x").parameters["edge"]
    assert edge == em.ExactMatrix([[em.parse_scalar(x) for x in row] for row in entries])
    n = data.draw(st.integers(1, 5))
    diagonal = data.draw(st.lists(st.sampled_from(["0", "-0", "1", "1/2", "2/4", "3e-2"]),
                                  min_size=n, max_size=n))
    zeros = st.sampled_from(["0", "-0", "0/3", "0+0 i"])
    stored = {"dim_a": 1, "dim_b": n, "label": "", "matrix": {"rows": n, "cols": n, "entries": [
        [diagonal[i] if i == j else data.draw(zeros) for j in range(n)] for i in range(n)]}}
    state = se.state_from_json(stored)
    assert state.matrix == em.ExactMatrix(
        [[em.parse_scalar(x) for x in row] for row in stored["matrix"]["entries"]])


ZERO_SPELLINGS = ["0", "-0", "0/3", " 0", "0+0 i", "0 i", "-0/5+0/2 i"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(SPELLINGS), max_size=12).map(
    lambda texts: tuple(em.parse_scalar(x) for x in texts)))
def test_sparse_vector_round_trip(v):
    """``vector_to_json`` stores each nonzero entry once, in index order, and
    ``vector_from_json`` with the length rebuilds the vector."""
    stored = json.loads(json.dumps(se.vector_to_json(v)))
    assert [i for i, _ in stored] == [i for i, x in enumerate(v) if x]
    assert se.vector_from_json(stored, len(v)) == v


@pytest.mark.parametrize("pairs", [
    [[0, "1"], [0, "2"]], [[2, "1"], [1, "1"]], [[3, "1"]], [[-1, "1"]], [[True, "1"]],
    [[1.0, "1"]], [["1", "1"]], *([[1, zero]] for zero in ZERO_SPELLINGS), [[1]],
    [[1, "1", "1"]], [1], {"1": "1"}, "1",
], ids=["duplicate-index", "unsorted", "out-of-range", "negative-index", "bool-index",
        "float-index", "string-index", *(f"zero{i}" for i in range(len(ZERO_SPELLINGS))),
        "short-pair", "long-pair", "bare-int", "object", "string"])
def test_malformed_sparse_vectors_are_rejected(pairs):
    with pytest.raises((ValueError, TypeError, AttributeError, se.MalformedData)):
        se.vector_from_json(pairs, 3)
    state = {"kind": "state", "dim_a": 1, "dim_b": 3, "label": "",
             "edges": [{"name": "e", "vector": pairs, "weight": "1"}]}
    with pytest.raises(se.MalformedData):
        se.state_from_json(state)


def test_cli_ppt_check_of_a_scalar_past_the_digit_limit_exits_2(tmp_path, capsys):
    """A pivot longer than Python's int-to-text limit fails with one line
    naming the limit and the digit count, not a traceback.  The state is the
    Gram matrix of four integer vectors with ~700-digit entries: it reads
    fine, and its LDL* pivots outgrow the limit."""
    import random

    rng = random.Random(7)
    vecs = [[rng.randrange(10 ** 699, 10 ** 700) for _ in range(4)] for _ in range(4)]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(se.state_to_json(qs.BipartiteState(2, 2, em.ExactMatrix(gram)))))
    assert cli.run(["ppt-check", "--state", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("ppt-check: ScalarTooLarge: ")
    limit = sys.get_int_max_str_digits()
    assert f"limit of {limit} digits" in err
    digits = int(err.split("-digit part")[0].rsplit(" ", 1)[1])
    assert digits > limit


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("state, digest", [
    ("rho3x3", "ef71af75f857cf08958b2e033468afbec9fad336f6feff27f5f6ea41bd94329c"),
    ("rho4x5", "66e5e1d18439975dc0232aac000fb6bc759508091a3a15a5957f3a6b588bdb62"),
    ("family:3", "52f53d1888af9da21e6d790faf7798995ae6a4fb32969c9c114ea12593875643"),
    (os.path.join(DATA, "rounded_4x4_s634511.json"),
     "dad91371a3ea938daba412c17a43209aabd1ad13d72fb7cff64f9320fae8f824"),
], ids=["rho3x3", "rho4x5", "family3", "rounded-4x4"])
def test_ppt_check_json_pinned(tmp_path, state, digest):
    """ppt-check output bytes (pivots, columns, verdict) are pinned by
    SHA-256.  The rounded state is the exact rounding of the 4x4 birank-(7,7)
    Gauss-Newton sample with seed 634511, stored as a file so that the pin
    does not depend on floating point."""
    out = tmp_path / "ppt.json"
    assert cli.run(["ppt-check", "--state", state, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_a_stored_matrix_state_is_factored_once_by_ppt_check_and_not_by_verify(
        tmp_path, spy):
    """ppt-check of a stored matrix state runs two LDL* (rho and its partial
    transpose; three when loading the state ran its own), and verify of the
    certificate runs none: the Gram sums of the stored factorizations check
    both matrices, rho's the state itself."""
    state, cert = os.path.join(DATA, "rounded_4x4_s634511.json"), tmp_path / "ppt.json"
    calls = spy(em, "psd_check")
    assert cli.run(["ppt-check", "--state", state, "--out", str(cert)]) == 0
    assert len(calls) == 2
    spy(em, "weighted_gram")
    assert cli.run(["verify", str(cert)]) == 0
    names = [name for name, _ in calls]
    assert (names.count("psd_check"), names.count("weighted_gram")) == (2, 2)


def _not_psd_matrix_state():
    """``diag(1, 1, 1, -1)`` on 2x2, stored as a matrix: not a state."""
    return {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "not-psd",
            "matrix": se.matrix_to_json(em.ExactMatrix(
                [[1 if i == j else 0 for j in range(4)] for i in range(3)]
                + [[0, 0, 0, -1]]))}


def test_ppt_check_of_a_stored_matrix_that_is_not_psd_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_not_psd_matrix_state()))
    assert cli.run(["ppt-check", "--state", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ppt-check: NotPsd: state 'not-psd' is not PSD")


def test_ppt_certificate_with_a_negativity_witness_for_rho_fails_verify(tmp_path, capsys):
    """A matrix "state" that is not PSD, stored with a valid negativity
    witness for rho and a verdict of NPT, is no certificate: the replay
    finds rho not PSD (NotPsd), and verify fails."""
    data = _not_psd_matrix_state()
    rho = se.matrix_from_json(data["matrix"])
    res_rho = em.psd_check(rho)
    res_pt = em.psd_check(qs.partial_transpose_matrix(rho, 2, 2, "A"))
    assert not res_rho.is_psd
    cert = {"kind": "ppt", "state": data, "verdict": "NPT",
            "rho": se._psd_json(res_rho), "rho_ta": se._psd_json(res_pt)}
    with pytest.raises(NotPsd, match="state 'not-psd' is not PSD"):
        se.verify_certificate(json.loads(json.dumps(cert)))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("verify: FAILED: state 'not-psd' is not PSD")


def test_cli_extremal():
    assert cli.run(["extremal", "--state", "rho4x5", "--side", "B", "--perp", "4"]) == 0


@pytest.mark.parametrize("state, side, perp, cone", [
    ("rho4x5:stage1", "B", 2, ("NotCertified", False, 4)),
    ("rho4x5", "B", 4, ("NotCertified", True, 1)),
    ("family:3", "A", 4, ("Extremal", True, 0)),
], ids=["stage1-B", "rho4x5-B", "family3-A"])
def test_extremal_json_pins_the_ppt_cone_verdicts(capsys, state, side, perp, cone):
    """``extremal --json`` splits off the last level of ``side`` by default
    and reports the PPT-cone verdict, whether the ranges form a direct sum,
    and the perturbation dimension."""
    assert cli.run(["extremal", "--state", state, "--side", side, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    ppt = out["ppt_cone"]
    assert (out["side"], out["perp_index"]) == (side, perp)
    assert (ppt["verdict"], ppt["trivial_range_intersection"],
            ppt["perturbation_dimension"]) == cone


def test_extremal_refuses_to_split_off_a_side_of_one_level(tmp_path, capsys):
    """Splitting the only level of a side leaves no core; an ``ExactMatrix``
    with no rows has shape (0, 0), so this used to fail later as
    ``DimensionMismatch: coupling block has the wrong shape``."""
    state = qs.BipartiteState(1, 2, label="1x2", edges=[
        qs.NamedVector("a", em.basis_vector(2, 0), Fraction(1)),
        qs.NamedVector("b", em.basis_vector(2, 1), Fraction(1))])
    message = "side A has one level: splitting it off leaves no core"
    with pytest.raises(BoundsViolation, match=message):
        ex.split_blocks(state, "A", 0)
    with pytest.raises(BoundsViolation, match="side B has one level"):
        ex.split_matrix(state.partial_transpose("A"), 2, 1, "B", 0)
    path = tmp_path / "1x2.json"
    path.write_text(json.dumps(se.state_to_json(state)))
    assert cli.run(["extremal", "--state", str(path)]) == 2
    assert capsys.readouterr() == ("", f"extremal: BoundsViolation: {message}\n")
    assert cli.run(["extremal", "--state", str(path), "--side", "B"]) == 0


def test_extend_refuses_names_on_a_state_without_edges(tmp_path, capsys):
    """A matrix state has no edges to lift, so a step's ``names`` would name
    nothing; they used to be dropped without a word."""
    path = tmp_path / "tiles.json"
    path.write_text(json.dumps(se.state_to_json(TILES_MATRIX)))
    step = {"kind": "slocc", "side": "A", "phi": ["1", "0", "0"]}
    argv = ["extend", "--state", str(path), "--step"]
    assert cli.run(argv + [json.dumps({**step, "names": ["x", "y", "z"]})]) == 2
    assert capsys.readouterr() == ("", "extend: PreconditionViolation: slocc(tiles-complement): "
                                   "a state without edges takes no names\n")
    assert cli.run(argv + [json.dumps(step)]) == 0


# (dims, birank, message) of targets whose Newton system is overdetermined
OVERDETERMINED = [
    ("5x5", "4,4", "birank (4,4) of 5x5 is overdetermined: 882 conditions on 625 parameters"),
    ("2x2", "1,1", "birank (1,1) of 2x2 is overdetermined: 18 conditions on 16 parameters"),
    ("4x4", "4,4", "birank (4,4) of 4x4 is overdetermined: 288 conditions on 256 parameters"),
]


@pytest.mark.parametrize("argv, message", [
    (["--birank", "10,10"], "DimensionMismatch: birank outside the valid range"),
    (["--birank", "4,4 10,10"], "DimensionMismatch: birank outside the valid range"),
    (["--birank", "4,4", "--samples", "0"], "--samples must be at least 1"),
    (["--birank", "4,4", "--seed", "-3"], "--seed must be at least 0"),
    (["--birank", "4,4", "--dims", ""], "--dims lists nothing to survey"),
    (["--birank", " "], "--birank lists nothing to survey"),
    *[(["--dims", dims, "--birank", birank], f"DimensionMismatch: {message}")
      for dims, birank, message in OVERDETERMINED],
], ids=["birank", "second-birank", "no-samples", "negative-seed", "no-dims", "no-biranks",
        *[f"overdetermined-{dims}-{birank}" for dims, birank, _ in OVERDETERMINED]])
def test_cli_survey_input_errors_exit_2(argv, message, capsys, monkeypatch):
    """A birank outside ``1..mn`` used to be skipped (``"reports": []``,
    exit 0), as were an empty ``--dims`` and ``--birank`` list, and
    ``--samples 0`` wrote a NaN residual, which is not JSON; each exits 2
    before any sampling, as ``sample`` does.  So does a birank whose Newton
    system has more conditions than parameters."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("the survey sampled before rejecting its input")

    monkeypatch.setattr("pptlab.numlab.gauss_newton_lockstep", no_sampling)
    assert cli.run(["survey", "--dims", "3x3", *argv, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"survey: {message}\n"


def test_a_survey_row_with_nothing_converged_writes_null_residuals(capsys, monkeypatch):
    """A row whose samples all fail has no residual: ``--json`` writes
    ``null`` for both (it wrote ``NaN``, which is not JSON), while the table
    prints ``nan``.  2x5 (4,2) has as many conditions as parameters (100),
    so it is sampled, not refused."""
    def failing(m, n, p, q, seeds):
        return [ConvergenceFailure("not run")] * len(seeds)

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    monkeypatch.setattr("pptlab.numlab.gauss_newton_lockstep", failing)
    argv = ["survey", "--dims", "2x5", "--birank", "4,2", "--samples", "1"]
    assert cli.run(argv + ["--json"]) == 0
    report, = json.loads(capsys.readouterr().out, parse_constant=no_constant)["reports"]
    assert (report["converged"], report["residual_max"], report["residual_median"]) == (0, None, None)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[4] == "nan"
    with pytest.raises(ValueError, match="not JSON compliant"):  # no verb writes NaN
        verbs._emit(types.SimpleNamespace(out=None, json=True), {"residual": float("nan")}, "")


def test_cli_sample_negative_seed_exits_2(capsys, monkeypatch):
    """numpy's generator takes no negative seed; ``sample`` rejects one as
    input before it samples, as ``survey`` does."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample sampled before rejecting its input")

    monkeypatch.setattr("pptlab.numlab.gauss_newton_birank", no_sampling)
    assert cli.run(["sample", "--dims", "3x3", "--birank", "4,4", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "sample: --seed must be at least 0\n"


def test_cli_sample_and_survey(capsys):
    assert cli.run(["sample", "--dims", "3x3", "--birank", "4,4", "--seed", "1"]) == 0
    assert cli.run(["survey", "--dims", "3x3", "--birank", "4,4",
                    "--samples", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "ext dims" in out


def test_cli_sample_exit_codes(monkeypatch, capsys):
    """A birank the dimensions cannot carry, or whose Newton system is
    overdetermined, is an input error (exit 2), refused before a start point
    is drawn; only a sample that does not converge is inconclusive (exit 1)."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample drew a start point before rejecting its input")

    with monkeypatch.context() as patch:
        patch.setattr("pptlab.numlab.random_hermitian", no_sampling)
        for dims, birank, message in [("2x2", "9,9", "birank outside the valid range"),
                                      *OVERDETERMINED]:
            assert cli.run(["sample", "--dims", dims, "--birank", birank]) == 2
            assert capsys.readouterr() == ("", f"sample: DimensionMismatch: {message}\n")

    def no_convergence(*args, **kwargs):
        raise ConvergenceFailure("residual above tolerance")

    monkeypatch.setattr("pptlab.numlab.gauss_newton_birank", no_convergence)
    assert cli.run(["sample", "--dims", "3x3", "--birank", "4,4"]) == 1
    assert capsys.readouterr().err == "sample: residual above tolerance\n"


def test_cli_plot(tmp_path, capsys):
    svg = tmp_path / "g.svg"
    assert cli.run(["plot", "--state", "rho3x3", "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    out = capsys.readouterr().out
    assert "e0" in out


def test_plot_names_sites_and_edges_unambiguously(capsys):
    """A site reads ``|ij>`` below 10 levels a side, as rho3x3's plot shows
    byte for byte, and ``|i,j>`` from 10 on: on family:8 (15x15) beta_1_7's
    second site is ``|8,14>``, not ``|814>``.  Past 52 edges the tags go on
    (``a1``, ``b1``, ...), so family:8's 71 edges have 71 tags, and each tag
    marks its edge's sites in the grid."""
    assert cli.run(["plot", "--state", "rho3x3"]) == 0
    assert capsys.readouterr().out == "\n".join([
        "rho3x3: 3x3 grid, 5 edges", " a b d", " c a b", " e c a",
        "  a: e0 (weight 1) = +1|00> +1|11> +1|22>", "  b: e1 (weight 1) = +1|01> +1|12>",
        "  c: e2 (weight 1) = +1|10> -1|21>", "  d: e3 (weight 3) = +1|02>",
        "  e: e4 (weight 3) = +1|20>", "  (* marks sites shared by several edges)", ""])
    assert cli.run(["plot", "--state", "family:8"]) == 0
    out = capsys.readouterr().out.splitlines()
    grid = [line.split() for line in out[1:16]]
    legend = dict(re.fullmatch(r"  (\w+): (\w+) .*", line).groups() for line in out[16:-1])
    assert len(legend) == 71 and len(set(legend.values())) == 71
    assert legend["a"] == "alpha" and legend["a1"] == "gamma_4_1"
    assert "+1|1,7> +1|8,14>" in out[16 + list(legend).index("b")]
    assert all(len(row) == 15 for row in grid) and grid[1][14] == "f1"
    assert {cell for row in grid for cell in row} - set(legend) == {"."}


# the arguments of each verb that writes its payload to --out, and of plot, which
# writes --svg
WRITERS = {
    "build": ["--state", "rho3x3"],
    "ppt-check": ["--state", "rho3x3"],
    "extend": ["--state", "rho3x3", "--step", json.dumps(RHO_4X5_STEP_JSON[0])],
    "certify-sn": ["--state", "rho3x3", "--k", "2"],
    "extremal": ["--state", "rho3x3"],
    "sample": ["--dims", "3x3", "--birank", "4,4"],
    "survey": ["--dims", "3x3", "--birank", "4,4", "--samples", "1"],
    "reproduce": [],
    "plot": ["--state", "rho3x3"],
}


def test_every_verb_that_writes_a_file_is_listed():
    parser = cli.build_parser(cli.VERBS)
    verbs = next(a for a in parser._actions if a.dest == "verb").choices
    writers = {name for name, p in verbs.items()
               if any({"--out", "--svg"} & set(a.option_strings) for a in p._actions)}
    assert writers == set(WRITERS)


class _FullFile(io.StringIO):
    """A file on a full disk, as ``/dev/full`` is: ``fails`` names the call
    that raises, ``write`` or ``close`` (the flush of what was buffered)."""

    def __init__(self, fails: str):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def close(self):
        failed = self.fails == "close" and not self.closed
        super().close()
        if failed:
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("verb", WRITERS)
def test_an_unwritable_output_path_exits_2(verb, tmp_path, capsys, monkeypatch):
    """``--out`` (``plot``: ``--svg``) into a missing directory, onto a
    directory, or onto a full disk that fails the write or the close, exits
    2 with one line on stderr, not a traceback.  ``reproduce`` runs criteria
    1 and 3 alone: its write path is the same for any manifest."""
    if verb == "reproduce":
        from pptlab import acceptance

        monkeypatch.setattr(acceptance, "run_all",
                            lambda: [acceptance.criterion_1(), acceptance.criterion_3()])
    option = "--svg" if verb == "plot" else "--out"
    missing = tmp_path / "missing" / "out.json"
    for target, reason in ((missing, f"[Errno 2] No such file or directory: '{missing}'"),
                           (tmp_path, f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'")):
        assert cli.run([verb, *WRITERS[verb], option, str(target)]) == 2
        assert capsys.readouterr() == ("", f"{verb}: {reason}\n")
    assert list(tmp_path.iterdir()) == []
    for fails in ("write", "close"):
        monkeypatch.setattr(verbs, "open", lambda path, mode: _FullFile(fails), raising=False)
        assert cli.run([verb, *WRITERS[verb], option, str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"{verb}: OSError: [Errno 28] No space left on device\n")


def test_cli_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "pptlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pptlab" in proc.stdout


def _separable_2x2(tmp_path) -> str:
    """A state file of the separable product-edge state ``|00><00| + |11><11|``,
    on which the lower bound search is inconclusive."""
    st = co.graph_state({"dims": [2, 2], "solid": [{"sites": [[0, 0]], "weight": "1"},
                                                   {"sites": [[1, 1]], "weight": "1"}]},
                        "grid-state")
    f = tmp_path / "sep.json"
    f.write_text(json.dumps(se.state_to_json(st)))
    return str(f)


def test_cli_certify_inconclusive_exit(tmp_path):
    assert cli.run(["certify-sn", "--state", _separable_2x2(tmp_path), "--k", "2"]) == 1


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_certify_rejects_k_below_1(k, capsys):
    """``--k 0`` used to certify the default k, and ``--k -1`` to run an
    empty search; both are input errors."""
    assert cli.run(["certify-sn", "--state", "rho3x3", "--k", k]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"certify-sn: InvalidK: k = {k}: ")


@pytest.mark.parametrize("state, args, code, digest", [
    ("rho3x3", ["--k", "2"], 0,
     "8f80339d450ade5b22e2f67477f3347aede9c3220f369e847c4ea3fdb0c55648"),
    ("rho4x5", [], 0, "638f12f6f8c2a80d0db34991420114988feee4c7ea9b465feacaccd8d1e58124"),
    ("family:2", ["--exclude-deltas"], 0,
     "33648747ec05c0836f64a1f6a7adc4d700c58f123346d395298b5eb02b3803a9"),
    ("family:3", ["--exclude-deltas"], 0,
     "2d5c20efb5df124401bbf98f59669bd4ff3082360db143848f0ab5786321bd34"),
    ("family:4", ["--exclude-deltas"], 0,
     "64af785d21de89681d0d4e253fc04bd5d85c10debec89b05bae52de6d57ef26e"),
    ("family:5", ["--exclude-deltas", "--method", "linear"], 0,
     "52f073d71582f2f302d5d89780f4aece7689fcf8dde390cdf61a63970b3987ec"),
    (None, ["--k", "2"], 1, "17368495558afb6131b1bfa5fc08cd7c9a07c235c7b784f13585a52045fe8cf8"),
], ids=["rho3x3-k2", "rho4x5", "family2", "family3", "family4", "family5-linear",
        "inconclusive-2x2"])
def test_certify_sn_json_pinned(tmp_path, state, args, code, digest):
    """certify-sn output bytes are pinned by SHA-256, with the exit code.
    The state ``None`` is the separable 2x2 state, whose certificate pins
    the ``lower_inconclusive`` layout."""
    state = state or _separable_2x2(tmp_path)
    out = tmp_path / "cert.json"
    assert cli.run(["certify-sn", "--state", state, *args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_verify_fresh_process(tmp_path):
    cert = tmp_path / "c.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    proc = subprocess.run([sys.executable, "-m", "pptlab.cli", "verify", str(cert)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "OK" in proc.stdout


def test_reproduce_deterministic_manifest():
    from pptlab import acceptance

    a = acceptance.criterion_7()
    b = acceptance.criterion_7()
    assert a.details == b.details
    man = acceptance.manifest([a])
    assert man["criteria"][0]["number"] == 7
    assert isinstance(man["passed"], bool)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_cli_reproduce_stdout(monkeypatch, capsys, as_json):
    """With --json, stdout is the manifest alone; in text mode, the PASS lines."""
    from pptlab import acceptance

    monkeypatch.setattr(acceptance, "run_all",
                        lambda: [acceptance.criterion_1(), acceptance.criterion_3()])
    assert cli.run(["reproduce"] + (["--json"] if as_json else [])) == 0
    out = capsys.readouterr().out
    if as_json:
        assert [c["number"] for c in json.loads(out)["criteria"]] == [1, 3]
    else:
        assert [line.split()[:3] for line in out.splitlines()] == \
            [["PASS", "criterion", "1:"], ["PASS", "criterion", "3:"]]


def _child(args):
    """Run ``python args...`` with this ``pptlab`` on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)


def _loaded_after(code, names):
    """Which of ``names`` a fresh process has loaded after running ``code``."""
    code += f"\nimport sys\nprint(sorted({set(names)!r} & set(sys.modules)))\n"
    return _child(["-c", code]).stdout.strip().splitlines()[-1]


def _loaded_after_import(module, names):
    return _loaded_after(f"import {module}", names)


def test_cli_import_loads_no_numpy():
    """Only the sampling verbs need numpy; every other CLI process skips
    its import cost."""
    assert _loaded_after_import("pptlab.cli", ["numpy", "pptlab.numlab"]) == "[]"


def test_serialize_import_loads_no_algcert():
    """Importing serialize loads neither algcert nor logging, which only
    algcert uses, nor the replay kernel or the named constructions: an
    sn-verdict replay imports ``minors`` when it runs, and only ``build``
    and named states ``constructions``, so a process that reads only
    states and ppt certificates skips all four."""
    names = ["pptlab.algcert", "logging", "pptlab.minors", "pptlab.constructions"]
    assert _loaded_after_import("pptlab.serialize", names) == "[]"


def test_serialize_import_loads_no_extender():
    """serialize holds only writers: a step is read by
    ``extender.step_from_json``, next to the step kinds' keys, so serialize
    never imports extender, not even inside a function."""
    assert _loaded_after_import("pptlab.serialize", ["pptlab.extender"]) == "[]"
    assert not hasattr(se, "step_from_json")
    tree = ast.parse(open(se.__file__).read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and "extender" in [node.module, *(alias.name for alias in node.names)]]


VERB_MODULES = ["pptlab.algcert", "pptlab.certifier", "pptlab.extender", "logging"]


def test_cli_import_loads_no_verb_modules():
    """Each verb imports the modules it runs; importing the CLI loads none."""
    assert _loaded_after_import("pptlab.cli", VERB_MODULES) == "[]"


def test_ppt_check_and_verify_process_loads_no_verb_modules(tmp_path):
    """A process that writes a ppt certificate and replays it loads neither
    the certifier, algcert, extender, logging nor dataclasses."""
    state, cert = tmp_path / "state.json", tmp_path / "ppt.json"
    assert cli.run(["build", "--state", "family:3", "--out", str(state)]) == 0
    ppt_check = ["ppt-check", "--state", str(state), "--out", str(cert)]
    code = (f"from pptlab import cli\n"
            f"assert cli.run({ppt_check!r}) == 0\n"
            f"assert cli.run({['verify', str(cert)]!r}) == 0")
    assert _loaded_after(code, VERB_MODULES + ["dataclasses"]) == "[]"


def test_survey_and_sample_process_loads_no_extender_or_algcert():
    """The sampler takes the counting bound from qstates, so a process that
    runs ``survey`` and ``sample`` compiles neither extender nor algcert;
    its records are named tuples, so it loads no ``dataclasses`` either."""
    survey = ["survey", "--dims", "3x3", "--birank", "4,4", "--samples", "1", "--json"]
    sample = ["sample", "--dims", "3x3", "--birank", "4,4", "--json"]
    code = (f"from pptlab import cli\n"
            f"assert cli.run({survey!r}) == 0\n"
            f"assert cli.run({sample!r}) == 0")
    assert _loaded_after(code, ["pptlab.extender", "pptlab.algcert", "dataclasses"]) == "[]"


def test_build_and_extremal_process_loads_no_dataclasses():
    """Building rho4x5 runs the extension pipeline and ``extremal`` splits
    and checks its blocks; the extension layer's records are named tuples,
    so neither loads ``dataclasses``."""
    code = ("from pptlab import cli\n"
            "assert cli.run(['build', '--state', 'rho4x5']) == 0\n"
            "assert cli.run(['extremal', '--state', 'rho4x5', '--json']) == 0")
    assert _loaded_after(code, ["pptlab.extender", "dataclasses"]) == "['pptlab.extender']"


def test_certify_sn_and_verify_process_loads_no_logging_or_dataclasses(tmp_path):
    """Without ``--verbose`` the certifier logs nothing, so a process that
    writes an sn-verdict and replays it imports neither ``logging`` nor
    ``dataclasses`` (the records are named tuples)."""
    cert = tmp_path / "sn.json"
    certify = ["certify-sn", "--state", "family:3", "--exclude-deltas", "--out", str(cert)]
    code = (f"from pptlab import cli\n"
            f"assert cli.run({certify!r}) == 0\n"
            f"assert cli.run({['verify', str(cert)]!r}) == 0")
    assert _loaded_after(code, ["logging", "dataclasses"]) == "[]"


def _pptlab_modules_after(argv):
    """The ``pptlab`` modules a fresh process has loaded after ``pptlab argv``."""
    code = (f"import json, sys\nfrom pptlab import cli\n"
            f"assert cli.run({argv!r}) == 0\n"
            f"print(json.dumps([m for m in sys.modules if m.startswith('pptlab.')]))")
    return set(json.loads(_child(["-c", code]).stdout.splitlines()[-1]))


def test_each_verb_process_loads_only_the_modules_it_runs(tmp_path):
    """``verify`` replays on the replay kernel (and ``minors`` for a lower
    half), without the certifier and without the named constructions;
    ``certify-sn`` runs the certifier without the Groebner oracle
    (``algcert``); a verb that reads its state from a file never builds a
    named state; ``survey`` loads neither the certifier nor the extension
    layer."""
    state, ppt, sn = tmp_path / "state.json", tmp_path / "ppt.json", tmp_path / "sn.json"
    assert cli.run(["build", "--state", "family:3", "--out", str(state)]) == 0
    loaded = _pptlab_modules_after(["ppt-check", "--state", str(state), "--out", str(ppt)])
    assert "pptlab.constructions" not in loaded
    loaded = _pptlab_modules_after(["certify-sn", "--state", str(state), "--exclude-deltas",
                                    "--out", str(sn)])
    assert "pptlab.certifier" in loaded
    assert not loaded & {"pptlab.algcert", "pptlab.constructions"}
    loaded = _pptlab_modules_after(["verify", FAMILY6])
    assert "pptlab.minors" in loaded
    assert not loaded & {"pptlab.certifier", "pptlab.algcert", "pptlab.constructions"}
    loaded = _pptlab_modules_after(["verify", str(ppt)])
    assert not loaded & {"pptlab.certifier", "pptlab.algcert", "pptlab.constructions",
                         "pptlab.minors"}
    loaded = _pptlab_modules_after(["survey", "--dims", "3x3", "--birank", "4,4",
                                    "--samples", "1", "--json"])
    assert "pptlab.numlab" in loaded
    assert not loaded & {"pptlab.certifier", "pptlab.algcert", "pptlab.extender",
                         "pptlab.constructions"}


def test_cli_json_with_out_prints_what_it_writes(tmp_path, capsys):
    """``--json`` prints the payload on stdout also when ``--out`` writes it."""
    out = tmp_path / "ppt.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    assert json.loads(printed)["verdict"] == "PPT"


def test_cli_verbose_configures_logging():
    """``--verbose`` logs the certifier's INFO lines to stderr; without it
    the run writes nothing there."""
    argv = ["-m", "pptlab.cli", "certify-sn", "--state", "rho3x3", "--k", "2"]
    assert _child(argv).stderr == ""
    err = _child(argv[:2] + ["--verbose"] + argv[2:]).stderr
    assert "INFO pptlab.certifier: minor_membership: degree 2: " in err


# -- sn-verdict claims ----------------------------------------------------------

@pytest.fixture(scope="module")
def rho3x3_verdict(tmp_path_factory):
    path = tmp_path_factory.mktemp("verdict") / "rho3x3.json"
    assert cli.run(["certify-sn", "--state", "rho3x3", "--k", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _rejected(data):
    with pytest.raises(se.CertificateInvalid):
        se.verify_certificate(data)


def _copy(data):
    return json.loads(json.dumps(data))


def test_cli_certify_family2_uses_first_max_rank_witness(tmp_path, capsys):
    cert = tmp_path / "fam2.json"
    assert cli.run(["certify-sn", "--state", "family:2", "--exclude-deltas",
                    "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["verdict"] == "SN = 2"
    assert data["lower"]["witness_variable"] == "alpha"
    capsys.readouterr()
    assert cli.run(["verify", str(cert)]) == 0
    assert "OK" in capsys.readouterr().out


def test_certify_sn_excludes_repeated_delta_names_by_position(tmp_path, monkeypatch):
    """The named basis appends each position to repeated edge names, so
    ``--exclude-deltas`` excludes the delta edges' variables by position:
    ``delta_1_1`` and ``delta_1_2``, never the bare ``delta_1``."""
    vectors = ([1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0])
    state = qs.BipartiteState(2, 2, label="dup", edges=[
        qs.NamedVector(name, em.vector(v), Fraction(1))
        for name, v in zip(("a", "delta_1", "delta_1"), vectors)])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(se.state_to_json(state)))
    assert cli.run(["certify-sn", "--state", str(path), "--exclude-deltas"]) in (0, 1)
    excluded = []
    certify_sn_lower = ce.certify_sn_lower

    def spy(*args, exclude_vars):
        excluded.append(exclude_vars)
        return certify_sn_lower(*args, exclude_vars=exclude_vars)

    monkeypatch.setattr(ce, "certify_sn_lower", spy)
    ce.certify_sn(state, exclude_deltas=True)
    assert excluded == [["delta_1_1", "delta_1_2"]]


def test_sn_lower_value_must_equal_k(rho3x3_verdict):
    """The lower ``value`` is the k of the replay: another value, with the
    verdict line it implies, fails the power range or the minor size."""
    assert se.verify_certificate(rho3x3_verdict)
    bad = _copy(rho3x3_verdict)
    bad["lower"]["value"], bad["verdict"] = 17, "SN in [17, 3]"
    with pytest.raises(se.CertificateInvalid, match=r"\[k, 2k\]"):
        se.verify_certificate(bad)
    bad["lower"]["value"], bad["verdict"] = 3, "SN = 3"
    bad["lower"]["power"] = 3
    with pytest.raises(se.CertificateInvalid, match="not 3 strictly increasing"):
        se.verify_certificate(bad)


def test_sn_verdict_halves_must_concern_one_state(rho3x3_verdict):
    """Both halves replay on the one stored state: the upper half of
    another 3x3 state does not match the ranks of its edges."""
    fam = co.rho_family(2)
    upper = ce.sn_upper_from_decomposition(fam)
    mixed = _copy(rho3x3_verdict)
    mixed["upper"] = se._sn_upper_json(upper)
    mixed["verdict"] = "SN = 2"
    assert se.verify_certificate({"kind": "sn-verdict", "state": se.state_to_json(fam),
                                  "lower_inconclusive": "not searched", "upper": mixed["upper"],
                                  "verdict": "SN <= 2 (lower bound inconclusive)"})
    with pytest.raises(se.CertificateInvalid, match="does not match the decomposition ranks"):
        se.verify_certificate(mixed)


def test_sn_verdict_text_is_rebuilt(rho3x3_verdict):
    assert se.verify_certificate(rho3x3_verdict)
    assert rho3x3_verdict["verdict"] == "SN in [2, 3]"
    bad = json.loads(json.dumps(rho3x3_verdict))
    bad["verdict"] = "SN = 3"
    _rejected(bad)
    inconclusive = {k: v for k, v in rho3x3_verdict.items() if k != "lower"}
    inconclusive["lower_inconclusive"] = "not searched"
    inconclusive["verdict"] = "SN <= 3 (lower bound inconclusive)"
    assert se.verify_certificate(inconclusive)
    inconclusive["verdict"] = "SN in [2, 3]"
    _rejected(inconclusive)


def test_cli_verify_accepts_inconclusive_verdict(tmp_path):
    st = co.graph_state({"dims": [2, 2], "solid": [{"sites": [[0, 0]], "weight": "1"},
                                                   {"sites": [[1, 1]], "weight": "1"}]},
                        "grid-state")
    f = tmp_path / "sep.json"
    f.write_text(json.dumps(se.state_to_json(st)))
    cert = tmp_path / "cert.json"
    assert cli.run(["certify-sn", "--state", str(f), "--k", "2", "--out", str(cert)]) == 1
    assert json.loads(cert.read_text())["verdict"] == "SN <= 1 (lower bound inconclusive)"
    assert cli.run(["verify", str(cert)]) == 0


def test_complex_tampered_basis_fails_verify(rho3x3_verdict, tmp_path):
    """The lower half's basis is the state's edges: a complex entry in one
    leaves a basis of the range over which the coordinate ring is not Q."""
    cert = _copy(rho3x3_verdict)
    assert cert["lower"]["basis"] == "edges"
    vec = cert["state"]["edges"][1]["vector"]
    vec[0][1] = "1+1 i"
    with pytest.raises(se.CertificateInvalid, match="not real"):
        se.verify_certificate(cert)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1


def _split_e3(verdict):
    """``verdict`` with rho3x3's edge e3 (weight 3) stored as two edges of
    weights 1 and 2: the same matrix, and edges that are linearly dependent."""
    cert = _copy(verdict)
    edges = cert["state"]["edges"]
    e3 = next(e for e in edges if e["name"] == "e3")
    assert e3["weight"] == "3"
    e3["weight"] = "1"
    edges.append({**e3, "name": "e3b", "weight": "2"})
    cert["upper"]["schmidt_ranks"].append(1)
    return cert


def test_basis_outside_the_range_is_rejected(rho3x3_verdict):
    """``"basis": "edges"`` names a basis of the range only when the edges
    are linearly independent."""
    cert = _split_e3(rho3x3_verdict)
    assert se.state_from_json(cert["state"]) == co.rho_3x3()
    assert cert["lower"]["basis"] == "edges"
    with pytest.raises(se.CertificateInvalid, match="not a basis of the range"):
        se.verify_certificate(cert)
    for bad in ("Edges", None, 0, "matrix"):
        cert["lower"]["basis"] = bad
        with pytest.raises(se.CertificateInvalid, match='neither "edges" nor "range"'):
            se.verify_certificate(cert)


def test_range_basis_certifies_and_replays_on_dependent_edges(rho3x3_verdict, tmp_path,
                                                             capsys):
    """On a state whose edges are linearly dependent, certify-sn writes
    ``"basis": "range"`` (the canonical basis of the range, named by
    site) and verify replays it; the upper half still reads the edges."""
    path = tmp_path / "split.json"
    path.write_text(json.dumps(_split_e3(rho3x3_verdict)["state"]))
    cert = tmp_path / "sn.json"
    assert cli.run(["certify-sn", "--state", str(path), "--k", "2", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["lower"]["basis"] == "range" and data["verdict"] == "SN in [2, 3]"
    assert data["lower"]["variables"] == ["psi00", "psi01", "psi02", "psi10", "psi20"]
    assert data["upper"] == {"value": 3, "schmidt_ranks": [3, 2, 2, 1, 1, 1]}
    capsys.readouterr()
    assert cli.run(["verify", str(cert)]) == 0
    assert capsys.readouterr().out == "verify: OK (sn-verdict)\n"
    data["lower"]["basis"] = "edges"
    with pytest.raises(se.CertificateInvalid, match="not a basis of the range"):
        se.verify_certificate(data)


def _complex_edge(cert):
    """Edit: edge e1 of the state gets the complex entry ``1+1 i``."""
    cert["state"]["edges"][1]["vector"][0][1] = "1+1 i"


# the probe state: w = |00> + |11> + |22> overlaps x = |00> + |01>, so no
# range basis of its edges is orthogonal and w overlaps two of its vectors
PROBE = {"kind": "state", "dim_a": 3, "dim_b": 3, "label": "probe", "edges": [
    {"name": "w", "vector": [[0, "1"], [4, "1"], [8, "1"]], "weight": "1"},
    {"name": "x", "vector": [[0, "1"], [1, "1"]], "weight": "1"},
    {"name": "y", "vector": [[5, "1"]], "weight": "1"},
    {"name": "z", "vector": [[6, "1"]], "weight": "1"}]}


def test_the_probe_state_certifies_sn_2_over_a_non_orthogonal_basis(tmp_path, capsys):
    """The range criterion needs neither an orthogonal basis nor a witness
    vector: on the probe state, whose edges overlap, certify_sn_lower proves
    ``SN >= 2`` as the square of w's coordinate, the first it tries, with
    one 2x2 minor, and certify-sn's sn-verdict of it verifies."""
    state = se.state_from_json(PROBE)
    lower = ce.certify_sn_lower(state, 2, ())
    assert (lower.witness_variable, lower.variables, lower.basis, lower.power) == \
        ("psi00_0", ("psi00_0", "psi00_1", "psi12_2", "psi20_3"), "edges", 2)
    assert lower.minors == (((1, 2), (1, 2), {(0, 0, 0, 0): Fraction(1)}),)
    path, cert = tmp_path / "probe.json", tmp_path / "sn.json"
    path.write_text(json.dumps(PROBE))
    capsys.readouterr()
    assert cli.run(["certify-sn", "--state", str(path), "--k", "2", "--out", str(cert)]) == 0
    assert capsys.readouterr().out == "probe: SN in [2, 3] (lower N=2, upper max SR=3)\n"
    assert cli.run(["verify", str(cert)]) == 0
    assert capsys.readouterr().out == "verify: OK (sn-verdict)\n"


def test_another_witness_variable_fails_verify(rho3x3_verdict, tmp_path, capsys):
    """The identity proves a power of its own variable only: naming another
    variable of the certificate, or a name none of them has, fails verify."""
    lower = rho3x3_verdict["lower"]
    others = [v for v in lower["variables"] if v != lower["witness_variable"]]
    assert len(others) == 4
    path = tmp_path / "sn.json"
    for name, reason in [(v, "cofactor identity does not expand to the witness power")
                         for v in others] + [
            ("x", "witness_variable is not one of the variables"),
            (0, "witness_variable is not one of the variables")]:
        cert = _copy(rho3x3_verdict)
        cert["lower"]["witness_variable"] = name
        path.write_text(json.dumps(cert))
        assert cli.run(["verify", str(path)]) == 1
        assert capsys.readouterr().out == f"verify: FAILED: {reason}\n"


def test_a_stored_witness_vector_fails_verify_naming_it(rho3x3_verdict, tmp_path, capsys):
    """An sn-verdict written before the lower half dropped its witness
    vector fails verify through the key rule, naming the key; certify-sn
    writes it anew."""
    cert = _copy(rho3x3_verdict)
    cert["lower"]["witness"] = [[0, "1"], [4, "1"], [8, "1"]]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verify: FAILED: malformed certificate: ValueError: " \
        "unknown lower half keys ['witness']\n"


@pytest.mark.parametrize("edit, exclude, error, message", [
    (lambda cert: cert.update(_split_e3(cert)), ("e3b",), NotARealRangeBasis,
     "not a basis of the range"),
    (_complex_edge, (), NotARealRangeBasis, "not real"),
], ids=["edges-on-split-e3", "complex-basis"])
def test_certifier_and_verifier_refuse_the_same_setups(rho3x3_verdict, edit, exclude, error,
                                                       message):
    """One setup (minors.lower_bound_setup) refuses a basis the proof cannot
    use for both sides: certify_sn_lower raises its error, and verify of the
    rho3x3 sn-verdict edited the same way fails with the same message.
    Naming variables after the edges (an excluded e3b) makes the certifier
    use the dependent edges of the e3 split as its basis."""
    cert = _copy(rho3x3_verdict)
    edit(cert)
    state = se.state_from_json(cert["state"])
    with pytest.raises(error, match=message):
        ce.certify_sn_lower(state, 2, exclude_vars=exclude)
    with pytest.raises(se.CertificateInvalid, match=message):
        se.verify_certificate(cert)


def test_cofactor_exponents_must_be_positive_ints(tmp_path):
    """rho4x5's first cofactor term is ``9/2 * psi20`` (monomial ``[[5, 1]]``).
    ``[[5, true]]`` is the same monomial, so the identity would still replay,
    and ``[[0, 2], [1, -1]]`` keeps degree 1: each must fail verify."""
    path = tmp_path / "rho4x5.json"
    assert cli.run(["certify-sn", "--state", "rho4x5", "--out", str(path)]) == 0
    genuine = json.loads(path.read_text())
    term = genuine["lower"]["minors"][0][2]["terms"][0]
    assert term == [[[5, 1]], "9/2"]
    for monomial in ([[5, True]], [[0, 2], [1, -1]]):
        cert = _copy(genuine)
        cert["lower"]["minors"][0][2]["terms"][0][0] = monomial
        with pytest.raises(se.CertificateInvalid):
            se.verify_certificate(cert)


def test_negative_exponent_aliasing_a_packed_monomial_fails_verify(rho3x3_verdict):
    """rho3x3's cofactors are constants (degree 0, monomial ``[]``).  The
    exponents ``(2^w, -(2^w + 1), 1, 0, 0)`` also sum to 0, and their fields
    ``MAX - e_l``, added with ``w`` bits per field, carry into the key of the
    constant monomial, so the identity would still replay.  The reader
    refuses the negative exponent as malformed; without that rule only the
    sign check of ``_Packing.pack``, which is not a certificate check,
    stands in the way (it raises DimensionMismatch)."""
    cert = _copy(rho3x3_verdict)
    names, term = cert["lower"]["variables"], cert["lower"]["minors"][0][2]["terms"][0]
    assert term[0] == []
    packing = mi._Packing(len(names))
    w = packing.width
    exps = (2 ** w, -(2 ** w + 1), 1, 0, 0)
    assert sum(exps) == 0
    assert sum((packing.max - e) << (w * l) for l, e in enumerate(exps)) == packing.pack((0,) * 5)
    term[0] = [[l, e] for l, e in enumerate(exps) if e]
    with pytest.raises(se.CertificateInvalid, match=re.escape(f"entry [1, {exps[1]}] is not")):
        se.verify_certificate(cert)


@pytest.mark.parametrize("weight", [3, 3.0, True], ids=["int", "float", "bool"])
def test_stored_weights_and_pivots_are_strings(rho3x3_verdict, weight):
    """A stored rational is a string: rho3x3's e3 weight ``"3"`` written as
    a JSON number (or ``true``) fails verify, and so does a ppt pivot of
    the same value."""
    cert = _copy(rho3x3_verdict)
    e3 = cert["state"]["edges"][3]
    assert (e3["name"], e3["weight"]) == ("e3", "3")
    e3["weight"] = weight
    with pytest.raises(se.CertificateInvalid, match="not a rational string"):
        se.verify_certificate(cert)
    ppt = json.loads(json.dumps(se.ppt_certificate(co.rho_3x3())))
    pivot = ppt["rho"]["pivots"][0 if weight is True else 2]
    assert Fraction(pivot[1]) == weight
    pivot[1] = weight
    with pytest.raises(se.CertificateInvalid, match="not a rational string"):
        se.verify_certificate(ppt)


def test_sn_lower_needs_one_variable_per_basis_vector(rho3x3_verdict):
    cert = _copy(rho3x3_verdict)
    cert["lower"]["variables"] = cert["lower"]["variables"][:-1]
    with pytest.raises(se.CertificateInvalid, match="one variable per basis vector"):
        se.verify_certificate(cert)


@pytest.mark.parametrize("exponents", [
    [[0, 0.5]], [[0]], [[0, -1], [3, 1]], [["1", 1]],
], ids=["float", "short", "negative", "string"])
def test_malformed_exponents_fail_verify(rho3x3_verdict, tmp_path, exponents):
    """A tampered monomial (``[variable, exponent]`` pairs) in a stored
    cofactor is rejected by a clean verify failure, not accepted and not a
    crash."""
    cert = _copy(rho3x3_verdict)
    cert["lower"]["minors"][-1][2]["terms"][0][0] = exponents
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1


@pytest.mark.parametrize("variables", [None, "psi00 psi01 psi02 psi10 psi20",
                                       ["psi00", "psi01", "psi02", "psi10", 0]],
                         ids=["null", "string", "number"])
def test_variables_that_are_not_a_list_of_names_fail_verify(rho3x3_verdict, tmp_path, capsys,
                                                            variables):
    """A string would otherwise pass the witness variable's membership test
    as a substring, and a number would name a variable."""
    cert = _copy(rho3x3_verdict)
    cert["lower"]["variables"] = variables
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verify: FAILED: variables is not a list of names\n"


@pytest.mark.parametrize("minors", [None, {}, "[]"], ids=["null", "object", "string"])
def test_minors_that_are_not_a_list_fail_verify(rho3x3_verdict, tmp_path, capsys, minors):
    """The lower half's ``minors`` must be a list: an object or a string
    would otherwise be iterated as its keys or characters."""
    cert = _copy(rho3x3_verdict)
    cert["lower"]["minors"] = minors
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out == \
        "verify: FAILED: minors is not a list of [rows, cols, cofactor]\n"


@pytest.mark.parametrize("power", [1, 5, 2.0, True, "2"],
                         ids=["below-k", "above-2k", "float", "bool", "string"])
def test_sn_lower_power_must_be_an_integer_in_k_to_2k(rho3x3_verdict, power):
    cert = _copy(rho3x3_verdict)
    assert cert["lower"]["value"] == 2 and cert["lower"]["power"] == 2
    cert["lower"]["power"] = power
    with pytest.raises(se.CertificateInvalid, match=r"\[k, 2k\]"):
        se.verify_certificate(cert)


def test_huge_witness_power_is_rejected_quickly(rho3x3_verdict, tmp_path):
    """A power of 10^9 used to expand x_w^power term by term until killed."""
    cert = _copy(rho3x3_verdict)
    cert["lower"]["power"] = 10 ** 9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert))
    proc = subprocess.run([sys.executable, "-m", "pptlab.cli", "verify", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1


@pytest.mark.parametrize("factor", ["2", "1/3", "-1"])
def test_scaled_cofactors_fail_verify(rho3x3_verdict, factor):
    """The replay checks the coefficient of the witness power too: the
    cofactors times ``factor`` expand to ``factor * x_w^N``, not the stated
    identity."""
    cert = _copy(rho3x3_verdict)
    for _, _, cofactor in cert["lower"]["minors"]:
        for term in cofactor["terms"]:
            term[1] = str(Fraction(term[1]) * Fraction(factor))
    with pytest.raises(se.CertificateInvalid, match="does not expand to the witness power"):
        se.verify_certificate(cert)


# -- the indexed sn-lower format and the retired layouts -------------------------

def _dense(pairs, length, zero):
    """The stored sparse ``pairs`` as the list of every entry."""
    out = [zero] * length
    for i, x in pairs:
        out[i] = x
    return out


def _densified(data):
    """``data`` (a state, ppt certificate or sn-verdict) in the retired
    layout that stored every vector densely: edge vectors, witnesses and
    LDL* columns as lists of every entry, cofactor monomials as exponent
    vectors.  Its lower half also stored the witness vector, the first edge
    of largest Schmidt rank, after ``value``."""
    data = _copy(data)
    state = data.get("state", data)
    n = state["dim_a"] * state["dim_b"]
    for e in state.get("edges", ()):
        e["vector"] = _dense(e["vector"], n, "0")
    for ev in (data[key] for key in ("rho", "rho_ta") if key in data):
        if ev["psd"]:
            ev["columns"] = [_dense(c, n, "0") for c in ev["columns"]]
        else:
            ev["witness"] = _dense(ev["witness"], n, "0")
    if "lower" in data:
        ranks = data["upper"]["schmidt_ranks"]
        witness = list(state["edges"][ranks.index(max(ranks))]["vector"])
        lower = data["lower"] = {"value": data["lower"]["value"], "witness": witness,
                                 **data["lower"]}
        for _, _, cofactor in lower["minors"]:
            for term in cofactor["terms"]:
                term[0] = _dense(term[0], len(lower["variables"]), 0)
    return data


def _retired(verdict, layout):
    """``verdict`` re-laid out as an older certificate: as certify-sn wrote
    it before the halves referred to the state (vectors stored densely, the
    state's matrix next to its edges, the basis vectors in the lower half,
    the edge vectors and weights in the upper half), and before that with
    the state in each half (with the kind and, in the lower half, ``k``),
    or one half alone."""
    cert = _densified(verdict)
    state = se.state_from_json(verdict["state"])
    cert["state"]["matrix"] = se.matrix_to_json(state.matrix)
    vectors = [e["vector"] for e in cert["state"]["edges"]]
    cert["lower"]["basis"] = vectors
    cert["upper"] = {"value": cert["upper"]["value"], "vectors": vectors,
                     "weights": [em.format_scalar(e.weight) for e in state.edges],
                     "schmidt_ranks": cert["upper"]["schmidt_ranks"]}
    if layout == "edges-copied":
        return cert
    state = cert.pop("state")
    lower = {"kind": "sn-lower", "state": state, "k": cert["lower"]["value"], **cert["lower"]}
    upper = {"kind": "sn-upper", "state": state, **cert["upper"]}
    if layout == "state-per-half":
        return {**cert, "lower": lower, "upper": upper}
    return {"sn-lower": lower, "sn-upper": upper}[layout]


@pytest.mark.parametrize("layout, reason", [
    ("state-per-half", "malformed certificate: KeyError: 'state'"),
    ("sn-lower", "unknown certificate kind 'sn-lower'"),
    ("sn-upper", "unknown certificate kind 'sn-upper'"),
    ("edges-copied", "malformed state: ValueError: unknown edge state keys ['matrix']"),
], ids=["state-per-half", "sn-lower", "sn-upper", "edges-copied"])
def test_cli_verify_fails_retired_sn_layouts(rho3x3_verdict, tmp_path, capsys, layout, reason):
    """The layouts before the state was stored once, at the top level (a
    verdict with a state per half, and a standalone half), and before an
    sn-verdict referred to its state's edges instead of copying them.
    Each fails ``pptlab verify`` (exit 1) with one line, as malformed or of
    an unknown kind, although every proof in it is genuine."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_retired(rho3x3_verdict, layout)))
    capsys.readouterr()
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"verify: FAILED: {reason}\n"


def test_forged_groebner_payload_fails_verify(rho3x3_verdict, tmp_path, capsys):
    """The retired Groebner replay accepted this payload: it never checked that
    the stored basis [1] lies in the minor ideal, so it 'proved' SN >= 3 for
    a 3x3 PPT state from its one 3x3 minor."""
    lower = _retired(rho3x3_verdict, "sn-lower")
    ring = ac.PolyRing(lower["variables"])
    edges = se.state_from_json(rho3x3_verdict["state"]).edges
    basis = tuple(zip(ring.variables, (e.vec for e in edges)))
    (minor,) = ac.minor_ideal(mi.coordinate_matrix(3, 3, basis), 3, ())
    forged = {key: lower[key] for key in ("kind", "state", "witness", "witness_variable",
                                          "variables", "basis")}
    forged.update(value=3, k=3, power=3, method="groebner", monomial_order="grevlex",
                  excluded_variables=[], generators=[se._cofactor_json(minor.terms)],
                  groebner_basis=[se._cofactor_json(ring.one().terms)])
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forged))
    capsys.readouterr()
    assert cli.run(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("verify: FAILED")


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("minors"),
    lambda d: d.update(generators=[]),
    lambda d: d.update(groebner_basis=[]),
], ids=["no-minors", "generators", "groebner-basis"])
def test_old_format_sn_lower_is_rejected(rho3x3_verdict, edit):
    """Generator/Groebner payloads were standalone sn-lower certificates."""
    lower = _retired(rho3x3_verdict, "sn-lower")
    edit(lower)
    with pytest.raises(se.CertificateInvalid, match="unknown certificate kind 'sn-lower'"):
        se.verify_certificate(lower)


def test_sn_verdict_parses_its_state_once(rho3x3_verdict, spy):
    calls = spy(se, "state_from_json")
    assert se.verify_certificate(rho3x3_verdict)
    assert len(calls) == 1


@pytest.mark.parametrize("conclusive", [True, False], ids=["both-halves", "inconclusive"])
def test_sn_verdict_replays_through_the_module_half_verifiers(rho3x3_verdict, monkeypatch,
                                                              conclusive):
    """``verify_sn_verdict`` calls the sn-verdict replay's
    ``verify_sn_lower_certificate`` and ``verify_sn_upper_certificate``
    (in ``minors``, where it runs them by name), each once, with its half and
    the one parsed state."""
    calls = []

    def counted(name):
        replay = getattr(mi, name)
        return lambda half, state: calls.append((name, half, state)) or replay(half, state)

    for name in ("verify_sn_lower_certificate", "verify_sn_upper_certificate"):
        monkeypatch.setattr(mi, name, counted(name))
    cert = _copy(rho3x3_verdict)
    if not conclusive:
        del cert["lower"]
        cert["lower_inconclusive"] = "not searched"
        cert["verdict"] = "SN <= 3 (lower bound inconclusive)"
    assert se.verify_certificate(cert)
    halves = (["lower"] if conclusive else []) + ["upper"]
    assert [name for name, _, _ in calls] == [f"verify_sn_{h}_certificate" for h in halves]
    assert [half for _, half, _ in calls] == [cert[h] for h in halves]
    assert all(state == co.rho_3x3() for _, _, state in calls)


@pytest.fixture(scope="module")
def genuine_lowers():
    """Genuine sn-verdicts of family:3 (edge naming, deltas excluded) and
    rho4x5 (power 4, cofactors of degree 1), with their states."""
    out = {}
    for name, state in (("family3", co.rho_family(3)), ("rho4x5", co.rho_4x5().final)):
        deltas = [e.name for e in state.edges if e.name.startswith("delta")]
        cert = ce.certify_sn_lower(state, 3, exclude_vars=deltas)
        out[name] = (state, _verdict(state, cert))
    return out


SPARSE_FAULTS = ("duplicate-index", "unsorted", "out-of-range", "negative-index",
                 "index-type", "zero", "not-a-pair")


def _set_entry(pairs, index, value):
    """Store ``value`` at ``index`` of the sparse ``pairs`` (in place), in
    index order."""
    at = next((k for k, (i, _) in enumerate(pairs) if i >= index), len(pairs))
    if at < len(pairs) and pairs[at][0] == index:
        pairs[at][1] = value
    else:
        pairs.insert(at, [index, value])


def _spoil_pairs(data, pairs, length, one, zeros):
    """One drawn fault in the sparse ``pairs`` of a vector of ``length``
    entries (in place): a repeated or out-of-order index, an index out of
    range, negative or not an int (a bool among them), a stored zero (one of
    ``zeros``), or an entry that is not a pair.  An empty list first gets
    the entry ``one``."""
    fault = data.draw(st.sampled_from(SPARSE_FAULTS), label="sparse fault")
    if not pairs:
        pairs.append([data.draw(st.integers(0, length - 1), label="index"), one])
    pos = data.draw(st.integers(0, len(pairs) - 1), label="pair")
    index, value = pairs[pos]
    if fault == "duplicate-index":
        pairs.insert(pos, [index, value])
    elif fault == "unsorted":
        other = data.draw(st.integers(0, length - 1).filter(lambda j: j != index))
        pairs.insert(pos + 1 if other < index else pos, [other, value])
    elif fault == "out-of-range":
        pairs[pos][0] = data.draw(st.sampled_from([length, length + 1, 10 ** 9]))
    elif fault == "negative-index":
        pairs[pos][0] = data.draw(st.sampled_from([-1, -length]))
    elif fault == "index-type":
        pairs[pos][0] = data.draw(st.sampled_from([True, False, index + 0.5, str(index), None]))
    elif fault == "zero":
        pairs[pos][1] = data.draw(st.sampled_from(zeros), label="zero")
    else:
        pairs[pos] = data.draw(st.sampled_from([[index], [index, value, value], index, value,
                                                None, {"index": index}]), label="not a pair")


def _decoded(pairs, length, read):
    """An independent reading of stored sparse ``pairs``: ``{index: value}``,
    or None unless they are ``[index, value]`` lists whose int indices
    increase strictly below ``length`` and whose values ``read`` takes as
    nonzero."""
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2
                                            and type(p[0]) is int for p in pairs)):
        return None
    indices = [i for i, _ in pairs]
    if indices != sorted(set(indices)) or not all(0 <= i < length for i in indices):
        return None
    try:
        values = [read(x) for _, x in pairs]
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
        return None
    return dict(zip(indices, values)) if all(values) else None


def _vector(pairs, length):
    """The vector of stored sparse ``pairs``, or None (see :func:`_decoded`)."""
    entries = _decoded(pairs, length, em.parse_scalar)
    return None if entries is None else tuple(entries.get(i, em.ZERO) for i in range(length))


def _natural(e):
    return e if type(e) is int and e > 0 else 0


MUTATIONS = ("index", "repeated-index", "unsorted", "out-of-range", "duplicate-pair",
             "entry-shape", "coefficient", "exponent", "exponent-move", "power",
             "witness-variable", "basis", "monomial-pairs")


def _other_variables(lower):
    """What ``witness_variable`` becomes: another variable of the
    certificate, or a value that names none of them."""
    return st.sampled_from([v for v in lower["variables"] if v != lower["witness_variable"]]
                           + ["x", "", 0, None, ["psi00"], lower["variables"]])


def _mutate(data, lower, m, n):
    """One drawn perturbation of one field of ``lower`` (in place)."""
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    nvars = len(lower["variables"])
    minors = lower["minors"]
    entry = minors[data.draw(st.integers(0, len(minors) - 1), label="entry")]
    side = data.draw(st.integers(0, 1), label="side")
    idx, bound = entry[side], (m, n)[side]
    pos = data.draw(st.integers(0, len(idx) - 1), label="position")
    term = data.draw(st.sampled_from(entry[2]["terms"]), label="term")
    if kind == "index":
        idx[pos] = data.draw(st.integers(0, bound - 1), label="new index")
    elif kind == "repeated-index":
        idx[pos] = idx[pos - 1]
    elif kind == "unsorted":
        idx.reverse()
    elif kind == "out-of-range":
        idx[pos] = data.draw(st.sampled_from([-1, bound, bound + 2, True, 1.0, "0"]))
    elif kind == "duplicate-pair":
        minors.insert(data.draw(st.integers(0, len(minors))), json.loads(json.dumps(entry)))
    elif kind == "entry-shape":
        minors[minors.index(entry)] = data.draw(st.sampled_from([
            entry[:2], entry + [1], "entry", None, [entry[0], ",".join(map(str, entry[1])),
                                                   entry[2]],
            [entry[0], entry[1], ["terms"]], [entry[0], entry[1], {"terms": "1"}],
            [entry[0], entry[1], {"terms": [[term[0]]]}]]))
    elif kind == "coefficient":
        term[1] = data.draw(st.sampled_from(["0", "2", "-1", "1/2", "x", "1/0", "", "1+1 i", 1])
                            | st.fractions().map(str), label="coefficient")
    elif kind == "exponent":
        _set_entry(term[0], data.draw(st.integers(0, nvars - 1), label="variable"), data.draw(
            st.sampled_from([0, 1, 2, -1, 0.5, "1", None, 10 ** 9]), label="exponent"))
    elif kind == "exponent-move" and term[0]:
        # one exponent moves to another variable
        data.draw(st.sampled_from(term[0]))[0] = data.draw(st.integers(0, nvars - 1))
    elif kind == "monomial-pairs":
        _spoil_pairs(data, term[0], nvars, 1, [0])
    elif kind == "power":
        lower["power"] = data.draw(st.integers(-2, 12) | st.sampled_from([4.0, "3", None]))
    elif kind == "witness-variable":
        lower["witness_variable"] = data.draw(_other_variables(lower), label="variable")
    elif kind == "basis":
        lower["basis"] = data.draw(st.sampled_from(BASIS_SOURCES), label="basis")


BASIS_SOURCES = ["edges", "range", "Edges", "", None, 0, ["edges"]]


def _claim_holds(lower, state):
    """Independent check of an accepted lower half by sympy determinants:
    the named basis (the state's edges or the canonical basis of its range)
    is a real basis of the range, the witness variable is one of its
    distinct variables, every minor is ``value x value``, and the identity
    expands to that variable's power.  The monomials must be stored as
    valid sparse pairs."""
    sympy = pytest.importorskip("sympy")
    m, n = state.dims
    rng = em.column_space(state.matrix)
    if lower["basis"] == "range":
        basis = list(rng.basis)
    elif lower["basis"] == "edges":
        basis = [e.vec for e in state.edges]
    else:
        return False
    names = lower["variables"]
    terms = [(rows, cols, _decoded(monomial, len(names), _natural), c)
             for rows, cols, cofactor in lower["minors"] for monomial, c in cofactor["terms"]]
    if any(exps is None for _, _, exps, _ in terms) or not (
            all(len(rows) == len(cols) == lower["value"] for rows, cols, _ in lower["minors"])
            and len(basis) == len(names) == rng.dim
            and em.Subspace(m * n, basis).dim == rng.dim
            and all(em.in_subspace(rng, v) for v in basis)
            and all(x.im == 0 for v in basis for x in v)
            and len(set(names)) == len(names) and lower["witness_variable"] in names):
        return False
    xs = sympy.symbols(names)

    def rational(q):
        return sympy.Rational(q.numerator, q.denominator)

    M = sympy.Matrix(m, n, lambda i, j: sum(rational(v[i * n + j].re) * x
                                            for x, v in zip(xs, basis)))
    lhs = sum(rational(Fraction(c)) * sympy.prod([xs[l] ** e for l, e in exps.items()])
              * M.extract(rows, cols).det() for rows, cols, exps, c in terms)
    return sympy.expand(lhs - xs[names.index(lower["witness_variable"])] ** lower["power"]) == 0


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_sn_lower_payloads_are_rejected(genuine_lowers, data):
    """Mutation fuzzing of the indexed format: every one-field perturbation of
    the lower half of a genuine family:3 or rho4x5 verdict, replayed inside
    the verdict, is rejected with CertificateInvalid (never a KeyError,
    TypeError or hang), unless the identity it leaves is still true."""
    state, genuine = genuine_lowers[data.draw(st.sampled_from(sorted(genuine_lowers)))]
    cert = _copy(genuine)
    _mutate(data, cert["lower"], *state.dims)
    assume(json.dumps(cert) != json.dumps(genuine))  # unlike ==, tells true from 1
    try:
        se.verify_certificate(cert)
    except se.CertificateInvalid:
        return
    assert _claim_holds(cert["lower"], state)


CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


@pytest.mark.parametrize("k", sorted(CATALAN))
def test_family_certificates_use_catalan_many_minors_and_replay(k, tmp_path):
    """certify-sn on family:k (deltas excluded) proves SN = k at witness power
    k with C_k minors, and verify replays the certificate."""
    path = tmp_path / "sn.json"
    assert cli.run(["certify-sn", "--state", f"family:{k}", "--exclude-deltas",
                    "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert (data["verdict"], data["lower"]["power"]) == (f"SN = {k}", k)
    assert len(data["lower"]["minors"]) == CATALAN[k]
    assert se.verify_certificate(data)


@pytest.fixture(scope="module")
def genuine_verdicts(tmp_path_factory):
    """Genuine sn-verdict payloads of rho4x5 and family:3, written by certify-sn."""
    out = {}
    for name, ref in (("rho4x5", ["--state", "rho4x5"]),
                      ("family3", ["--state", "family:3", "--exclude-deltas"])):
        path = tmp_path_factory.mktemp("verdict") / f"{name}.json"
        assert cli.run(["certify-sn", *ref, "--out", str(path)]) == 0
        out[name] = json.loads(path.read_text())
    return out


def _non_positive_dims(state):
    """Negative stored dimensions whose product is the genuine ``dim_a *
    dim_b``, so that every shape check of the stored vectors and matrix
    passes."""
    m, n = state["dim_a"], state["dim_b"]
    return [(-m, -n), (-1, -m * n), (-m * n, -1)]


UPPER_MUTATIONS = ("edge-name", "edge-vector-entry", "edge-pairs", "edge-weight",
                   "upper-value", "schmidt-rank", "verdict", "dims")
VERDICT_MUTATIONS = ("cofactor", "row-index", "column-index", "power", "witness-variable",
                     "basis", "monomial-pairs") + UPPER_MUTATIONS
ENTRIES = ["0", "1", "-1", "2", "1/2", "1+1 i", "x", None]


def _mutate_verdict(data, payload):
    """One drawn perturbation of one field of an sn-verdict (in place): of
    a half, of an edge of its one state (name, vector entry, a fault in its
    sparse pairs, or weight), of the state's dimensions (negative, with
    the upper half derived from them), or of the verdict line.  Without a
    lower half only the upper and state mutations apply."""
    lower, upper, state = payload.get("lower"), payload["upper"], payload["state"]
    length = state["dim_a"] * state["dim_b"]
    kind = data.draw(st.sampled_from(VERDICT_MUTATIONS if lower else UPPER_MUTATIONS),
                     label="mutation")
    edge = data.draw(st.sampled_from(state["edges"]), label="edge")
    if kind in ("cofactor", "row-index", "column-index"):
        entry = data.draw(st.sampled_from(lower["minors"]), label="minor")
        if kind == "cofactor":
            term = data.draw(st.sampled_from(entry[2]["terms"]), label="term")
            term[1] = data.draw(st.sampled_from(["0", "2", "-1", "1/2", "-1/2", "x", 1]))
        else:
            idx = entry[kind == "column-index"]
            bound = state["dim_b" if kind == "column-index" else "dim_a"]
            idx[data.draw(st.integers(0, len(idx) - 1))] = data.draw(st.integers(-1, bound))
    elif kind == "power":
        lower["power"] = data.draw(st.integers(-1, 2 * lower["value"] + 2))
    elif kind == "witness-variable":
        lower["witness_variable"] = data.draw(_other_variables(lower), label="variable")
    elif kind == "basis":
        lower["basis"] = data.draw(st.sampled_from(BASIS_SOURCES), label="basis")
    elif kind == "edge-name":
        edge["name"] = data.draw(st.sampled_from(["e0", "alpha", "psi00", "", None, 0]))
    elif kind == "edge-vector-entry":
        _set_entry(edge["vector"], data.draw(st.integers(0, length - 1), label="site"),
                   data.draw(st.sampled_from(ENTRIES), label="entry"))
    elif kind == "edge-pairs":
        _spoil_pairs(data, edge["vector"], length, "1", ZERO_SPELLINGS)
    elif kind == "monomial-pairs":
        entry = data.draw(st.sampled_from(lower["minors"]), label="minor")
        term = data.draw(st.sampled_from(entry[2]["terms"]), label="term")
        _spoil_pairs(data, term[0], len(lower["variables"]), 1, [0])
    elif kind == "edge-weight":
        edge["weight"] = data.draw(st.sampled_from(["0", "2", "1/2", "-1", "x", None, 3, 3.0, True]
                                                   + _numbers(edge["weight"])))
    elif kind == "dims":
        # and the upper half and verdict line that the kernel derives from them
        m, n = data.draw(st.sampled_from(_non_positive_dims(state)), label="dims")
        state["dim_a"], state["dim_b"] = m, n
        upper["schmidt_ranks"] = [rp.schmidt_rank(rp.vector_from_json(e["vector"], length), m, n)
                                  for e in state["edges"]]
        upper["value"] = max(upper["schmidt_ranks"])
        payload["verdict"] = se.sn_verdict_text(lower and lower["value"], upper["value"])
    elif kind == "upper-value":
        upper["value"] = data.draw(st.integers(0, 6) | st.sampled_from(
            [True, None, str(upper["value"])] + _numbers(str(upper["value"]))), label="value")
    elif kind == "verdict":
        payload["verdict"] = data.draw(st.sampled_from(
            ["SN = 2", "SN = 3", "SN = 4", "SN in [2, 3]", "SN in [3, 4]",
             "SN <= 3 (lower bound inconclusive)", "SN <= 4 (lower bound inconclusive)", None]))
    else:
        ranks = upper["schmidt_ranks"]
        ranks[data.draw(st.integers(0, len(ranks) - 1))] = data.draw(
            st.integers(0, 6) | st.sampled_from([2.0, "2", None]))


def _numbers(text):
    """The JSON numbers (and ``true`` for 1) equal to the stored rational ``text``."""
    q = Fraction(text)
    return [float(q)] + ([int(q)] if q.denominator == 1 else []) + ([True] if q == 1 else [])


def _upper_claim_holds(upper, stored):
    """Independent check of an accepted upper half on the ``stored`` state,
    the weighted Gram sum of its edges: the dimensions are positive, the
    edge vectors are valid sparse pairs, the weights are nonnegative
    rational strings, and sympy ranks of the edge vectors' matricizations
    are the stored Schmidt ranks, whose maximum is the claimed value, an
    integer."""
    sympy = pytest.importorskip("sympy")
    m, n = stored["dim_a"], stored["dim_b"]
    vectors = [_vector(e["vector"], m * n) for e in stored["edges"]]
    if m < 1 or n < 1 or None in vectors or not all(
            isinstance(e["weight"], str) and Fraction(e["weight"]) >= 0 for e in stored["edges"]):
        return False

    def number(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) \
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    ranks = [sympy.Matrix(m, n, [number(x) for x in v]).rank() for v in vectors]
    return upper["schmidt_ranks"] == ranks and type(upper["value"]) is int \
        and upper["value"] == max(ranks)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_sn_verdict_and_sn_upper_payloads_are_rejected(genuine_verdicts, data):
    """Mutation fuzzing of sn-verdicts: ``verify`` fails every one-field
    perturbation of a genuine rho4x5 or family:3 verdict, or of the same
    verdict with an inconclusive lower bound (its upper half and state
    alone), with a PptlabError (which ``pptlab verify`` reports as FAILED),
    unless the claim it leaves is still true."""
    genuine = genuine_verdicts[data.draw(st.sampled_from(sorted(genuine_verdicts)))]
    if data.draw(st.booleans(), label="upper alone"):
        genuine = {"kind": "sn-verdict", "state": genuine["state"],
                   "lower_inconclusive": "not searched", "upper": genuine["upper"],
                   "verdict": se.sn_verdict_text(None, genuine["upper"]["value"])}
    payload = _copy(genuine)
    _mutate_verdict(data, payload)
    assume(json.dumps(payload) != json.dumps(genuine))
    try:
        se.verify_certificate(payload)
    except PptlabError:
        return
    lower, upper = payload.get("lower"), payload["upper"]
    assert _upper_claim_holds(upper, payload["state"])
    if lower is not None:
        assert _claim_holds(lower, se.state_from_json(payload["state"]))
    assert payload["verdict"] == se.sn_verdict_text(lower and lower["value"], upper["value"])


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
def test_sn_upper_value_must_be_an_integer(tmp_path, capsys, value):
    """On an SN = 1 sn-verdict, an upper value of ``true`` or ``1.0`` equals
    the edges' largest Schmidt rank and gives the same verdict line, so only
    its type tells it from the integer 1."""
    cert = tmp_path / "cert.json"
    assert cli.run(["certify-sn", "--state", _separable_2x2(tmp_path), "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert (data["verdict"], data["upper"]["value"]) == ("SN = 1", 1)
    data["upper"]["value"] = value
    cert.write_text(json.dumps(data))
    assert cli.run(["verify", str(cert)]) == 1
    assert "upper bound value is not an integer" in capsys.readouterr().out


def test_sn_upper_with_a_wrong_stored_schmidt_rank_is_rejected(rho3x3_verdict):
    cert = _copy(rho3x3_verdict)
    cert["upper"]["schmidt_ranks"][0] += 1
    with pytest.raises(se.CertificateInvalid, match="Schmidt ranks"):
        se.verify_certificate(cert)


def test_sn_upper_without_vectors_is_rejected(rho3x3_verdict):
    """The upper half reads the state's edges: a state with no edges, or one
    stored as its matrix alone, has no decomposition to bound."""
    for state in ({**rho3x3_verdict["state"], "edges": []},
                  se.state_to_json(TILES_MATRIX)):
        cert = {"kind": "sn-verdict", "state": state, "lower_inconclusive": "not searched",
                "upper": {"value": 1, "schmidt_ranks": []},
                "verdict": "SN <= 1 (lower bound inconclusive)"}
        with pytest.raises(se.CertificateInvalid, match="no edge decomposition"):
            se.verify_certificate(cert)


def test_sn_upper_with_a_negative_edge_weight_is_rejected(rho3x3_verdict):
    """Edges e3 (weight 4) and a copy of it (weight -1) sum to rho3x3, a PSD
    matrix, but are not a conic decomposition: the state is refused where
    it is built, so no upper half is ever read off it."""
    cert = _split_e3(rho3x3_verdict)
    e3, copy = cert["state"]["edges"][3], cert["state"]["edges"][-1]
    assert (e3["name"], copy["name"]) == ("e3", "e3b")
    e3["weight"], copy["weight"] = "4", "-1"
    with pytest.raises(BoundsViolation, match="'e3b' has negative weight -1"):
        se.state_from_json(cert["state"])
    with pytest.raises(BoundsViolation, match="negative weight"):
        se.verify_certificate(cert)


def _signed_2x2_state():
    """``|Phi+><Phi+| + |00><00|`` (``|Phi+> = |00> + |11>``, an NPT state)
    as ten product edges with signed weights: ``|00>`` (weight 2), ``|11>``
    (weight 1), and ``(|0> + a|1>)(|0> + b|1>)`` with weight ``ab/8`` for
    the eight pairs of fourth roots of unity with ``ab = +-1``, whose sum is
    ``|00><11| + |11><00|``."""
    roots = [em.GaussianRational(1), em.GaussianRational(0, 1),
             em.GaussianRational(-1), em.GaussianRational(0, -1)]
    edges = [("p00", em.basis_vector(4, 0), Fraction(2)),
             ("p11", em.basis_vector(4, 3), Fraction(1))]
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            ab = a * b
            if ab.im == 0:
                edges.append((f"q{i}{j}", (em.ONE, b, a, ab), ab.re / 8))
    return edges


def test_signed_product_edges_are_refused_by_every_verb(tmp_path, capsys):
    """Signed weights could write any PSD matrix as product edges, which
    would bound an NPT state's Schmidt number by 1: build, ppt-check and
    certify-sn refuse the state file (exit 2, the weight named)."""
    edges = _signed_2x2_state()
    phi, e00 = em.vector([1, 0, 0, 1]), em.basis_vector(4, 0)
    target = em.ExactMatrix.outer(phi, phi) + em.ExactMatrix.outer(e00, e00)
    assert em.weighted_gram([v for _, v, _ in edges], [w for _, _, w in edges], 4) == target
    assert se.ppt_certificate(qs.BipartiteState(2, 2, target))["verdict"] == "NPT"
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"kind": "state", "dim_a": 2, "dim_b": 2, "label": "signed",
                                "edges": [{"name": name, "vector": se.vector_to_json(v),
                                           "weight": em.format_scalar(w)}
                                          for name, v, w in edges]}))
    for verb in ("build", "ppt-check", "certify-sn"):
        capsys.readouterr()
        assert cli.run([verb, "--state", str(path)]) == 2
        assert "has negative weight -1/8" in capsys.readouterr().err


def test_retired_state_layout_fails_state_input_and_ppt_verify(tmp_path, capsys):
    """A state file that stores both its matrix and its edges is malformed
    input (exit 2); a ppt certificate holding one fails verify (exit 1)."""
    state, cert = tmp_path / "state.json", tmp_path / "ppt.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    old = json.loads(cert.read_text())
    old["state"]["matrix"] = se.matrix_to_json(co.rho_3x3().matrix)
    state.write_text(json.dumps(old["state"]))
    cert.write_text(json.dumps(old))
    capsys.readouterr()
    reason = "malformed state: ValueError: unknown edge state keys ['matrix']\n"
    for verb in ("ppt-check", "certify-sn", "build"):
        assert cli.run([verb, "--state", str(state)]) == 2
        assert capsys.readouterr() == ("", f"{verb}: MalformedData: {reason}")
    assert cli.run(["verify", str(cert)]) == 1
    assert capsys.readouterr().out == f"verify: FAILED: {reason}"


@pytest.mark.parametrize("verb, state, digest", [
    ("build", "rho3x3", "b74bb6060aa3d3860ed3378880a744002f1cc196a0a81920775c72ee6f49c0c4"),
    ("ppt-check", "rho3x3", "fb1feff34429b516408c1331c3ad0a3134c3116795e019afecf4c2230ca31e62"),
    ("ppt-check", se.state_to_json(TILES_MATRIX),
     "53f21bb8ea4918ffb5d903708db0c063b529fd7d3e7a8383d3bc42bd13bc4be7"),
    ("certify-sn", "rho3x3", "b325c894fc9bd15734c01c30559144104812f8fb3cf3a007d6d25670dc22843d"),
], ids=["state", "ppt", "ppt-of-a-matrix-state", "sn-verdict"])
def test_files_with_dense_vectors_ask_for_a_rerun(tmp_path, capsys, verb, state, digest):
    """A file written before vectors were stored sparsely: ``_densified``
    rebuilds its exact bytes (pinned by SHA-256) from what the verb writes
    now.  Its first dense entry is not an ``[index, value]`` pair: a state
    file is malformed ``--state`` input (exit 2) and a certificate fails
    verify (exit 1), also the ppt certificate of a state stored as its
    matrix, which holds dense LDL* columns only."""
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    if isinstance(state, dict):
        (tmp_path / "state.json").write_text(json.dumps(state))
        state = str(tmp_path / "state.json")
    args = ["--k", "2"] if verb == "certify-sn" else []
    assert cli.run([verb, "--state", state, *args, "--out", str(new)]) == 0
    old.write_text(json.dumps(_densified(json.loads(new.read_text())), indent=2) + "\n")
    assert hashlib.sha256(old.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    if verb == "build":
        for reader in ("ppt-check", "certify-sn", "build", "extend", "plot"):
            step = ["--step", json.dumps(RHO_4X5_STEP_JSON[0])] if reader == "extend" else []
            assert cli.run([reader, "--state", str(old), *step]) == 2
            assert capsys.readouterr().err == (
                f"{reader}: MalformedData: malformed state: ValueError: entry '1' is not "
                f"[index, nonzero value] with an index above -1 and below 9\n")
        return
    assert cli.run(["verify", str(old)]) == 1
    what = "state" if "edges" in json.loads(new.read_text())["state"] else "certificate"
    assert re.fullmatch(f"verify: FAILED: malformed {what}: ValueError: entry '[-0-9/]+' is not "
                        r"\[index, nonzero value\] with an index above -1 and below 9\n",
                        capsys.readouterr().out)


@pytest.mark.parametrize("verb", ["verify", "plot"])
def test_verify_and_plot_reject_json(verb, tmp_path, capsys):
    """``--json`` was accepted and ignored by ``verify`` and ``plot``, which
    print text only; it is now an unknown option (exit 2)."""
    cert = tmp_path / "ppt.json"
    assert cli.run(["ppt-check", "--state", "rho3x3", "--out", str(cert)]) == 0
    argv = ["verify", str(cert)] if verb == "verify" else ["plot", "--state", "rho3x3"]
    assert cli.run(argv) == 0
    with pytest.raises(SystemExit) as info:
        cli.run(argv + ["--json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


FAMILY6 = os.path.join(DATA, "family6_sn_verdict.json")


@pytest.mark.parametrize("path, state, args, verdict, digest", [
    (FAMILY6, "family:6", ["--exclude-deltas"], "SN = 6",
     "b9651cf022b7cd1e74e7cf42ce83bfd7d58164454d280fcc832f5b0b15d57b50"),
    (os.path.join(DATA, "tiles_sn_verdict.json"), "tiles", [], "SN = 2",
     "3d484df44e39f84b0db09ec2398a9de5043ea6a57a474887c3d3d431dccdd1c5"),
], ids=["family6", "tiles"])
def test_committed_certificate_replays_and_is_rewritten(tmp_path, capsys, path, state, args,
                                                        verdict, digest):
    """The committed sn-verdicts of family:6 (11x11, past the paper's 9x9)
    and of Tiles (3x3, from its LDL* edges) are pinned by SHA-256,
    ``pptlab verify`` replays each, and ``certify-sn`` writes the same
    bytes."""
    with open(path, "rb") as fh:
        committed = fh.read()
    assert hashlib.sha256(committed).hexdigest() == digest
    assert json.loads(committed)["verdict"] == verdict
    capsys.readouterr()
    assert cli.run(["verify", path]) == 0
    assert capsys.readouterr().out == "verify: OK (sn-verdict)\n"
    out = tmp_path / "sn.json"
    assert cli.run(["certify-sn", "--state", state, *args, "--out", str(out)]) == 0
    assert out.read_bytes() == committed


@pytest.mark.parametrize("k, digest", [
    (7, "b7cf4530eac4240b9912433c8f7348219c65ca717c9262d456bb379de534cd88"),
    (8, "6bfbeb1c5e8691ecedf53467ca8cb707c5f5cb081f13f8fda13242f063db3165"),
], ids=["family7", "family8"])
def test_committed_family7_and_family8_certificates_replay(k, digest, capsys):
    """The committed family:7 (13x13) and family:8 (15x15) sn-verdicts are
    pinned by SHA-256 and ``pptlab verify`` replays them as SN = k.  CI
    compares them with what ``certify-sn`` writes, which takes ~20 s at
    k = 8."""
    path = os.path.join(DATA, f"family{k}_sn_verdict.json")
    with open(path, "rb") as fh:
        committed = fh.read()
    assert hashlib.sha256(committed).hexdigest() == digest
    assert json.loads(committed)["verdict"] == f"SN = {k}"
    capsys.readouterr()
    assert cli.run(["verify", path]) == 0
    assert capsys.readouterr().out == "verify: OK (sn-verdict)\n"


# -- ppt certificates under mutation -----------------------------------------------

def _npt_state():
    """A complex 3x3 NPT state: |v><v| + I/4 with v = |00> + i|11> + (1+i)/2 |22>."""
    v = tuple(em.parse_scalar(x) for x in ["1", "0", "0", "0", "1 i", "0", "0", "0", "1/2+1/2 i"])
    return qs.BipartiteState(3, 3, em.ExactMatrix.outer(v, v)
                             + em.ExactMatrix.identity(9).scale(Fraction(1, 4)), label="npt")


@pytest.fixture(scope="module")
def genuine_ppt_certificates():
    """Genuine ppt certificates of rho3x3 (PPT) and of a complex NPT state."""
    out = {name: json.loads(json.dumps(se.ppt_certificate(state)))
           for name, state in (("rho3x3", co.rho_3x3()), ("npt", _npt_state()))}
    assert (out["rho3x3"]["verdict"], out["npt"]["verdict"]) == ("PPT", "NPT")
    return out


PPT_MUTATIONS = ("pivot", "pivot-pairs", "column-entry", "column-pairs", "imaginary-part",
                 "state-entry", "swapped-state", "verdict", "psd-flag", "dims")
NPT_MUTATIONS = PPT_MUTATIONS + ("witness-entry", "witness-pairs", "witness-value")
SCALARS = ["0", "1", "-1", "2", "1/2", "-1/4", "1+1 i", "1 i", "x", "", None, 1]


def _conjugate_text(text):
    return em.format_scalar(em.parse_scalar(text).conj())


def _scalar_slots(rows):
    """``(holder, key)`` of every scalar string in ``rows``: the rows of a
    matrix, or sparse vectors, whose pairs hold their values at key 1."""
    return [(pair, 1) if isinstance(pair, list) else (row, i)
            for row in rows for i, pair in enumerate(row)]


def _mutate_ppt(data, cert, others):
    """One drawn perturbation of one field of a ppt certificate (in place);
    ``swapped-state`` stores the state of one of the ``others`` with its
    genuine ``rho`` evidence, so that only the ``rho_ta`` evidence is false.
    The state mutations change an entry of the matrix, or of an edge (its
    name, a vector entry, its weight or a fault in its sparse pairs) when
    the state is stored as edges; ``dims`` writes the certificate of the
    state read with negative dimensions."""
    npt = not cert["rho_ta"]["psd"]
    ev, state = cert["rho"], cert["state"]
    n = state["dim_a"] * state["dim_b"]
    kinds = (NPT_MUTATIONS if npt else PPT_MUTATIONS) + (("edge-pairs",) if "edges" in state else ())
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if not npt:
        ev = cert[data.draw(st.sampled_from(["rho", "rho_ta"]), label="block")]
    if kind == "pivot":
        pivot = data.draw(st.sampled_from(ev["pivots"]), label="pivot")
        pivot[1] = data.draw(st.sampled_from(SCALARS + [3, 3.0, True] + _numbers(pivot[1]))
                             | st.fractions().map(str), label="value")
    elif kind == "pivot-pairs":
        _spoil_pairs(data, ev["pivots"], n, "1", ZERO_SPELLINGS)
    elif kind == "column-entry":
        _set_entry(data.draw(st.sampled_from(ev["columns"]), label="column"),
                   data.draw(st.integers(0, n - 1), label="row"), data.draw(st.sampled_from(SCALARS)))
    elif kind == "column-pairs":
        _spoil_pairs(data, data.draw(st.sampled_from(ev["columns"]), label="column"), n, "1",
                     ZERO_SPELLINGS)
    elif kind == "imaginary-part":
        # a column entry or a state entry with its imaginary part negated or shifted
        rows = ev["columns"] if data.draw(st.booleans(), label="in a column") \
            else state["matrix"]["entries"] if "matrix" in state \
            else [e["vector"] for e in state["edges"]]
        holder, i = data.draw(st.sampled_from(_scalar_slots(rows)), label="entry")
        shift = data.draw(st.sampled_from([None, "1 i", "-1/2 i"]), label="shift")
        holder[i] = _conjugate_text(holder[i]) if shift is None else \
            em.format_scalar(em.parse_scalar(holder[i]) + em.parse_scalar(shift))
    elif kind == "state-entry" and "matrix" in state:
        matrix = state["matrix"]["entries"]
        size = len(matrix)
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        value = data.draw(st.sampled_from(SCALARS[:7]), label="entry")
        matrix[i][j] = value
        if data.draw(st.booleans(), label="hermitian"):
            matrix[j][i] = _conjugate_text(value)
    elif kind == "state-entry":
        edge = data.draw(st.sampled_from(state["edges"]), label="edge")
        field = data.draw(st.sampled_from(["name", "vector", "weight"]), label="edge field")
        if field == "vector":
            _set_entry(edge["vector"], data.draw(st.integers(0, n - 1), label="site"),
                       data.draw(st.sampled_from(SCALARS)))
        elif field == "weight":
            edge[field] = data.draw(st.sampled_from(SCALARS + ["3", 3, 3.0, True]
                                                    + _numbers(edge[field])), label=field)
        else:
            edge[field] = data.draw(st.sampled_from(SCALARS + ["e0", "3"]), label=field)
    elif kind == "swapped-state":
        other = _copy(data.draw(st.sampled_from(others)))
        cert["state"], cert["rho"] = other["state"], other["rho"]
    elif kind == "dims":
        # the certificate the writer makes of the stored state read with them
        s = se.ppt_state_from_json(state)
        dims = data.draw(st.sampled_from(_non_positive_dims(state)), label="dims")
        cert.update(_copy(se.ppt_certificate(qs.BipartiteState._raw(*dims, s.matrix, s.label,
                                                                    s.edges))))
    elif kind == "verdict":
        cert["verdict"] = data.draw(st.sampled_from(["PPT", "NPT", "ppt", None]), label="verdict")
    elif kind == "psd-flag":
        ev["psd"] = data.draw(st.sampled_from([1, 0, 1.0, "yes", "", None, not ev["psd"]]),
                              label="psd")
    elif kind == "edge-pairs":
        edge = data.draw(st.sampled_from(state["edges"]), label="edge")
        _spoil_pairs(data, edge["vector"], n, "1", ZERO_SPELLINGS)
    elif kind == "witness-entry":
        _set_entry(cert["rho_ta"]["witness"], data.draw(st.integers(0, n - 1), label="site"),
                   data.draw(st.sampled_from(SCALARS)))
    elif kind == "witness-pairs":
        _spoil_pairs(data, cert["rho_ta"]["witness"], n, "1", ZERO_SPELLINGS)
    else:
        cert["rho_ta"]["witness_value"] = data.draw(
            st.sampled_from(["-1", "-4", "0", "15/4", "-15/4 ", "x", None, -3.75])
            | st.fractions().map(str), label="witness value")


def _ppt_claim_holds(cert):
    """Independent check of an accepted ppt certificate: the stored
    dimensions are positive, every stored vector (edge, LDL* column,
    witness) is valid sparse pairs and, by sympy, the stored matrix, or the
    weighted Gram sum of the stored edges, is Hermitian and is PSD (the
    stored state is a state), and its partial transpose is PSD exactly when
    the verdict is PPT.  A Hermitian ``A`` is PSD iff every coefficient of
    ``det(x + A)`` is nonnegative.  Stored rationals (edge weights, pivots)
    must be strings, the pivots valid sparse pairs, and each ``psd`` flag
    ``true`` or ``false``."""
    sympy = pytest.importorskip("sympy")
    if not all(type(cert[key]["psd"]) is bool for key in ("rho", "rho_ta")):
        return False
    state = cert["state"]
    m, n = state["dim_a"], state["dim_b"]
    if m < 1 or n < 1:
        return False
    evidence = [v for ev in (cert["rho"], cert["rho_ta"])
                for v in (ev["columns"] if ev["psd"] else [ev["witness"]])]
    edges = [_vector(e["vector"], m * n) for e in state.get("edges", ())]
    pivots = [_decoded(ev["pivots"], m * n, lambda x: Fraction(x) if isinstance(x, str) else None)
              for ev in (cert["rho"], cert["rho_ta"]) if ev["psd"]]
    if None in edges or None in pivots or any(_vector(v, m * n) is None for v in evidence) \
            or not all(isinstance(e["weight"], str) for e in state.get("edges", ())):
        return False

    def number(z):
        z = em.parse_scalar(z) if isinstance(z, str) else z
        return sympy.Rational(z.re.numerator, z.re.denominator) \
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    if "matrix" in state:
        M = sympy.Matrix([[number(x) for x in row] for row in state["matrix"]["entries"]])
    else:
        M = sympy.zeros(m * n, m * n)
        for e, vec in zip(state["edges"], edges):
            v = sympy.Matrix([number(x) for x in vec])
            w = Fraction(e["weight"])
            M += sympy.Rational(w.numerator, w.denominator) * v * v.H
    pt = sympy.Matrix(m * n, m * n, lambda r, c: M[(c // n) * n + r % n, (r // n) * n + c % n])
    x = sympy.Symbol("x")

    def psd(A):
        return all(sympy.expand(c) >= 0 for c in (-A).charpoly(x).all_coeffs())

    return M == M.H and psd(M) and psd(pt) == (cert["verdict"] == "PPT")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_ppt_certificates_are_rejected(genuine_ppt_certificates, data):
    """Mutation fuzzing of ppt certificates: ``verify`` fails every one-field
    perturbation of a genuine PPT (rho3x3) or NPT (complex 3x3) certificate,
    a pivot, a fault in the pivots' sparse pairs, a column entry, an
    imaginary part, a state entry, the whole state, the verdict, a ``psd``
    flag or, on the NPT state, the witness or its value, with a PptlabError,
    unless sympy shows the verdict still true of the stored state."""
    name = data.draw(st.sampled_from(sorted(genuine_ppt_certificates)))
    genuine = genuine_ppt_certificates[name]
    cert = _copy(genuine)
    _mutate_ppt(data, cert, [c for key, c in genuine_ppt_certificates.items() if key != name])
    assume(json.dumps(cert) != json.dumps(genuine))  # unlike ==, tells true from 1
    try:
        se.verify_certificate(cert)
    except PptlabError:
        return
    assert _ppt_claim_holds(cert)
