"""Schmidt-number bounds run on edge states only, and read the range from the edges.

Every edge of a state has a positive weight, which the state's constructor
alone checks: a zero weight is refused like a negative one, by every verb
that reads a state file.  So ``minors.range_basis`` spans all the edge
vectors, the range of their Gram sum (``column_space`` of the state's
matrix, a hypothesis property), and ``certify_sn``'s first target
coordinate and upper bound come from the same edges.  A stored state without edges
never reaches a Schmidt-number bound: ``verify`` of its sn-verdict, and
``certify-sn`` and ``plot`` of it, are refused before its matrix is read,
so a 16x16 dense matrix state (~0.4 MB, ten seconds and more of LDL*)
costs nothing.  ``verify`` never factors a matrix at all.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptlab import certifier as ce
from pptlab import cli
from pptlab import constructions as co
from pptlab import exactmat as em
from pptlab import minors as mi
from pptlab import qstates as qs
from pptlab import replay as rp
from pptlab import serialize as se
from pptlab.errors import BoundsViolation, DimensionMismatch, InvalidK, NotARealRangeBasis

DATA = os.path.join(os.path.dirname(__file__), "data")


def _forged_matrix_verdict() -> dict:
    """An sn-verdict claiming ``SN <= 1`` of a 16x16 state stored as its
    dense matrix: ``B B^T`` for a seeded random 0/1 matrix ``B``, PSD and
    slow to factor exactly (the CI step writes the same file)."""
    b = np.random.default_rng(0).integers(0, 2, (256, 256))
    state = {"dim_a": 16, "dim_b": 16, "label": "forged",
             "matrix": {"rows": 256, "cols": 256,
                        "entries": [[str(x) for x in row] for row in (b @ b.T).tolist()]}}
    return {"kind": "sn-verdict", "state": state, "lower_inconclusive": "not searched",
            "upper": {"value": 1, "schmidt_ranks": [1]},
            "verdict": "SN <= 1 (lower bound inconclusive)"}


@pytest.fixture(scope="module")
def forged(tmp_path_factory):
    """Paths of the forged sn-verdict and of its state file."""
    d = tmp_path_factory.mktemp("forged")
    cert = _forged_matrix_verdict()
    (d / "cert.json").write_text(json.dumps(cert))
    (d / "state.json").write_text(json.dumps(cert["state"]))
    return str(d / "cert.json"), str(d / "state.json")


def test_the_forged_matrix_state_is_refused_at_once(forged, spy, capsys):
    """``verify`` fails the forged sn-verdict (exit 1), and ``certify-sn``
    and ``plot`` refuse its state (exit 2), each within 1 s with one line:
    the state has no edges, so its matrix is neither read nor factored."""
    cert, state = forged
    assert os.path.getsize(cert) > 350_000
    calls = spy(rp, "psd_check")
    for argv, code, line in (
            (["verify", cert], 1, "verify: FAILED: the state has no edge decomposition\n"),
            (["certify-sn", "--state", state], 2, "certify-sn: state carries no edge decomposition\n"),
            (["plot", "--state", state], 2, "plot: state carries no edge decomposition\n")):
        start = time.perf_counter()
        assert cli.run(argv) == code
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (captured.out if code == 1 else captured.err) == line
    assert calls == []


def test_verify_never_factors_a_matrix(forged, spy, tmp_path, capsys):
    """No ``psd_check`` runs while ``verify`` replays: the committed files
    (the rounded 4x4 state file is no certificate, and its ppt certificate
    is replayed too), fresh ppt and sn-verdict certificates, an NPT Bell
    state's ppt certificate and the forged sn-verdict."""
    bell = qs.BipartiteState(2, 2, em.ExactMatrix(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]), label="bell")
    named = [co.rho_3x3(), co.rho_4x5().final] + [co.rho_family(k) for k in range(2, 6)]
    certs = [se.ppt_certificate(s) for s in named + [co.tiles_complement(), bell]]
    assert [c["verdict"] for c in certs[-2:]] == ["PPT", "NPT"]
    certs += [se.sn_verdict_certificate(s, *ce.certify_sn(s)) for s in named]
    rounded = os.path.join(DATA, "rounded_4x4_s634511.json")
    assert cli.run(["ppt-check", "--state", rounded, "--out", str(tmp_path / "r.json")]) == 0
    paths = [os.path.join(DATA, f) for f in sorted(os.listdir(DATA))] + [str(tmp_path / "r.json")]
    for i, cert in enumerate(certs):
        paths.append(str(tmp_path / f"c{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(cert, fh)
    capsys.readouterr()
    calls = spy(rp, "psd_check")
    codes = [cli.run(["verify", path]) for path in paths + [forged[0]]]
    assert calls == []
    out = capsys.readouterr().out.splitlines()
    failed = {os.path.basename(p): line for p, line, code in zip(paths + [forged[0]], out, codes)
              if code}
    assert failed == {"rounded_4x4_s634511.json": "verify: FAILED: unknown certificate kind 'state'",
                      "cert.json": "verify: FAILED: the state has no edge decomposition"}


@st.composite
def edge_states(draw):
    """Edge states of up to 3x3 with small Gaussian-rational entries and
    positive weights; some edges repeat or combine earlier ones."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.builds(em.GaussianRational, st.integers(-2, 2), st.just(0) | st.integers(-1, 1))
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "repeat", "combine"]) if vectors else st.just("new"))
        if kind == "new":
            vectors.append(tuple(draw(st.lists(entry, min_size=m * n, max_size=m * n))))
        elif kind == "repeat":
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            c = em.as_scalar(draw(st.integers(-2, 2)))
            vectors.append(tuple(x + c * y for x, y in zip(a, b)))
    weights = draw(st.lists(st.sampled_from([Fraction(1, 2), 1, 3]), min_size=len(vectors),
                            max_size=len(vectors)))
    return qs.BipartiteState(m, n, label="random", edges=[
        qs.NamedVector(f"e{i}", v, Fraction(w)) for i, (v, w) in enumerate(zip(vectors, weights))])


@settings(max_examples=150, deadline=None)
@given(edge_states())
def test_the_positive_edges_span_the_range_of_their_gram_sum(s):
    """The span of the positive-weight edges is ``column_space`` of the
    Gram sum, canonical basis and all, and the edges are the default basis
    exactly when they are independent and of positive weight."""
    rng, source, vectors = mi.range_basis(s)
    assert rng == em.column_space(s.matrix)
    independent = em.Subspace(len(s.edges[0].vec), [e.vec for e in s.edges]).dim == len(s.edges)
    assert (source == "edges") == (independent and all(e.weight > 0 for e in s.edges))
    assert vectors == (tuple(e.vec for e in s.edges) if source == "edges" else rng.basis)


@settings(max_examples=100, deadline=None)
@given(edge_states())
def test_certify_sn_reads_its_witness_and_upper_bound_off_the_spanning_edges(s):
    """On an edge state the first edge of largest Schmidt rank, whose
    coordinates ``certify_sn`` tries first, lies in ``range_basis``'s range.
    ``certify_sn`` refuses only a basis that is not real (or an upper bound
    of 0, all edges zero); its upper bound is that largest rank, and a lower
    bound names one of its variables."""
    rng = mi.range_basis(s)[0]
    ranks = [rp.schmidt_rank(e.vec, *s.dims) for e in s.edges]
    assert em.in_subspace(rng, s.edges[ranks.index(max(ranks))].vec)
    try:
        lower, upper = ce.certify_sn(s)
    except NotARealRangeBasis as exc:
        assert "not real" in str(exc)
        return
    except InvalidK:
        assert max(ranks) == 0
        return
    assert upper.value == max(ranks)
    if isinstance(lower, ce.LowerBound):
        assert lower.witness_variable in lower.variables


@st.composite
def product_edge_states(draw):
    """States of 2 to 4 product edges ``a (x) b`` on 2x2 to 3x3, with small
    Gaussian-integer entries, all of them real in about half the states
    (the certifier needs a real basis), and a ``k`` from 2 to the smaller
    dimension."""
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    im = st.integers(-1, 1) if draw(st.booleans(), label="complex") else st.just(0)
    entry = st.builds(em.GaussianRational, st.integers(-2, 2), im)
    edges = []
    for i in range(draw(st.integers(2, 4))):
        a = draw(st.lists(entry, min_size=m, max_size=m).filter(any))
        b = draw(st.lists(entry, min_size=n, max_size=n).filter(any))
        edges.append(qs.NamedVector(f"p{i}", em.kron_vec(tuple(a), tuple(b)), Fraction(1)))
    return qs.BipartiteState(m, n, label="product", edges=edges), draw(st.integers(2, min(m, n)))


@settings(max_examples=100, deadline=None)
@given(product_edge_states())
def test_a_state_of_product_edges_gets_no_lower_bound_above_1(case):
    """Soundness: a state whose edges are all product vectors has SN = 1, so
    ``certify_sn_lower`` proves no ``SN >= k`` for k >= 2, over whichever
    basis and coordinate; it may refuse a basis that is not real."""
    s, k = case
    try:
        lower = ce.certify_sn_lower(s, k, ())
    except NotARealRangeBasis as exc:
        assert "not real" in str(exc)
        return
    assert isinstance(lower, ce.Inconclusive)


def _zero_weight_states() -> dict:
    """The two files of a zero-weight edge, by name: family:3 with one more
    edge, ``|00>`` of weight 0 (``certify-sn --exclude-deltas`` failed it
    with ``NotARealRangeBasis`` while the range spanned only the edges of
    positive weight), and ``|00><00|`` with a Bell edge of weight 0
    (``ppt-check`` called it PPT, and ``certify-sn`` failed it with
    ``WitnessNotInRange``, while a zero weight was read)."""
    family = se.state_to_json(co.rho_family(3))
    family["edges"].append({"name": "zero", "vector": [[0, "1"]], "weight": "0"})
    product = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "product",
               "edges": [{"name": "p00", "vector": [[0, "1"]], "weight": "1"},
                         {"name": "bell", "vector": [[0, "1"], [3, "1"]], "weight": "0"}]}
    return {"zero": family, "bell": product}


@pytest.mark.parametrize("edge", ["zero", "bell"])
def test_a_zero_weight_edge_is_refused_by_every_state_reader(edge, tmp_path, capsys):
    """A state file with a zero-weight edge exits 2 from every verb that
    reads a state, with one line naming the edge; ``verify`` of a ppt
    certificate or an sn-verdict that holds it exits 1."""
    data = _zero_weight_states()[edge]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    line = f"BoundsViolation: edge {edge!r} has zero weight 0\n"
    step = json.dumps({"kind": "slocc", "side": "A", "phi": ["1"] * data["dim_a"]})
    for argv in (["build"], ["ppt-check"], ["certify-sn", "--exclude-deltas"], ["certify-sn"],
                 ["extend", "--step", step], ["extremal"], ["plot"]):
        assert cli.run(argv + ["--state", str(path)]) == 2, argv
        assert capsys.readouterr() == ("", f"{argv[0]}: {line}")
    valid = se.state_from_json({**data, "edges": data["edges"][:-1]})
    for cert in (se.ppt_certificate(valid), se.sn_verdict_certificate(valid, *ce.certify_sn(valid))):
        path.write_text(json.dumps({**cert, "state": data}))
        assert cli.run(["verify", str(path)]) == 1
        assert capsys.readouterr().out == f"verify: FAILED: edge {edge!r} has zero weight 0\n"


def test_the_constructor_takes_edges_or_a_matrix(spy):
    """Edges and a matrix together are refused, even when the edges sum to
    the matrix, and so is neither; edges are summed once, never factored."""
    rho = co.rho_3x3()
    calls = spy(rp, "weighted_gram", "psd_check")
    for kwargs in ({"matrix": rho.matrix, "edges": rho.edges}, {}):
        with pytest.raises(DimensionMismatch, match="by its edges or by its matrix, not both"):
            qs.BipartiteState(3, 3, label="both", **kwargs)
    assert calls == []
    assert qs.BipartiteState(3, 3, label="edges", edges=rho.edges) == rho
    assert [name for name, _ in calls] == ["weighted_gram"]
    for weight, sign in ((0, "zero"), (Fraction(-1, 2), "negative")):
        edges = rho.edges[:3] + (rho.edges[3]._replace(weight=weight),)
        with pytest.raises(BoundsViolation, match=f"edge 'e3' has {sign} weight {weight}$"):
            qs.BipartiteState(3, 3, label="bad", edges=edges)
