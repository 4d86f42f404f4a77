"""Schmidt-number bounds run on edge states only, and read the range from the edges.

``minors.range_basis`` spans the edge vectors of positive weight; with no
negative weight that is the range of their Gram sum, so its canonical basis
is ``column_space`` of the state's matrix (a hypothesis property).  A stored
state without edges never reaches a Schmidt-number bound: ``verify`` of its
sn-verdict and ``certify-sn`` of it are refused before its matrix is read,
so a 16x16 dense matrix state (~0.4 MB, ten seconds and more of LDL*) costs
nothing.  ``verify`` never factors a matrix at all.
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


def test_the_forged_matrix_state_is_refused_at_once(forged, capsys):
    """``verify`` fails the forged sn-verdict (exit 1) and ``certify-sn``
    refuses its state (exit 2), each within 1 s and with the messages of a
    full replay: the state has no edges, so nothing is factored."""
    cert, state = forged
    assert os.path.getsize(cert) > 350_000
    start = time.perf_counter()
    assert cli.run(["verify", cert]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "verify: FAILED: the state has no edge decomposition\n"
    start = time.perf_counter()
    assert cli.run(["certify-sn", "--state", state]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "certify-sn: state carries no range decomposition\n"


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
    weights that may be 0; some edges repeat or combine earlier ones."""
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
    weights = draw(st.lists(st.sampled_from([0, Fraction(1, 2), 1, 3]), min_size=len(vectors),
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
