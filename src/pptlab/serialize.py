"""JSON round-trips for states, grid graphs, and certificates.

Exact scalars serialize as ``"p/q"`` or ``"p/q+r/s i"``; matrices as
``{"rows", "cols", "entries"}`` with stringified entries.  Certificates
carry a ``"kind"`` tag dispatched by the verifier.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import exactmat as em
from . import qstates as qs
from .errors import PptlabError


class CertificateInvalid(PptlabError):
    """A certificate failed its replay."""


def matrix_to_json(M: em.ExactMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[em.format_scalar(x) for x in M.row(i)] for i in range(M.rows)],
    }


def matrix_from_json(data: dict) -> em.ExactMatrix:
    entries = [[em.parse_scalar(x) for x in row] for row in data["entries"]]
    M = em.ExactMatrix(entries) if entries else em.ExactMatrix.zeros(data["rows"], data["cols"])
    if M.shape != (data["rows"], data["cols"]):
        raise CertificateInvalid("matrix shape mismatch")
    return M


def vector_to_json(v: em.Vector) -> list:
    return [em.format_scalar(x) for x in v]


def vector_from_json(data) -> em.Vector:
    return tuple(em.parse_scalar(x) for x in data)


def state_to_json(s: qs.BipartiteState) -> dict:
    out = {
        "kind": "state",
        "dim_a": s.dim_a,
        "dim_b": s.dim_b,
        "label": s.label,
        "matrix": matrix_to_json(s.matrix),
    }
    if s.edges is not None:
        out["edges"] = [{"name": e.name, "vector": vector_to_json(e.vec), "weight": str(e.weight)}
                        for e in s.edges]
    return out


def state_from_json(data: dict) -> qs.BipartiteState:
    edges = None
    if "edges" in data:
        edges = [qs.NamedVector(e["name"], vector_from_json(e["vector"]), Fraction(e["weight"]))
                 for e in data["edges"]]
    return qs.BipartiteState(data["dim_a"], data["dim_b"], matrix_from_json(data["matrix"]),
                             label=data.get("label", ""), edges=edges)


def graph_to_json(g: qs.GridGraph) -> dict:
    solid = [{"sites": [list(s) for s in e.sites], "weight": str(e.weight)}
             for e in g.edges if e.kind == "solid"]
    dashed = [{"sites": [list(s) for s in e.sites], "weight": str(e.weight)}
              for e in g.edges if e.kind == "dashed"]
    return {"dims": [g.dim_a, g.dim_b], "solid": solid, "dashed": dashed}


def graph_from_json(data: dict) -> qs.GridGraph:
    m, n = data["dims"]
    solid = [(e["sites"], Fraction(e["weight"])) for e in data.get("solid", ())]
    dashed = [(e["sites"], Fraction(e["weight"])) for e in data.get("dashed", ())]
    return qs.grid_graph(m, n, solid=solid, dashed=dashed)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def ppt_certificate(s: qs.BipartiteState) -> dict:
    """Exact PPT certificate: LDL* pivots for the state and its partial
    transpose (or a negativity witness)."""
    res_rho = em.psd_check(s.matrix)
    pt = s.partial_transpose("A")
    res_pt = em.psd_check(pt)
    out = {
        "kind": "ppt",
        "state": state_to_json(s),
        "verdict": "PPT" if (res_rho.is_psd and res_pt.is_psd) else "NPT",
        "rho": _psd_json(res_rho),
        "rho_ta": _psd_json(res_pt),
    }
    return out


def _psd_json(res: em.PsdResult) -> dict:
    if res.is_psd:
        return {
            "psd": True,
            "pivots": [[i, str(d)] for i, d in res.pivots],
            "columns": [vector_to_json(c) for c in res.columns],
        }
    return {"psd": False, "witness": vector_to_json(res.witness),
            "witness_value": str(res.witness_value)}


def verify_ppt_certificate(data: dict) -> bool:
    """Replay a PPT certificate: rebuild both factorizations and check them."""
    s = state_from_json(data["state"])
    pt = s.partial_transpose("A")
    for key, M in (("rho", s.matrix), ("rho_ta", pt)):
        ev = data[key]
        if ev["psd"]:
            pivots = [Fraction(d) for _, d in ev["pivots"]]
            if any(d < 0 for d in pivots):
                raise CertificateInvalid(f"negative pivot in {key}")
            columns = [vector_from_json(col) for col in ev["columns"]]
            if em.weighted_gram(columns, pivots, M.rows) != M:
                raise CertificateInvalid(f"factorization of {key} does not reproduce the matrix")
        else:
            w = vector_from_json(ev["witness"])
            val = em.vdot(w, M.matvec(w))
            if not (val.im == 0 and val.re < 0 and str(val.re) == ev["witness_value"]):
                raise CertificateInvalid(f"witness for {key} does not evaluate negatively")
    claimed = data["verdict"]
    actual = "PPT" if (data["rho"]["psd"] and data["rho_ta"]["psd"]) else "NPT"
    if claimed != actual:
        raise CertificateInvalid("verdict does not match the evidence")
    return True


def sn_lower_certificate(cert, state: qs.BipartiteState) -> dict:
    out = {"kind": "sn-lower", "value": cert.value, "state": state_to_json(state)}
    out.update(cert.evidence)
    return out


def verify_sn_lower_certificate(data: dict) -> bool:
    """Replay a lower-bound certificate by reduction only.

    Checks that the witness lies in the state's range, overlaps exactly one
    basis coordinate, that the basis spans the range, that every generator
    reduces to zero modulo the stored Groebner basis, and that the witness
    power ``k <= N <= 2k`` does as well.  The Buchberger construction itself
    is not re-run.
    """
    from . import algcert as ac

    if data["value"] != data["k"]:
        raise CertificateInvalid("claimed value differs from the certified k")
    power, k = data["power"], data["k"]
    if type(k) is not int or type(power) is not int or not k <= power <= 2 * k:
        # the minors are homogeneous of degree k, and the certifier searches N <= 2k
        raise CertificateInvalid("witness power is not an integer in [k, 2k]")
    s = state_from_json(data["state"])
    m, n = s.dims
    ring = ac.PolyRing(data["variables"])
    basis = [vector_from_json(v) for v in data["basis"]]
    if len(basis) != ring.nvars:
        raise CertificateInvalid("the certificate needs one variable per basis vector")
    witness = vector_from_json(data["witness"])
    rng = em.column_space(s.matrix)
    if not rng.contains(witness):
        raise CertificateInvalid("witness is not in the state's range")
    if em.Subspace(m * n, basis).dim != len(basis) or len(basis) != em.rank(s.matrix) \
            or not all(rng.contains(v) for v in basis):
        raise CertificateInvalid("stored basis is not a basis of the range")
    overlaps = [i for i, v in enumerate(basis) if em.vdot(v, witness)]
    if len(overlaps) != 1 or ring.variables[overlaps[0]] != data["witness_variable"]:
        raise CertificateInvalid("witness overlap is not the declared single variable")
    generators = [ac.poly_from_json(ring, g) for g in data["generators"]]
    sym = ac.coordinate_matrix(m, n, ring, tuple(zip(data["variables"], basis)))
    minors = ac.minor_ideal(sym, k, exclude_vars=data.get("excluded_variables", ()))
    minor_keys = {frozenset(p.terms.items()) for p in minors}
    for g in generators:
        if frozenset(g.monic().terms.items()) not in minor_keys:
            raise CertificateInvalid("stored generator is not a minor of the range matrix")
    target = ring.var(data["witness_variable"]) ** power
    method = data.get("method", "groebner")
    if method == "linear":
        acc = ring.zero()
        for i, cof in data["cofactors"]:
            acc = acc + ac.poly_from_json(ring, cof) * generators[i]
        if acc != target:
            raise CertificateInvalid("cofactor identity does not expand to the witness power")
        return True
    gb = [ac.poly_from_json(ring, g) for g in data["groebner_basis"]]
    *reduced, witness_rest = ac.normal_forms(generators + [target], gb)
    if any(reduced):
        raise CertificateInvalid("a generator does not reduce to zero")
    if witness_rest:
        raise CertificateInvalid("witness power does not reduce to zero")
    return True


def sn_upper_certificate(cert, state: qs.BipartiteState) -> dict:
    out = {"kind": "sn-upper", "value": cert.value, "state": state_to_json(state)}
    out.update(cert.evidence)
    return out


def verify_sn_upper_certificate(data: dict) -> bool:
    s = state_from_json(data["state"])
    m, n = s.dims
    vectors = [vector_from_json(v) for v in data["vectors"]]
    weights = [Fraction(w) for w in data["weights"]]
    if any(w < 0 for w in weights):
        raise CertificateInvalid("negative weight")
    if em.weighted_gram(vectors, weights, m * n) != s.matrix:
        raise CertificateInvalid("decomposition does not reproduce the state")
    ranks = [qs.schmidt_rank(v, m, n) for v in vectors]
    if max(ranks) != data["value"]:
        raise CertificateInvalid("claimed bound does not match the decomposition ranks")
    return True


def sn_verdict_text(lower: int | None, upper: int) -> str:
    """Verdict line of an sn-verdict payload; ``lower`` is None when inconclusive."""
    if lower is None:
        return f"SN <= {upper} (lower bound inconclusive)"
    if lower == upper:
        return f"SN = {lower}"
    return f"SN in [{lower}, {upper}]"


def _state_key(data: dict) -> tuple:
    return data["dim_a"], data["dim_b"], matrix_from_json(data["matrix"])


def verify_sn_verdict(data: dict) -> bool:
    """Replay a combined lower+upper verdict payload.

    Both halves must concern the same state, and the stored verdict line
    must be the one their values imply.
    """
    lower = data.get("lower")
    upper = data["upper"]
    if lower is not None and _state_key(lower["state"]) != _state_key(upper["state"]):
        raise CertificateInvalid("lower and upper certificates concern different states")
    expected = sn_verdict_text(lower["value"] if lower is not None else None, upper["value"])
    if data["verdict"] != expected:
        raise CertificateInvalid(f"verdict {data['verdict']!r} does not match {expected!r}")
    if lower is not None:
        verify_sn_lower_certificate(lower)
    verify_sn_upper_certificate(upper)
    return True


VERIFIERS = {
    "ppt": verify_ppt_certificate,
    "sn-lower": verify_sn_lower_certificate,
    "sn-upper": verify_sn_upper_certificate,
    "sn-verdict": verify_sn_verdict,
}


def verify_certificate(data: dict) -> bool:
    kind = data.get("kind")
    if kind not in VERIFIERS:
        raise CertificateInvalid(f"unknown certificate kind {kind!r}")
    return VERIFIERS[kind](data)


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
