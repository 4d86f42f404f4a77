"""JSON round-trips for states and certificates: the writers.

Exact scalars serialize as ``"p/q"`` or ``"p/q+r/s i"``, and every reader
refuses them as JSON numbers; matrices as ``{"rows", "cols", "entries"}``
with stringified entries.  A vector (edge vector, NPT witness, LDL* column)
stores its nonzero entries as ``[index, "p/q"]`` pairs in index order, a
cofactor monomial its ``[variable, exponent]`` pairs; their lengths come
from the state or the ring.  A state stores its ``edges`` when it has
them, else its ``matrix``, never both; an edge state's matrix is read back
by one Gram sum.  Certificates carry a ``"kind"`` tag dispatched by the
verifier: ``ppt`` (LDL* evidence for the state and its partial transpose;
for a state stored as its matrix, rho's is also the state's check) and
``sn-verdict`` (the evidence of a Schmidt-number ``lower`` and ``upper``
bound, and the verdict line), each storing its state once.  The halves
refer to that state: the lower one names its basis of the range
(``"edges"`` or ``"range"``), the upper one stores the Schmidt ranks of
the state's edges.  Each writer writes exactly these keys, and any other
layout is malformed (one field reader, :func:`replay._fields`, refuses by
name a key an object's layout does not list), or of an unknown kind.

This module holds the writers (the bounds come from :mod:`pptlab.certifier`),
the writers' half of the sparse codec and the builders' state reader, which
factors a matrix state.  The other readers, the ppt verifier and
:data:`VERIFIERS` are the replay kernel's, imported from there under their
names; the two sn-verdict halves, which ``pptbench/tracer.py`` wraps here
by name, are forwards that import :mod:`pptlab.minors` when called, so
that ``ppt-check``, ``build`` and ``extend`` never compile it.  A grid
graph is read into a state by :func:`constructions.graph_state`, an
extension step by :func:`extender.step_from_json`, next to the step kinds'
keys.
"""

from __future__ import annotations

from . import replay as rp
from .replay import (VERIFIERS, CertificateInvalid, MalformedData, load,  # noqa: F401
                     matrix_from_json, read_state, sn_verdict_text, vector_from_json,
                     verify_certificate, verify_ppt_certificate)


def state_from_json(data: dict) -> rp.BipartiteState:
    """The builders' state reader: :func:`replay.read_state`, then a matrix state's LDL*."""
    from . import exactmat as em
    state = rp.read_state(data)
    if state.edges is None:
        em.state_ldl(state.matrix, state.label)
    return state


def verify_sn_lower_certificate(half: dict, s: rp.BipartiteState) -> bool:
    from .minors import verify_sn_lower_certificate
    return verify_sn_lower_certificate(half, s)


def verify_sn_upper_certificate(half: dict, s: rp.BipartiteState) -> bool:
    from .minors import verify_sn_upper_certificate
    return verify_sn_upper_certificate(half, s)


def matrix_to_json(M: rp.ExactMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[rp.format_scalar(x) for x in M.row(i)] for i in range(M.rows)],
    }


def vector_to_json(v: rp.Vector) -> list:
    """The nonzero entries of ``v`` as ``[index, "p/q"]`` pairs."""
    return _sparse_to_json(v, rp.format_scalar)


def _sparse_to_json(v, value) -> list:
    """``[index, value(x)]`` for each nonzero entry ``x`` of ``v``, in index order."""
    return [[i, value(x)] for i, x in enumerate(v) if x]


def state_to_json(s: rp.BipartiteState) -> dict:
    """A state as JSON: its ``edges`` when it has them, else its ``matrix``."""
    out = {"kind": "state", "dim_a": s.dim_a, "dim_b": s.dim_b, "label": s.label}
    if s.edges is None:
        out["matrix"] = matrix_to_json(s.matrix)
    else:
        out["edges"] = [{"name": e.name, "vector": vector_to_json(e.vec),
                         "weight": rp.format_scalar(e.weight)} for e in s.edges]
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def ppt_certificate(s: rp.BipartiteState) -> dict:
    """Exact PPT certificate: LDL* pivots for the state and for its partial
    transpose (or a negativity witness).  The LDL* of rho is also the check
    of a matrix state read by :func:`replay.read_state`."""
    from . import exactmat as em
    res_rho = em.state_ldl(s.matrix, s.label)
    res_pt = em.psd_check(s.partial_transpose("A"))
    return {
        "kind": "ppt",
        "state": state_to_json(s),
        "verdict": "PPT" if res_pt.is_psd else "NPT",
        "rho": _psd_json(res_rho),
        "rho_ta": _psd_json(res_pt),
    }


def _psd_json(res) -> dict:  # res: an exactmat.PsdResult
    if res.is_psd:
        return {
            "psd": True,
            "pivots": [[i, rp.format_scalar(d)] for i, d in res.pivots],
            "columns": [vector_to_json(c) for c in res.columns],
        }
    return {"psd": False, "witness": vector_to_json(res.witness),
            "witness_value": rp.format_scalar(res.witness_value)}


def _sn_lower_json(lower) -> dict:
    """The lower half that :func:`minors._read_sn_lower` reads."""
    return {"value": lower.value,
            "witness_variable": lower.witness_variable,
            "variables": list(lower.variables),
            "basis": lower.basis,
            "power": lower.power,
            "minors": [[list(rows), list(cols), _cofactor_json(cof)]
                       for rows, cols, cof in lower.minors]}


def _cofactor_json(terms: dict) -> dict:
    """The ``{"terms": [[monomial, "p/q"], ...]}`` of :func:`minors._cofactor`, in
    ascending grevlex order, each monomial its ``[variable, exponent]`` pairs."""
    from . import minors as mi

    return {"terms": [[_sparse_to_json(m, int), rp.format_scalar(c)]
                      for m, c in sorted(terms.items(), key=lambda t: mi._grevlex_key(t[0]))]}


def _sn_upper_json(upper) -> dict:
    """The upper half that :func:`verify_sn_upper_certificate` reads."""
    return {"value": upper.value, "schmidt_ranks": list(upper.schmidt_ranks)}


def sn_verdict_certificate(state: rp.BipartiteState, lower, upper) -> dict:
    """The sn-verdict of ``state``: the state once, the evidence of each
    bound under ``lower`` and ``upper`` with its ``value``, and the verdict
    line.  ``lower`` is a ``certifier.LowerBound``, or a
    ``certifier.Inconclusive`` whose reason is stored as ``lower_inconclusive``;
    ``upper`` is a ``certifier.UpperBound``."""
    proven = not hasattr(lower, "reason")
    half = {"lower": _sn_lower_json(lower)} if proven else {"lower_inconclusive": lower.reason}
    return {"kind": "sn-verdict", "state": state_to_json(state), **half,
            "upper": _sn_upper_json(upper),
            "verdict": sn_verdict_text(lower.value if proven else None, upper.value)}
