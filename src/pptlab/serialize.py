"""JSON round-trips for states, grid graphs, and certificates: the writers.

Exact scalars serialize as ``"p/q"`` or ``"p/q+r/s i"``, and only
hand-written grid-graph input may spell them as JSON numbers; matrices as
``{"rows", "cols", "entries"}`` with stringified entries.  A vector (edge
vector, witness, LDL* column) stores its nonzero entries as ``[index,
"p/q"]`` pairs in index order, a cofactor monomial its ``[variable,
exponent]`` pairs; their lengths come from the state or the ring.  A
state stores its ``edges`` when it has them, else its ``matrix``; an edge
state's matrix is read back by one Gram sum.  Certificates carry a
``"kind"`` tag dispatched by the verifier: ``ppt`` (LDL* evidence for the
state and its partial transpose; for a state stored as its matrix, rho's
is also the state's check) and ``sn-verdict`` (the evidence of a
Schmidt-number ``lower`` and ``upper`` bound, and the verdict line), each
storing its state once.  The halves refer to that state: the lower one
names its basis of the range (``"edges"`` or ``"range"``), the upper one
stores the Schmidt ranks of the state's edges.  Retired layouts (dense
vectors among them) fail with a request to re-run the verb that wrote them.

This module writes each layout from the exact objects (the bounds come
from :mod:`pptlab.certifier`).  The readers of states and certificates,
the sparse codec, both verifiers and the :data:`VERIFIERS` table they are
dispatched through are what ``verify`` runs, so they live in the replay
kernel :mod:`pptlab.replay`, and this module imports them from there
under their names.  Reading a step imports :mod:`pptlab.extender`, and
reading a grid graph :mod:`pptlab.constructions`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import replay as rp
from .replay import (VERIFIERS, CertificateInvalid, MalformedData, load,  # noqa: F401
                     matrix_from_json, ppt_state_from_json, sn_verdict_text,
                     state_from_json, vector_from_json, verify_certificate,
                     verify_ppt_certificate, verify_sn_lower_certificate,
                     verify_sn_upper_certificate)

if TYPE_CHECKING:
    from . import qstates as qs


def matrix_to_json(M: rp.ExactMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[rp.format_scalar(x) for x in M.row(i)] for i in range(M.rows)],
    }


def vector_to_json(v: rp.Vector) -> list:
    """The nonzero entries of ``v`` as ``[index, "p/q"]`` pairs."""
    return rp._sparse_to_json(v, rp.format_scalar)


def state_to_json(s: rp.BipartiteState) -> dict:
    """A state as JSON: its ``edges`` when it has them, else its ``matrix``."""
    out = {"kind": "state", "dim_a": s.dim_a, "dim_b": s.dim_b, "label": s.label}
    if s.edges is None:
        out["matrix"] = matrix_to_json(s.matrix)
    else:
        out["edges"] = [{"name": e.name, "vector": vector_to_json(e.vec),
                         "weight": rp.format_scalar(e.weight)} for e in s.edges]
    return out


def step_from_json(data: dict, label: str) -> qs.ExtensionStep:
    """Parse one extension step: ``kind``, ``side`` (default "A"), the
    kind's parameters, vectors as lists of every entry (a step names no
    dimensions) and matrices as objects, and the optional ``names`` of the
    remainder's rank-one parts."""
    from . import extender as ex
    from . import qstates as qs

    kind = data.get("kind")
    parameters = {key: matrix_from_json(data[key]) if isinstance(data[key], dict)
                  else tuple(rp.parse_scalar(x) for x in data[key]) for key in ex.step_keys(kind)}
    names = data.get("names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise ValueError("step names must be a list of strings")
    return qs.ExtensionStep(kind, data.get("side", "A"), parameters, label,
                            None if names is None else tuple(names))


def graph_to_json(g) -> dict:
    """A :class:`constructions.GridGraph` as JSON."""
    solid, dashed = ([{"sites": [list(s) for s in e.sites], "weight": rp.format_scalar(e.weight)}
                      for e in g.edges if e.kind == kind] for kind in ("solid", "dashed"))
    return {"dims": [g.dim_a, g.dim_b], "solid": solid, "dashed": dashed}


def graph_from_json(data: dict):
    """The :class:`constructions.GridGraph` of :func:`graph_to_json`, whose
    ``dims`` must be two ints of at least 1."""
    from . import constructions as co  # only graph input builds a grid state

    m, n = data["dims"]
    if not all(type(d) is int and d >= 1 for d in (m, n)):
        raise ValueError(f"dims {[m, n]!r} are not two ints of at least 1")
    solid = [(e["sites"], Fraction(e["weight"])) for e in data.get("solid", ())]
    dashed = [(e["sites"], Fraction(e["weight"])) for e in data.get("dashed", ())]
    return co.grid_graph(m, n, solid=solid, dashed=dashed)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def ppt_certificate(s: rp.BipartiteState) -> dict:
    """Exact PPT certificate: LDL* pivots for the state and for its partial
    transpose (or a negativity witness).  The LDL* of rho is also the check
    of a matrix state read by :func:`ppt_state_from_json`
    (:func:`replay.state_ldl`)."""
    res_rho = rp.state_ldl(s.matrix, s.label)
    res_pt = rp.psd_check(s.partial_transpose("A"))
    return {
        "kind": "ppt",
        "state": state_to_json(s),
        "verdict": "PPT" if res_pt.is_psd else "NPT",
        "rho": _psd_json(res_rho),
        "rho_ta": _psd_json(res_pt),
    }


def _psd_json(res: rp.PsdResult) -> dict:
    if res.is_psd:
        return {
            "psd": True,
            "pivots": [[i, rp.format_scalar(d)] for i, d in res.pivots],
            "columns": [vector_to_json(c) for c in res.columns],
        }
    return {"psd": False, "witness": vector_to_json(res.witness),
            "witness_value": rp.format_scalar(res.witness_value)}


def _sn_lower_json(lower) -> dict:
    """The lower half that :func:`replay._read_sn_lower` reads."""
    return {"value": lower.value,
            "witness": vector_to_json(lower.witness),
            "witness_variable": lower.witness_variable,
            "variables": list(lower.variables),
            "basis": lower.basis,
            "power": lower.power,
            "minors": [[list(rows), list(cols), _cofactor_json(cof)]
                       for rows, cols, cof in lower.minors]}


def _cofactor_json(terms: dict) -> dict:
    """The ``{"terms": [[monomial, "p/q"], ...]}`` of :func:`replay._cofactor`, in
    ascending grevlex order, each monomial its ``[variable, exponent]`` pairs."""
    from . import minors as mi

    return {"terms": [[rp._sparse_to_json(m, int), rp.format_scalar(c)]
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
