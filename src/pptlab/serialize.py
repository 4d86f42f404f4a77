"""JSON round-trips for states, grid graphs, and certificates.

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
stores the Schmidt ranks of the state's edges.  Each half is written
here, from the exact bounds the certifier returns, next to the reader that
replays it, the lower one after the certifier's setup
(:func:`minors.lower_bound_setup`).  Retired layouts (dense vectors among
them) fail with a request to re-run the verb that wrote them.  Replaying a
lower half imports the replay kernel :mod:`pptlab.minors` when it runs,
never the certifier :mod:`pptlab.algcert`; reading a grid graph imports
:mod:`pptlab.constructions`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import exactmat as em
from . import qstates as qs
from .errors import DimensionMismatch, NotPsd, PptlabError


class CertificateInvalid(PptlabError):
    """A certificate failed its replay."""


class MalformedData(PptlabError):
    """Stored JSON without the fields and types its reader expects."""


class RetiredLayout(MalformedData):
    """Stored JSON in a layout that an earlier version wrote."""


def matrix_to_json(M: em.ExactMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[em.format_scalar(x) for x in M.row(i)] for i in range(M.rows)],
    }


def matrix_from_json(data: dict) -> em.ExactMatrix:
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if not (type(rows) is type(cols) is int and len(entries) == rows and (rows or not cols)
            and all(isinstance(row, list) and len(row) == cols for row in entries)):
        raise ValueError(f"matrix entries are not {rows!r} rows of {cols!r} entries each")
    return em.ExactMatrix([[em.parse_scalar(x) for x in row] for row in entries])


def vector_to_json(v: em.Vector) -> list:
    """The nonzero entries of ``v`` as ``[index, "p/q"]`` pairs."""
    return _sparse_to_json(v, em.format_scalar)


def vector_from_json(data, length: int) -> em.Vector:
    """The vector of ``length`` entries that :func:`vector_to_json` wrote."""
    return tuple(_sparse_from_json(data, length, em.parse_scalar, em.ZERO))


def _sparse_to_json(v, value) -> list:
    """``[index, value(x)]`` for each nonzero entry ``x`` of ``v``, in index order."""
    return [[i, value(x)] for i, x in enumerate(v) if x]


def _sparse_from_json(data, length: int, parse, zero) -> list:
    """The ``length`` entries whose nonzero ones ``data`` lists as
    ``[index, value]`` pairs, ``zero`` elsewhere: int indices increasing
    strictly below ``length``, values that ``parse`` reads as nonzero.  A
    bare string entry is a vector in the retired dense layout."""
    if not isinstance(data, list):
        raise TypeError(f"{data!r} is not a list of [index, value] pairs")
    out, last = [zero] * length, -1
    for pair in data:
        if isinstance(pair, str):
            raise RetiredLayout("a vector stored densely")
        index, value = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
        x = parse(value) if type(index) is int and last < index < length else None
        if not x:
            raise ValueError(f"entry {pair!r} is not [index, nonzero value] with an index "
                             f"above {last} and below {length}")
        out[index], last = x, index
    return out


def _rational(text) -> Fraction:
    """A stored rational: a ``"p/q"`` string, never a JSON number or bool."""
    if not isinstance(text, str):
        raise TypeError(f"{text!r} is not a rational string")
    return Fraction(text)


def state_to_json(s: qs.BipartiteState) -> dict:
    """A state as JSON: its ``edges`` when it has them, else its ``matrix``."""
    out = {"kind": "state", "dim_a": s.dim_a, "dim_b": s.dim_b, "label": s.label}
    if s.edges is None:
        out["matrix"] = matrix_to_json(s.matrix)
    else:
        out["edges"] = [{"name": e.name, "vector": vector_to_json(e.vec),
                         "weight": em.format_scalar(e.weight)} for e in s.edges]
    return out


def state_from_json(data: dict) -> qs.BipartiteState:
    """Build a stored state from its edges (one Gram sum) or its matrix.
    Malformed JSON raises :class:`MalformedData`, and a retired layout
    :class:`RetiredLayout`; the checks of the constructor run outside that
    conversion, so a fault in them keeps its own exception."""
    return qs.BipartiteState(*_state_fields(data))


def ppt_state_from_json(data: dict) -> qs.BipartiteState:
    """The stored state a ppt certificate is made or replayed for: as
    :func:`state_from_json`, but a matrix state is checked here for its
    shape only.  The certificate's LDL* of rho checks it, once:
    :func:`ppt_certificate` computes it, and :func:`verify_ppt_certificate`
    replays its Gram sum; each raises :class:`NotPsd` when rho is not PSD."""
    parts = _state_fields(data)
    dim_a, dim_b, matrix, label = parts[:4]
    if matrix is None:  # edges: a Gram sum of nonnegative weights is PSD
        return qs.BipartiteState(*parts)
    if matrix.shape != (dim_a * dim_b, dim_a * dim_b):
        raise DimensionMismatch("matrix size does not match local dimensions")
    return qs.BipartiteState._raw(dim_a, dim_b, matrix, label)


def _state_fields(data: dict) -> tuple:
    """The constructor arguments of a stored state (:func:`_state_parts`),
    with a retired layout named as such."""
    try:
        return _parsed("state", _state_parts, data)
    except RetiredLayout as exc:
        raise RetiredLayout(f"state in a retired layout ({exc}): "
                            "re-run build to replace it") from None


def _state_parts(data: dict) -> tuple:
    if isinstance(data, dict) and "matrix" in data and "edges" in data:
        raise RetiredLayout("both matrix and edges")
    dim_a, dim_b = data["dim_a"], data["dim_b"]
    if type(dim_a) is not int or type(dim_b) is not int:
        raise TypeError("state dimensions are not integers")
    if "edges" not in data:
        return dim_a, dim_b, matrix_from_json(data["matrix"]), data.get("label", "")
    edges = [qs.NamedVector(e["name"], vector_from_json(e["vector"], dim_a * dim_b),
                            _rational(e["weight"])) for e in data["edges"]]
    if not all(isinstance(e.name, str) for e in edges):
        raise TypeError("edge names are not strings")
    return dim_a, dim_b, None, data.get("label", ""), edges


def step_from_json(data: dict, label: str) -> qs.ExtensionStep:
    """Parse one extension step: ``kind``, ``side`` (default "A"), the
    kind's parameters, vectors as lists of every entry (a step names no
    dimensions) and matrices as objects, and the optional ``names`` of the
    remainder's rank-one parts."""
    from . import extender as ex

    kind = data.get("kind")
    parameters = {key: matrix_from_json(data[key]) if isinstance(data[key], dict)
                  else tuple(em.parse_scalar(x) for x in data[key]) for key in ex.step_keys(kind)}
    names = data.get("names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise ValueError("step names must be a list of strings")
    return qs.ExtensionStep(kind, data.get("side", "A"), parameters, label,
                            None if names is None else tuple(names))


def graph_to_json(g) -> dict:
    """A :class:`constructions.GridGraph` as JSON."""
    solid = [{"sites": [list(s) for s in e.sites], "weight": em.format_scalar(e.weight)}
             for e in g.edges if e.kind == "solid"]
    dashed = [{"sites": [list(s) for s in e.sites], "weight": em.format_scalar(e.weight)}
              for e in g.edges if e.kind == "dashed"]
    return {"dims": [g.dim_a, g.dim_b], "solid": solid, "dashed": dashed}


def graph_from_json(data: dict):
    """The :class:`constructions.GridGraph` of :func:`graph_to_json`."""
    from . import constructions as co  # only graph input builds a grid state

    m, n = data["dims"]
    solid = [(e["sites"], Fraction(e["weight"])) for e in data.get("solid", ())]
    dashed = [(e["sites"], Fraction(e["weight"])) for e in data.get("dashed", ())]
    return co.grid_graph(m, n, solid=solid, dashed=dashed)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def ppt_certificate(s: qs.BipartiteState) -> dict:
    """Exact PPT certificate: LDL* pivots for the state and for its partial
    transpose (or a negativity witness).  The LDL* of rho is also the check
    of a matrix state read by :func:`ppt_state_from_json`
    (:func:`qstates.state_ldl`)."""
    res_rho = qs.state_ldl(s.matrix, s.label)
    res_pt = em.psd_check(s.partial_transpose("A"))
    return {
        "kind": "ppt",
        "state": state_to_json(s),
        "verdict": "PPT" if res_pt.is_psd else "NPT",
        "rho": _psd_json(res_rho),
        "rho_ta": _psd_json(res_pt),
    }


def _psd_json(res: em.PsdResult) -> dict:
    if res.is_psd:
        return {
            "psd": True,
            "pivots": [[i, em.format_scalar(d)] for i, d in res.pivots],
            "columns": [vector_to_json(c) for c in res.columns],
        }
    return {"psd": False, "witness": vector_to_json(res.witness),
            "witness_value": em.format_scalar(res.witness_value)}


def verify_ppt_certificate(data: dict) -> bool:
    """Replay a PPT certificate: rebuild both factorizations and check them.
    The Gram sum of rho's factorization proves rho PSD, so it is also the
    check of a matrix state (:func:`ppt_state_from_json`), and a valid
    negativity witness for rho raises :class:`NotPsd`."""
    s = ppt_state_from_json(_parsed("certificate", lambda d: d["state"], data))
    evidence, claimed = _parsed("certificate", _read_ppt, data, s.matrix.rows)
    for key, M in (("rho", s.matrix), ("rho_ta", s.partial_transpose("A"))):
        psd, *ev = evidence[key]
        if psd:
            pivots, columns = ev
            if any(d < 0 for d in pivots):
                raise CertificateInvalid(f"negative pivot in {key}")
            if em.weighted_gram(columns, pivots, M.rows) != M:
                raise CertificateInvalid(f"factorization of {key} does not reproduce the matrix")
        else:
            w, value = ev
            val = em.vdot(w, M.matvec(w))
            if not (val.im == 0 and val.re < 0 and em.format_scalar(val.re) == value):
                raise CertificateInvalid(f"witness for {key} does not evaluate negatively")
            if key == "rho":
                raise NotPsd(f"state {s.label!r} is not PSD; witness value {value}")
    if claimed != ("PPT" if evidence["rho_ta"][0] else "NPT"):
        raise CertificateInvalid("verdict does not match the evidence")
    return True


def _read_ppt(data: dict, n: int) -> tuple:
    """``{key: (True, pivots, columns) | (False, witness, value)}`` for
    ``rho`` and ``rho_ta`` (vectors of ``n`` entries), and the verdict."""
    evidence = {}
    for key in ("rho", "rho_ta"):
        ev = data[key]
        if type(ev["psd"]) is not bool:
            raise TypeError(f"{key} psd is not true or false")
        if ev["psd"]:
            evidence[key] = (True, [_rational(d) for _, d in ev["pivots"]],
                             [vector_from_json(col, n) for col in ev["columns"]])
        else:
            evidence[key] = (False, vector_from_json(ev["witness"], n), ev["witness_value"])
    return evidence, data["verdict"]


def verify_sn_lower_certificate(half: dict, s: qs.BipartiteState) -> bool:
    """Replay the lower half of an sn-verdict on its state: an indexed
    cofactor identity proving ``SN(s) >= value``.

    Checks the power ``k <= N <= 2k`` with ``k = value`` and shape-checks
    every ``[rows, cols, cofactor]`` of ``minors`` (``k`` strictly
    increasing in-range indices, no pair twice, cofactors of degree
    ``N - k``).  The certifier's setup (:func:`minors.lower_bound_setup`)
    checks the named basis and the witness, which must overlap the declared
    variable.  Then only the listed determinants of the coordinate matrix
    ``M`` are computed and ``sum cofactor * det M[rows, cols] = x_w^N`` is
    checked exactly (:func:`minors.minor_identity_holds`, the check
    ``certify-sn`` runs on what it writes).  Nothing is enumerated.
    """
    from . import minors as mi

    m, n = s.dims
    source, variables, witness, witness_variable, power, pairs, cofactors = \
        _parsed("certificate", _read_sn_lower, half, m, n)
    try:
        sym, overlapped = mi.lower_bound_setup(s, em.column_space(s.matrix), source,
                                               variables, witness)
    except PptlabError as exc:
        raise CertificateInvalid(str(exc)) from None
    if overlapped != witness_variable:
        raise CertificateInvalid("witness overlap is not the declared single variable")
    if not mi.minor_identity_holds(sym, power, witness_variable, pairs, cofactors):
        raise CertificateInvalid("cofactor identity does not expand to the witness power")
    return True


def _read_sn_lower(half: dict, m: int, n: int) -> tuple:
    """The basis source, variables, witness, witness variable, power,
    minor pairs and cofactor terms of the lower half of an sn-verdict on an
    ``m x n`` state."""
    k, power = half["value"], half["power"]
    if type(k) is not int or type(power) is not int or not k <= power <= 2 * k:
        # the minors are homogeneous of degree k, and the certifier searches N <= 2k
        raise CertificateInvalid("witness power is not an integer in [k, 2k]")
    if half["basis"] not in ("edges", "range"):
        raise CertificateInvalid('basis is neither "edges" nor "range"')
    variables = half["variables"]
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)):
        raise CertificateInvalid("variables is not a list of names")
    pairs, cofactors = _indexed_minors(half["minors"], len(variables), k, power - k, m, n)
    return (half["basis"], variables, vector_from_json(half["witness"], m * n),
            half["witness_variable"], power, pairs, cofactors)


def _sn_lower_json(lower) -> dict:
    """The lower half that :func:`_read_sn_lower` reads."""
    return {"value": lower.value,
            "witness": vector_to_json(lower.witness),
            "witness_variable": lower.witness_variable,
            "variables": list(lower.variables),
            "basis": lower.basis,
            "power": lower.power,
            "minors": [[list(rows), list(cols), _cofactor_json(cof)]
                       for rows, cols, cof in lower.minors]}


def _parsed(what: str, parse, *args):
    """``parse(*args)``, with the exceptions of malformed JSON raised as
    :class:`MalformedData`.  Only reading stored fields goes through here,
    so the same exceptions from a replay keep their tracebacks."""
    try:
        return parse(*args)
    except (KeyError, IndexError, ValueError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise MalformedData(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def _indexed_minors(entries, nvars: int, k: int, degree: int, m: int, n: int) -> tuple:
    """The ``(rows, cols)`` pairs and cofactor terms of shape-checked ``minors``."""
    if not isinstance(entries, list):
        raise CertificateInvalid("minors is not a list of [rows, cols, cofactor]")
    pairs, cofactors = [], []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise CertificateInvalid(f"minor entry {entry!r} is not [rows, cols, cofactor]")
        rows, cols, cof = entry
        for idx, bound in ((rows, m), (cols, n)):
            if not (isinstance(idx, list) and len(idx) == k and all(type(i) is int for i in idx)
                    and idx == sorted(set(idx)) and all(0 <= i < bound for i in idx)):
                raise CertificateInvalid(f"minor indices {idx!r} are not {k} strictly "
                                         f"increasing indices below {bound}")
        pairs.append((tuple(rows), tuple(cols)))
        cofactors.append(_cofactor(nvars, cof, degree))
    if len(set(pairs)) != len(pairs):
        raise CertificateInvalid("a minor (rows, cols) is listed twice")
    return pairs, cofactors


def _cofactor_json(terms: dict) -> dict:
    """The ``{"terms": [[monomial, "p/q"], ...]}`` of :func:`_cofactor`, in
    ascending grevlex order, each monomial its ``[variable, exponent]`` pairs."""
    from . import minors as mi

    return {"terms": [[_sparse_to_json(m, int), em.format_scalar(c)]
                      for m, c in sorted(terms.items(), key=lambda t: mi._grevlex_key(t[0]))]}


def _cofactor(nvars: int, data, degree: int) -> dict:
    """The terms of a stored ``{"terms": [[monomial, "p/q"], ...]}`` of one ``degree``."""
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list):
        raise CertificateInvalid("cofactor has no term list")
    out = {}
    for term in terms:
        monomial, c = term if isinstance(term, list) and len(term) == 2 else (None, None)
        exps = tuple(_sparse_from_json(monomial, nvars,
                                       lambda e: e if type(e) is int and e > 0 else 0, 0))
        if not isinstance(c, str) or sum(exps) != degree or exps in out:
            raise CertificateInvalid(f"cofactor term {term!r} is not a new monomial of "
                                     f"degree {degree} and a rational string")
        out[exps] = Fraction(c)
    return out


def verify_sn_upper_certificate(half: dict, s: qs.BipartiteState) -> bool:
    """Replay the upper half of an sn-verdict on its state, the conic sum of
    its edges: ``value`` is the largest of the edges' Schmidt ranks, as stored."""
    m, n = s.dims
    value, stored_ranks = _parsed("certificate", lambda h: (h["value"], h["schmidt_ranks"]), half)
    if type(value) is not int:
        raise CertificateInvalid("upper bound value is not an integer")
    if not s.edges:
        raise CertificateInvalid("the state has no edge decomposition")
    ranks = [qs.schmidt_rank(e.vec, m, n) for e in s.edges]
    if max(ranks) != value:
        raise CertificateInvalid("claimed bound does not match the decomposition ranks")
    if stored_ranks != ranks or any(type(r) is not int for r in stored_ranks):
        raise CertificateInvalid("stored Schmidt ranks are not the edges' ranks")
    return True


def _sn_upper_json(upper) -> dict:
    """The upper half that :func:`verify_sn_upper_certificate` reads."""
    return {"value": upper.value, "schmidt_ranks": list(upper.schmidt_ranks)}


def sn_verdict_text(lower: int | None, upper: int) -> str:
    """Verdict line of an sn-verdict payload; ``lower`` is None when inconclusive."""
    if lower is None:
        return f"SN <= {upper} (lower bound inconclusive)"
    if lower == upper:
        return f"SN = {lower}"
    return f"SN in [{lower}, {upper}]"


def sn_verdict_certificate(state: qs.BipartiteState, lower, upper) -> dict:
    """The sn-verdict of ``state``: the state once, the evidence of each
    bound under ``lower`` and ``upper`` with its ``value``, and the verdict
    line.  ``lower`` is an ``algcert.LowerBound``, or an
    ``algcert.Inconclusive`` whose reason is stored as ``lower_inconclusive``;
    ``upper`` is an ``algcert.UpperBound``."""
    proven = not hasattr(lower, "reason")
    half = {"lower": _sn_lower_json(lower)} if proven else {"lower_inconclusive": lower.reason}
    return {"kind": "sn-verdict", "state": state_to_json(state), **half,
            "upper": _sn_upper_json(upper),
            "verdict": sn_verdict_text(lower.value if proven else None, upper.value)}


def verify_sn_verdict(data: dict) -> bool:
    """Replay an sn-verdict: parse the one stored state, replay each half on
    it (:func:`verify_sn_lower_certificate` unless the lower bound is
    inconclusive, :func:`verify_sn_upper_certificate`), and check that the
    stored verdict line is the one their values imply."""
    lower, upper, stored = _parsed("certificate", _read_sn_verdict, data)
    s = state_from_json(stored)
    if lower is not None:
        verify_sn_lower_certificate(lower, s)
    verify_sn_upper_certificate(upper, s)
    return True


def _read_sn_verdict(data: dict) -> tuple:
    """The lower (None when inconclusive) and upper halves and the stored
    state, with the stored verdict line checked against their values."""
    lower, upper = data.get("lower"), data["upper"]
    expected = sn_verdict_text(lower["value"] if lower is not None else None, upper["value"])
    if data["verdict"] != expected:
        raise CertificateInvalid(f"verdict {data['verdict']!r} does not match {expected!r}")
    return lower, upper, data["state"]


VERIFIERS = {
    "ppt": verify_ppt_certificate,
    "sn-verdict": verify_sn_verdict,
}


def verify_certificate(data: dict) -> bool:
    """Replay ``data`` by its ``kind``.  A certificate that does not parse
    fails with :class:`CertificateInvalid` like one whose replay fails."""
    kind = data.get("kind") if isinstance(data, dict) else None
    try:
        if kind in ("sn-lower", "sn-upper") or kind == "sn-verdict" and "state" not in data:
            # a standalone half (the generator/Groebner payloads among them), or
            # a verdict that stored its state in each half
            raise RetiredLayout(kind)
        if not isinstance(kind, str) or kind not in VERIFIERS:
            raise CertificateInvalid(f"unknown certificate kind {kind!r}")
        return VERIFIERS[kind](data)
    except RetiredLayout:  # also dense vectors, or a state with both matrix and edges
        verb = "ppt-check" if kind == "ppt" else "certify-sn"
        raise CertificateInvalid(f"{kind} certificate in a retired layout: "
                                 f"re-run {verb} to replace it") from None
    except MalformedData as exc:
        raise CertificateInvalid(str(exc)) from None


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
