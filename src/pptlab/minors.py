"""The sn-verdict replay: the range, packed monomials, coordinate matrices and minors.

An sn-verdict's lower half is an identity ``sum_i c_i det M[rows_i,
cols_i] = x_w^N`` over minors of the coordinate matrix ``M`` (``Psi_ij =
sum_l v_l[ij] x_l``) of any real range basis, ``x_w`` any one coordinate
(:func:`lower_bound_setup` holds the proof); its upper half stores the
Schmidt ranks of the state's edges.  :func:`verify_sn_verdict` replays
both, with what checking such an identity needs, and nothing of the
search that finds one: the range, read once from the state's edges, with
the rule that picks its basis (:func:`range_basis`), :class:`_Packing` (a
monomial as one int, in grevlex order), :func:`coordinate_matrix` (``M``
as scaled integer rows of packed linear forms) and
:func:`minor_identity_holds` (the listed determinants only, by Laplace
expansion), which the certifier shares with the setup.  It imports only
the replay kernel and :mod:`pptlab.errors`; the kernel loads it only to
replay an sn-verdict, so a ppt ``verify`` never compiles it.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Sequence

from . import replay as rp
from .errors import (DimensionMismatch, MonomialOverflow, NotARealRangeBasis, PptlabError,
                     PreconditionViolation)
from .replay import CertificateInvalid


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

def _grevlex_key(exps: tuple):  # the order :class:`_Packing` encodes
    return (sum(exps), tuple(-e for e in reversed(exps)))


class _Packing:
    """Monomials of an ``nvars``-variable ring packed into one Python int.

    Fields, most significant first: ``[degree | MAX-e_{n-1} | ... | MAX-e_0]``,
    each ``width`` bits with the top bit of every exponent field spare (the
    Groebner oracle's divisibility test reads it).  Integer order is then
    grevlex, the product of ``a`` and ``b`` is ``a + b - one`` and the
    quotient ``a / b`` is ``a - b + one``.  Every packed monomial has degree
    at most ``max``, so no field can wrap: packing raises
    :class:`MonomialOverflow` instead (:meth:`check_degree`).
    """

    __slots__ = ("nvars", "width", "max", "one")

    def __init__(self, nvars: int):
        # up to 32 bytes per monomial: four-byte fields for small rings, one
        # byte per field (degrees up to 127) from 16 variables on
        width = 8 * min(4, max(1, 32 // (nvars + 1)))
        self.nvars = nvars
        self.width = width
        self.max = (1 << (width - 1)) - 1
        self.one = sum(self.max << (width * i) for i in range(nvars))

    def pack(self, exps: tuple) -> int:
        if len(exps) != self.nvars or min(exps, default=0) < 0:
            raise DimensionMismatch(f"exponent vector {exps} does not fit {self.nvars} variables")
        key = self.check_degree(sum(exps))
        for e in reversed(exps):
            key = (key << self.width) | (self.max - e)
        return key

    def unit(self, l: int) -> int:
        """Variable ``l`` as a packed factor: ``monomial * x_l = monomial + unit(l)``."""
        return (1 << (self.width * self.nvars)) - (1 << (self.width * l))

    def check_degree(self, deg: int) -> int:
        if deg > self.max:
            raise MonomialOverflow(f"degree {deg} exceeds the packed limit {self.max} "
                                   f"of a {self.nvars}-variable ring")
        return deg


# ---------------------------------------------------------------------------
# coordinate matrices and their minors
# ---------------------------------------------------------------------------

class SymbolicRangeMatrix(NamedTuple):
    """Coordinate matrix ``Psi_ij = <ij|psi(x)> = sum_l v_l[ij] x_l`` of a
    parametrized range vector, as the packed integer rows its minors are
    computed on.

    ``basis`` holds the (name, vector) pairs backing each of the
    ``variables``, in their order.  ``rows[i]`` lists the nonzero entries
    of row ``i`` times ``scales[i]``, the lcm of the row's denominators, as
    ``(column, [(packed x_l - one, int coefficient)])`` in variable order; a
    minor of the scaled rows is the minor of ``Psi`` times the product of
    their scales.
    """

    dim_a: int
    dim_b: int
    variables: tuple        # tuple[str, ...]
    basis: tuple            # tuple[(name, rp.Vector), ...]
    packing: _Packing
    rows: tuple
    scales: tuple


def coordinate_matrix(m: int, n: int, basis: Sequence) -> SymbolicRangeMatrix:
    """Coordinate matrix ``Psi_ij = sum_l v_l[ij] x_l`` of ``(name, vector)`` pairs.

    Basis entries must be real: the coordinate ring is Q.
    """
    for _, v in basis:
        if any(x.im != 0 for x in v):
            raise NotARealRangeBasis("the basis is not real: the coordinate ring is Q")
    P = _Packing(len(basis))
    units = [P.unit(l) for l in range(P.nvars)]
    rows, scales = [], []
    for i in range(m):
        entries = [(j, [(units[l], v[i * n + j].re) for l, (_, v) in enumerate(basis)
                        if v[i * n + j]]) for j in range(n)]
        scale = math.lcm(*(c.denominator for _, entry in entries for _, c in entry))
        rows.append(tuple((j, [(unit, c.numerator * (scale // c.denominator)) for unit, c in entry])
                          for j, entry in entries if entry))
        scales.append(scale)
    return SymbolicRangeMatrix(m, n, tuple(name for name, _ in basis), tuple(basis), P,
                               tuple(rows), tuple(scales))


def range_basis(s: rp.BipartiteState) -> tuple:
    """``(rng, source, vectors)``: the span of the edge vectors, which (every
    weight being positive) is the range of their Gram sum ``s.matrix``,
    canonical basis and all; and its default basis: the edges (``"edges"``)
    when there are ``rng.dim``, else the canonical one (``"range"``)."""
    if not s.edges:
        raise PreconditionViolation("the state has no edge decomposition")
    vectors = tuple(e.vec for e in s.edges)
    rng = rp.Subspace(s.dim_a * s.dim_b, vectors)
    return (rng, "edges", vectors) if len(vectors) == rng.dim else (rng, "range", rng.basis)


def lower_bound_setup(s: rp.BipartiteState, basis: str | None, variables) -> tuple:
    """``(M, source)``: the coordinate matrix of the basis ``source`` of the
    range of ``s`` that ``basis`` names (``"range"``, ``"edges"``, which
    must be one, or None: :func:`range_basis`'s default) over ``variables``
    (names, or a function naming the vectors).

    The proof it serves needs no witness vector and no orthogonality.  Let
    ``b_1..b_r`` be a basis of the range with coordinates ``x``, and let
    ``x_j^N`` be a combination of the ``k x k`` minors of ``M(x)``.  A range
    vector of Schmidt rank ``<= k-1`` zeroes every such minor, so ``x_j``
    vanishes on it: all of them lie in the hyperplane ``x_j = 0`` of the
    range.  A decomposition of ``s`` into such vectors would span only that
    hyperplane, yet it must span the range, so ``SN(s) >= k``.  What the
    proof does need is checked here: the vectors are a basis of the range,
    real (the coordinate ring is Q), and one variable names each."""
    rng, default, vectors = range_basis(s)
    source = basis or default
    if source == "range":
        vectors = rng.basis
    elif default != "edges":
        raise NotARealRangeBasis("the state's edges are not a basis of the range")
    names = variables(vectors) if callable(variables) else variables
    if len(names) != len(vectors) or len(set(names)) != len(names):
        raise DimensionMismatch("the certificate needs one variable per basis vector")
    return coordinate_matrix(s.dim_a, s.dim_b, tuple(zip(names, vectors))), source


def _laplace_extend(table: dict, row: list) -> dict:
    """Minors on one more (first) row from the ``table`` of minors on the rest.

    ``table`` maps a sorted column tuple to the packed terms of its minor;
    ``row`` lists the new row's nonzero entries as ``(column, [(monomial -
    one, coefficient)])``.  Coefficients are ints (:class:`SymbolicRangeMatrix`).
    Zero minors are left out of the result.
    """
    out: dict = {}
    for cols, minor in table.items():
        for c, entry in row:
            if c in cols:
                continue
            pos = bisect.bisect(cols, c)
            acc = out.setdefault(cols[:pos] + (c,) + cols[pos:], {})
            for shift, ec in entry:
                if pos % 2:
                    ec = -ec
                for t, tc in minor.items():
                    m = t + shift
                    s = acc.get(m, 0) + ec * tc
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
    return {cols: minor for cols, minor in out.items() if minor}


def _determinant(rows: list, P: _Packing, chosen: tuple, cols: tuple) -> dict:
    """Packed int terms of the minor of the :class:`SymbolicRangeMatrix`
    ``rows`` on ``chosen`` x ``cols`` (empty when it vanishes)."""
    keep = set(cols)
    table = {(): {P.one: 1}}
    for r in reversed(chosen):
        table = _laplace_extend(table, [(c, e) for c, e in rows[r] if c in keep])
    return table.get(tuple(cols), {})


def minor_identity_holds(M: SymbolicRangeMatrix, target: tuple,
                         pairs: Sequence[tuple], cofactors: Sequence[dict]) -> bool:
    """Whether ``sum cofactor_i * det M[rows_i, cols_i] = target`` exactly.

    ``target`` is a monomial's exponent tuple over ``M.variables``, ``pairs``
    the ``(rows, cols)`` of each minor and ``cofactors`` the matching terms
    (exponent tuple -> Fraction) of degree ``deg target - k``.  Only these
    determinants are computed, on the packed int rows of ``M``
    (:func:`_determinant`), and the sum is compared with ``target`` over one
    common denominator: that of every cofactor coefficient times its
    minor's row scales.  The certifier, the sn-lower verifier and the
    acceptance suite call it."""
    P, rows, scales = M.packing, M.rows, M.scales
    goal = P.pack(target)   # checks deg target, the degree of every product
    shifted = [(math.prod(scales[r] for r in chosen),
                [(P.pack(e) - P.one, c) for e, c in terms.items() if c])
               for (chosen, _), terms in zip(pairs, cofactors)]
    den = math.lcm(*(scale * c.denominator for scale, cof in shifted for _, c in cof))
    acc: dict = {}
    for (chosen, cols), (scale, cof) in zip(pairs, shifted):
        det = _determinant(rows, P, chosen, cols)
        for shift, c in cof:
            f = c.numerator * (den // (scale * c.denominator))
            for t, tc in det.items():
                key = t + shift
                total = acc.get(key, 0) + f * tc
                if total:
                    acc[key] = total
                else:
                    del acc[key]
    return acc == {goal: den}


# ---------------------------------------------------------------------------
# the sn-verdict replay
# ---------------------------------------------------------------------------

def verify_sn_verdict(data: dict) -> bool:
    """Replay an sn-verdict: parse the one stored state, replay each half on
    it (:func:`verify_sn_lower_certificate` unless the lower bound is
    inconclusive, :func:`verify_sn_upper_certificate`), and check that the
    stored verdict line is the one their values imply."""
    lower, upper, stored = rp._parsed("certificate", _read_sn_verdict, data)
    s = rp.read_state(stored)
    if lower is not None:
        verify_sn_lower_certificate(lower, s)
    verify_sn_upper_certificate(upper, s)
    return True


def _read_sn_verdict(data: dict) -> tuple:
    """The ``lower`` (None under ``lower_inconclusive``) and ``upper`` halves
    and the state, the verdict line checked against their values; a state
    without edges is refused before its matrix is read or factored."""
    proven = "lower" in data
    _, state, lower, upper, verdict = rp._fields(
        data, "sn-verdict", ("kind", "state", "lower" if proven else "lower_inconclusive",
                             "upper", "verdict"))
    if not (proven or isinstance(lower, str)):
        raise TypeError(f"lower_inconclusive {lower!r} is not a reason string")
    expected = rp.sn_verdict_text(lower["value"] if proven else None, upper["value"])
    if verdict != expected:
        raise CertificateInvalid(f"verdict {verdict!r} does not match {expected!r}")
    if not state.get("edges"):
        raise CertificateInvalid("the state has no edge decomposition")
    return lower if proven else None, upper, state


def verify_sn_lower_certificate(half: dict, s: rp.BipartiteState) -> bool:
    """Replay the lower half of an sn-verdict on its state: an indexed
    cofactor identity proving ``SN(s) >= value``.

    Checks the power ``k <= N <= 2k`` with ``k = value`` and shape-checks
    every ``[rows, cols, cofactor]`` of ``minors`` (``k`` strictly
    increasing in-range indices, no pair twice, cofactors of degree
    ``N - k``), and that ``witness_variable`` is one of the ``variables``.
    The certifier's setup (:func:`lower_bound_setup`, which holds the
    proof) reads the range from the edges and checks that the named basis
    is a basis of it.  Then only the listed determinants of ``M`` are
    computed and ``sum cofactor * det M[rows, cols] = x_w^N`` is checked
    exactly (:func:`minor_identity_holds`, as ``certify-sn`` checks
    what it writes).  Nothing is enumerated.
    """
    m, n = s.dims
    source, variables, witness_variable, power, pairs, cofactors = \
        rp._parsed("certificate", _read_sn_lower, half, m, n)
    try:
        sym, _ = lower_bound_setup(s, source, variables)
    except PptlabError as exc:
        raise CertificateInvalid(str(exc)) from None
    target = tuple(power if v == witness_variable else 0 for v in variables)
    if not minor_identity_holds(sym, target, pairs, cofactors):
        raise CertificateInvalid("cofactor identity does not expand to the witness power")
    return True


def _read_sn_lower(half: dict, m: int, n: int) -> tuple:
    """The basis source, variables, witness variable (one of them), power,
    minor pairs and cofactor terms of the lower half of an sn-verdict on an
    ``m x n`` state, read from the keys :func:`serialize._sn_lower_json` writes."""
    k, witness_variable, variables, basis, power, minors = rp._fields(
        half, "lower half",
        ("value", "witness_variable", "variables", "basis", "power", "minors"))
    if type(k) is not int or type(power) is not int or not k <= power <= 2 * k:
        # the minors are homogeneous of degree k, and the certifier searches N <= 2k
        raise CertificateInvalid("witness power is not an integer in [k, 2k]")
    if basis not in ("edges", "range"):
        raise CertificateInvalid('basis is neither "edges" nor "range"')
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)):
        raise CertificateInvalid("variables is not a list of names")
    if witness_variable not in variables:
        raise CertificateInvalid("witness_variable is not one of the variables")
    pairs, cofactors = _indexed_minors(minors, len(variables), k, power - k, m, n)
    return basis, variables, witness_variable, power, pairs, cofactors


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


def _cofactor(nvars: int, data, degree: int) -> dict:
    """The terms of a stored ``{"terms": [[monomial, "p/q"], ...]}`` of one ``degree``."""
    (terms,) = rp._fields(data, "cofactor", ("terms",))
    if not isinstance(terms, list):
        raise CertificateInvalid("cofactor has no term list")
    out = {}
    for term in terms:
        monomial, c = term if isinstance(term, list) and len(term) == 2 else (None, None)
        exps = tuple(rp._sparse_from_json(monomial, nvars,
                                          lambda e: e if type(e) is int and e > 0 else 0, 0))
        if sum(exps) != degree or exps in out:
            raise CertificateInvalid(f"cofactor term {term!r} is not a new monomial "
                                     f"of degree {degree}")
        out[exps] = rp._rational(c)
    return out


def verify_sn_upper_certificate(half: dict, s: rp.BipartiteState) -> bool:
    """Replay an sn-verdict's upper half (``value``, ``schmidt_ranks``) on its state,
    the conic sum of its edges: ``value`` is their largest Schmidt rank, as stored."""
    m, n = s.dims
    value, stored_ranks = rp._parsed("certificate", rp._fields, half, "upper half",
                                     ("value", "schmidt_ranks"))
    if type(value) is not int:
        raise CertificateInvalid("upper bound value is not an integer")
    ranks = [rp.schmidt_rank(e.vec, m, n) for e in s.edges]
    if max(ranks) != value:
        raise CertificateInvalid("claimed bound does not match the decomposition ranks")
    if stored_ranks != ranks or any(type(r) is not int for r in stored_ranks):
        raise CertificateInvalid("stored Schmidt ranks are not the edges' ranks")
    return True
