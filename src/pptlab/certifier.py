"""Schmidt-number certification: the search for a certificate.

The range of a state is parametrized by one coordinate per range-basis
vector, for any real basis; vanishing of all ``k x k`` minors of the
resulting coordinate matrix cuts out exactly the Schmidt-rank ``<= k-1``
vectors.  Membership of a power of any one coordinate in the minor ideal,
shown by an explicit identity ``sum_i c_i det M[rows_i, cols_i] = x_w^N``
over the minors it uses, puts those vectors in the hyperplane ``x_w = 0``
and so certifies a Schmidt-number lower bound (the proof is
:func:`minors.lower_bound_setup`'s); :func:`certify_sn_lower` tries the
coordinates in one fixed order.
Upper bounds come from a state's edges, the conic decomposition it is.
:func:`certify_sn` is the recipe ``certify-sn`` and the acceptance suite
run; it returns a :class:`LowerBound` (or :class:`Inconclusive`) and an
:class:`UpperBound` holding exact values, which
:func:`serialize.sn_verdict_certificate` writes as JSON.

:func:`minor_membership` proves any monomial in the minor ideal: the
witness closure (:class:`WitnessClosure`) computes only the minors that
share monomials with it, and :func:`_cofactor_trail` solves for their
cofactors of the one degree the monomial's Macaulay rows have.
The range, packed monomials, coordinate matrices, the setup of a lower
bound and the replay of an identity live in :mod:`pptlab.minors`, and the
states and Schmidt ranks in the replay kernel :mod:`pptlab.replay`; this module
imports those two and nothing else of the package, and checks each
identity it finds with the verifier's :func:`minors.minor_identity_holds`
before returning it.  It computes on packed terms only: the rational
polynomials and Buchberger's algorithm stay apart, in
:mod:`pptlab.algcert`, as an independent membership oracle.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import minors as mi
from . import replay as rp
from .errors import DimensionMismatch, InternalInconsistency, InvalidK


def _info(logger: str, msg: str, *args) -> None:
    """Log an INFO line to ``logger`` when the process has loaded
    :mod:`logging` (the CLI's ``--verbose`` does); otherwise skip its import."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).info(msg, *args)


# ---------------------------------------------------------------------------
# the integer Macaulay solve
# ---------------------------------------------------------------------------

def _cofactor_monomials(P: mi._Packing, degree: int) -> list:
    """``(exponents, packed monomial - one)`` of every cofactor monomial of
    degree exactly ``degree`` (none if negative), in increasing exponent order."""
    combos = itertools.combinations_with_replacement(range(P.nvars), degree) if degree >= 0 else ()
    monos = sorted(tuple(c.count(l) for l in range(P.nvars)) for c in combos)
    return [(mono, P.pack(mono) - P.one) for mono in monos]


def _cofactor_trail(work: dict, sigma: int, generators: Sequence[tuple], monomials: list):
    """The integer Macaulay solve behind :func:`certify_sn_lower` and the
    oracle's :func:`algcert.linear_membership_cofactors`.

    ``work`` holds the packed int terms of ``sigma * target`` (consumed);
    ``generators`` the ``(int terms, scale)`` of each generator ``g_i``,
    whose terms are ``scale * g_i``; ``monomials`` the cofactor monomials
    (:func:`_cofactor_monomials`), one row ``mono * g_i`` each.  Returns
    ``(trail, sigma)`` with ``sigma * target = sum trail[i, exponents] *
    monomial * g_i`` and no zero entry, or ``None`` when the target is not a
    combination of the rows.  Rows are eliminated in ``monomials`` order,
    generators in list order within each.  Rows of different degrees never
    meet, so :func:`minor_membership`, whose minors all have degree ``k``,
    passes only the degree ``N - k`` of its degree-``N`` target.
    """
    # Macaulay rows over the ints: each row is (terms, trail) with terms =
    # sum trail[(i, mono)] * mono * generators[i], scaled freely
    eliminated: dict = {}   # pivot monomial -> (row terms, row trail)
    for mono, shift in monomials:
        for i, (terms, scale) in enumerate(generators):
            row = {m + shift: c for m, c in terms.items()}
            trail = {(i, mono): scale}
            while row:
                lead = max(row)
                hit = eliminated.get(lead)
                if hit is None:
                    g = math.gcd(*row.values(), *trail.values())
                    if g != 1:
                        row = {m: c // g for m, c in row.items()}
                        trail = {key: c // g for key, c in trail.items()}
                    eliminated[lead] = (row, trail)
                    break
                pterms, ptrail = hit
                a, b = _eliminators(pterms[lead], row[lead])
                _int_submul(row, a, b, pterms)
                _int_submul(trail, a, b, ptrail)
    # the target row keeps sigma * target - work = sum trail * mono * generators
    trail: dict = {}
    while work:
        lead = max(work)
        hit = eliminated.get(lead)
        if hit is None:
            return None
        pterms, ptrail = hit
        a, b = _eliminators(pterms[lead], work[lead])
        _int_submul(work, a, b, pterms)
        _int_submul(trail, a, -b, ptrail)
        sigma *= a
    return trail, sigma


def _eliminators(pivot: int, entry: int) -> tuple:
    """``(a, b)`` with ``a > 0`` and ``a * entry == b * pivot``, in lowest terms."""
    g = math.gcd(pivot, entry)
    a, b = pivot // g, entry // g
    return (a, b) if a > 0 else (-a, -b)


def _int_submul(target: dict, a: int, b: int, source: dict):
    """``target = a * target - b * source`` in place, dropping zero entries."""
    if a != 1:
        for key, val in target.items():
            target[key] = a * val
    for key, val in source.items():
        s = target.get(key, 0) - b * val
        if s:
            target[key] = s
        else:
            target.pop(key, None)


# ---------------------------------------------------------------------------
# range bases and the witness closure
# ---------------------------------------------------------------------------

def _variables(s: rp.BipartiteState, naming: str, vectors: Sequence) -> list:
    """Distinct names per vector: edge names (``"edge"``) or leading sites (``psi<i><j>``)."""
    if naming == "edge":
        names = [e.name for e in s.edges]
    else:
        sites = [divmod(next(i for i, x in enumerate(v) if x), s.dim_b) for v in vectors]
        names = [f"psi{i}{j}" if i < 10 and j < 10 else f"psi_{i}_{j}" for i, j in sites]
    return names if len(set(names)) == len(names) else [f"{x}_{l}" for l, x in enumerate(names)]


def _has_excluded(minor: dict, excluded: int) -> bool:
    """Whether a term of the packed ``minor`` has a variable of the field
    mask ``excluded``."""
    return bool(excluded) and any(t & excluded != excluded for t in minor)


def _primitive(minor: dict) -> tuple:
    """``(key, lead)``: the primitive form with a positive leading
    coefficient, which proportional minors share, as a frozenset of packed
    terms, and the leading coefficient of ``minor``."""
    lead = minor[max(minor)]
    g = math.gcd(*minor.values()) * (1 if lead > 0 else -1)
    return frozenset((m, c // g) for m, c in minor.items()), lead


class WitnessClosure:
    """The minors that share monomials, transitively, with a target monomial
    (a coordinate power ``x_w^N`` for :func:`certify_sn_lower`).

    In the Macaulay system of the target over the ``k x k`` minors, a row
    ``mono * g`` that shares no monomial, however indirectly, with it
    never meets the rows that do: eliminating them never mixes the two
    sets, so the target reduces exactly as in the full system.  The closure
    therefore starts from the packed target; for each degree-``k``
    divisor ``t`` of a monomial it reaches, it lists the ``(rows, cols)``
    whose Leibniz expansion has a term on ``t`` (one position per variable
    of ``t``, in distinct rows and columns: every entry is a linear form),
    computes those determinants only, and queues every monomial of each
    row ``(u / t) * g`` whose minor ``g`` contains ``t``.  Zero minors and
    minors with an excluded variable are dropped, and proportional minors
    keep their lexicographically first ``(rows, cols)``, as in
    :func:`algcert.minor_ideal`.  Determinants are cached across targets.
    """

    def __init__(self, M: mi.SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str]):
        P = self.P = M.packing
        P.check_degree(k)
        self.k, self.M = k, M
        self.excluded = sum(P.max << (P.width * M.variables.index(v)) for v in exclude_vars)
        self.units = [P.unit(l) for l in range(P.nvars)]
        self.places: dict = {}      # units[l] -> [(row, col)] of the entries with x_l
        for i, row in enumerate(M.rows):
            for j, entry in row:
                for unit, _ in entry:
                    self.places.setdefault(unit, []).append((i, j))
        self._minors: dict = {}     # (rows, cols) -> (terms, primitive key, lead) or None

    def factors(self, u: int) -> list:
        """The variables of the packed monomial ``u``, with repeats, as units,
        the variables with the fewest positions first."""
        P = self.P
        w = P.width
        exps = P.one - (u & ((1 << (w * P.nvars)) - 1))   # exponent e_l in field l
        out = []
        while exps:
            l = (exps.bit_length() - 1) // w
            e = exps >> (w * l)
            exps -= e << (w * l)
            out += [self.units[l]] * e
        out.sort(key=lambda unit: (len(self.places.get(unit, ())), unit))
        return out

    def positions(self, divisor: tuple) -> set:
        """``(rows, cols)`` of every minor whose expansion has a term on the
        variables ``divisor`` (units with repeats, in :meth:`factors` order)."""
        out = set()
        k, places = self.k, self.places

        def grow(a, rows, cols, start):
            if a == k:
                out.add((tuple(sorted(rows)), tuple(sorted(cols))))
                return
            spots = places.get(divisor[a], ())
            # a repeated variable takes increasing positions
            for p in range(start if a and divisor[a - 1] == divisor[a] else 0, len(spots)):
                i, j = spots[p]
                if i not in rows and j not in cols:
                    grow(a + 1, rows + (i,), cols + (j,), p + 1)

        grow(0, (), (), 0)
        return out

    def minor(self, pos: tuple):
        """``(terms, primitive key, lead)`` of the minor at ``pos``, or ``None``
        when it vanishes or has an excluded variable."""
        if pos in self._minors:
            return self._minors[pos]
        terms = mi._determinant(self.M.rows, self.P, *pos)
        out = None
        if terms and not _has_excluded(terms, self.excluded):
            out = (terms,) + _primitive(terms)
        self._minors[pos] = out
        return out

    def component(self, target: int) -> dict:
        """Primitive key -> ``(rows, cols, lead)`` of every minor in a
        Macaulay row reached from the packed degree-``>= k`` monomial ``target``."""
        P, k = self.P, self.k
        found: dict = {}
        expanded = set()            # (key, multiplier) rows already queued
        seen = {target}
        queue = [target]
        while queue:
            u = queue.pop()
            occurrences = self.factors(u)
            divisors = [tuple(occurrences)] if len(occurrences) == k \
                else sorted(set(itertools.combinations(occurrences, k)))
            for divisor in divisors:
                t = P.one + sum(divisor)
                shift = u - t       # a term m of g sits at m + shift in (u / t) * g
                for pos in self.positions(divisor):
                    hit = self.minor(pos)
                    if hit is None or t not in hit[0]:
                        continue
                    terms, key, lead = hit
                    first = found.get(key)
                    if first is None or pos < first[:2]:
                        found[key] = pos + (lead,)
                    if (key, shift) in expanded:
                        continue
                    expanded.add((key, shift))
                    for m in terms:
                        mm = m + shift
                        if mm not in seen:
                            seen.add(mm)
                            queue.append(mm)
        return found


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class LowerBound(NamedTuple):
    """A proven ``SN >= value``: the indexed cofactor identity ``sum
    cofactor * det M[rows, cols] = witness_variable^power`` over the
    coordinate matrix ``M`` of the real range basis that ``basis`` names
    (``"edges"``, the state's edge vectors, or ``"range"``, the canonical
    basis), one vector per name in ``variables``, ``witness_variable`` one
    of them.  ``minors`` holds ``(rows, cols, {exponents: Fraction})``
    triples, replayed as those determinants."""

    value: int
    witness_variable: str
    variables: tuple
    basis: str
    power: int
    minors: tuple


class UpperBound(NamedTuple):
    """A proven ``SN <= value``: the state is the weighted Gram sum of its
    edges, and ``value`` is the largest of their Schmidt ranks."""

    value: int
    schmidt_ranks: tuple


class Inconclusive(NamedTuple):
    """Negative space of a certificate search: nothing was proven."""

    reason: str


def certify_sn_lower(s: rp.BipartiteState, k: int, exclude_vars: Sequence[str]):
    """Certify ``SN(s) >= k`` through the range criterion.

    Searches, for one range coordinate ``x_w`` after another, the smallest
    ``N <= 2k`` with ``x_w^N`` in the ideal of ``k x k`` minors
    (:func:`minor_membership`); any one proves the bound.  The coordinates
    come in one fixed order: those whose basis vectors overlap the first
    edge of largest Schmidt rank, then the others, each in variable order,
    never an excluded one (no minor left holds it).  Returns a
    :class:`LowerBound` on the first success, :class:`Inconclusive` otherwise.

    The variables take the edges' names exactly when ``exclude_vars`` is
    non-empty.  The setup is the verifier's (:func:`minors.lower_bound_setup`,
    which refuses a state without edges).

    Every entry of a range coordinate matrix is a linear form, so every
    minor is homogeneous of degree ``k`` and membership of ``x_w^N`` is a
    linear problem in the cofactors of degree ``N - k`` (a Macaulay matrix
    argument, complete for homogeneous ideals); no power below ``k`` lies in
    the ideal, and the verifier accepts exactly the powers ``k <= N <= 2k``
    this search can return.  One closure serves every target, so each
    determinant is computed once.  Excluding variables only shrinks the
    ideal, so ``exclude_vars`` is a search heuristic and is not recorded.
    """
    if k < 1:
        raise InvalidK(f"k = {k}: a Schmidt-number lower bound needs k >= 1")
    sym, source = mi.lower_bound_setup(
        s, "edges" if exclude_vars else None,
        lambda vectors: _variables(s, "edge" if exclude_vars else "site", vectors))
    if k > min(sym.dim_a, sym.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    ranks = [rp.schmidt_rank(e.vec, *s.dims) for e in s.edges]
    lead = s.edges[ranks.index(max(ranks))].vec
    targets = [name for name, v in sorted(sym.basis, key=lambda b: not rp.vdot(b[1], lead))
               if name not in exclude_vars]
    closure = WitnessClosure(sym, k, exclude_vars)
    for var in targets:
        for N in range(k, 2 * k + 1):
            target = tuple(N if v == var else 0 for v in sym.variables)
            minors = minor_membership(closure, target)
            if minors is not None:
                return LowerBound(k, var, sym.variables, source, N, minors)
    return Inconclusive(f"no range coordinate x has x^N in the {k} x {k} minor ideal "
                        f"for N <= {2 * k}")


def minor_membership(closure: WitnessClosure, target: tuple):
    """The ``(rows, cols, {exponents: Fraction})`` triples of ``sum cofactor
    * det M[rows, cols] = target``, a monomial's exponent tuple over the
    closure's matrix ``M``, checked by :func:`minors.minor_identity_holds`;
    ``None`` when ``target`` is not in the ideal of the ``k x k`` minors.

    The solve runs over the minors the closure reaches from ``target``, in
    :func:`algcert.minor_ideal`'s order, and finds the cofactors the solve
    over every minor would.  Each minor with a nonzero cofactor is kept as
    its first ``(rows, cols)``, the cofactor rescaled from the monic minor
    to that determinant."""
    P, k, M = closure.P, closure.k, closure.M
    packed = P.pack(target)
    found = closure.component(packed)
    _info(__name__, "minor_membership: degree %d: %d minors in %d variables",
          sum(target), len(found), P.nvars)
    # algcert.minor_ideal's order: leading monomial, term count, first (rows, cols)
    keys = sorted(found, key=lambda key: (max(key)[0], len(key), found[key][:2]))
    generators = [(dict(key), max(key)[1]) for key in keys]
    solved = _cofactor_trail({packed: 1}, 1, generators, _cofactor_monomials(P, sum(target) - k))
    if solved is None:
        return None
    trail, sigma = solved
    cofactors: dict = {}
    for (i, mono), c in trail.items():
        rows, _, lead = found[keys[i]]
        det_factor = Fraction(lead, math.prod(M.scales[r] for r in rows))
        cofactors.setdefault(i, {})[mono] = Fraction(c, sigma) / det_factor
    minors = tuple(found[keys[i]][:2] + (cofactors[i],) for i in sorted(cofactors))
    if not mi.minor_identity_holds(M, target, [m[:2] for m in minors], [m[2] for m in minors]):
        raise InternalInconsistency("cofactor bookkeeping failed: the identity does not replay")
    return minors


def sn_upper_from_decomposition(target: rp.BipartiteState) -> UpperBound:
    """Certify ``SN(target) <= max SR(e)`` over the edges whose conic sum
    ``target`` is, the ones that span its range (:func:`minors.range_basis`)."""
    m, n = target.dims
    ranks = tuple(rp.schmidt_rank(e.vec, m, n) for e in target.edges)
    return UpperBound(max(ranks), ranks)


def certify_sn(s: rp.BipartiteState, k: int | None = None, exclude_deltas: bool = False) -> tuple:
    """``(lower, upper)`` Schmidt-number bounds of a state with recorded edges.

    The upper bound is the edges' decomposition
    (:func:`sn_upper_from_decomposition`), and ``k`` defaults to its value,
    the largest Schmidt rank of an edge (:func:`certify_sn_lower`).
    ``exclude_deltas`` leaves out the ``delta*`` edges' variables (by
    position) and names the variables after the edges, as the scaling
    family's certificates do.
    """
    upper = sn_upper_from_decomposition(s)
    names = _variables(s, "edge", ()) if exclude_deltas else []
    exclude = [name for name, e in zip(names, s.edges) if e.name.startswith("delta")]
    lower = certify_sn_lower(s, upper.value if k is None else k, exclude_vars=exclude)
    return lower, upper
