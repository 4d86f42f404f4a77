"""Schmidt-number certification: the search for a certificate.

The range of a state is parametrized by one coordinate per range-basis
vector; vanishing of all ``k x k`` minors of the resulting coordinate
matrix cuts out exactly the Schmidt-rank ``<= k-1`` vectors.  Membership of
a power of the witness coordinate in the minor ideal, shown by an explicit
identity ``sum_i c_i det M[rows_i, cols_i] = x_w^N`` over the minors it
uses, then certifies a Schmidt-number lower bound via the Nullstellensatz.
Upper bounds come from a state's edges, the conic decomposition it is.
:func:`certify_sn` is the recipe ``certify-sn`` and the acceptance suite
run; it returns a :class:`LowerBound` (or :class:`Inconclusive`) and an
:class:`UpperBound` holding exact values, which
:func:`serialize.sn_verdict_certificate` writes as JSON.

The search is the witness closure (:class:`_WitnessClosure`), which
computes only the minors that share monomials with a witness power, and
the integer Macaulay solve of their cofactors (:func:`_cofactor_trail`).
Packed monomials, coordinate matrices, the setup of a lower bound and the
replay of an identity live in :mod:`pptlab.minors`, and the states, ranges
and Schmidt ranks in the replay kernel :mod:`pptlab.replay`; this module
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
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidK,
    NonOrthogonalBasis,
)


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
    degree 0..``degree``, in :func:`_monomials_up_to` order."""
    return [(mono, P.pack(mono) - P.one) for mono in _monomials_up_to(P.nvars, degree)]


def _cofactor_trail(work: dict, sigma: int, generators: Sequence[tuple], monomials: list):
    """The integer Macaulay solve behind :func:`certify_sn_lower` and the
    oracle's :func:`algcert.linear_membership_cofactors`.

    ``work`` holds the packed int terms of ``sigma * target`` (consumed);
    ``generators`` the ``(int terms, scale)`` of each generator ``g_i``,
    whose terms are ``scale * g_i``; ``monomials`` the cofactor monomials of
    :func:`_cofactor_monomials`.  Returns ``(trail, sigma)`` with ``sigma *
    target = sum trail[i, exponents] * monomial * g_i`` and no zero entry,
    or ``None`` when the target is not a combination of the rows.  Rows are
    eliminated in ``monomials`` order, generators in list order within each.
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


def _monomials_up_to(nvars: int, degree: int):
    """All monomials of degree exactly 0..degree (degree 0 first)."""
    out = [(0,) * nvars]
    frontier = out[:]
    for _ in range(degree):
        nxt = set()
        for m in frontier:
            for i in range(nvars):
                e = list(m)
                e[i] += 1
                nxt.add(tuple(e))
        frontier = sorted(nxt)
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# range bases and the witness closure
# ---------------------------------------------------------------------------

def _site_variable_name(idx: int, n: int) -> str:
    i, j = divmod(idx, n)
    if i < 10 and j < 10:
        return f"psi{i}{j}"
    return f"psi_{i}_{j}"


def _named_basis(s: rp.BipartiteState, rng: rp.Subspace, naming: str) -> tuple:
    """``(source, basis)``: the basis of ``rng``, the range of ``s``, that
    the certifier uses, as ``(variable, vector)`` pairs: the edges under
    their names (``naming="edge"``, which reads no ``rng``), or the edges
    when they are a basis, else the canonical RREF basis, named after each
    vector's leading site (``psi<i><j>``).  A repeat appends each name's position."""
    if naming == "edge":
        source, basis = "edges", [(e.name, e.vec) for e in s.edges or ()]
    else:
        vectors = rp.edge_basis(s, rng)
        source = "range" if vectors is None else "edges"
        basis = [(_site_variable_name(next(i for i, x in enumerate(v) if x), s.dim_b), v)
                 for v in (rng.basis if vectors is None else vectors)]
    names = [name for name, _ in basis]
    if len(set(names)) != len(names):
        basis = [(f"{name}_{l}", v) for l, (name, v) in enumerate(basis)]
    return source, basis


def _require_orthogonal(basis: Sequence) -> None:
    """Refuse ``(name, vector)`` pairs with two non-orthogonal vectors."""
    supports = [frozenset(i for i, x in enumerate(v) if x) for _, v in basis]
    for (a, (n1, v1)), (b, (n2, v2)) in itertools.combinations(enumerate(basis), 2):
        # vectors with disjoint supports are orthogonal
        if not supports[a].isdisjoint(supports[b]) and rp.vdot(v1, v2):
            raise NonOrthogonalBasis(f"range basis vectors {n1} and {n2} overlap")


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


class _WitnessClosure:
    """The minors that share monomials, transitively, with a witness power.

    In the Macaulay system of ``x_w^N`` over the ``k x k`` minors, a row
    ``mono * g`` that shares no monomial, however indirectly, with ``x_w^N``
    never meets the rows that do: eliminating them never mixes the two
    sets, so the target reduces exactly as in the full system.  The closure
    therefore starts from the packed monomial ``x_w^N``; for each degree-``k``
    divisor ``t`` of a monomial it reaches, it lists the ``(rows, cols)``
    whose Leibniz expansion has a term on ``t`` (one position per variable
    of ``t``, in distinct rows and columns: every entry is a linear form),
    computes those determinants only, and queues every monomial of each
    row ``(u / t) * g`` whose minor ``g`` contains ``t``.  Zero minors and
    minors with an excluded variable are dropped, and proportional minors
    keep their lexicographically first ``(rows, cols)``, as in
    :func:`algcert.minor_ideal`.  Determinants are cached across powers.
    """

    def __init__(self, M: mi.SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str]):
        P = self.P = M.packing
        P.check_degree(k)
        self.k = k
        self.rows, self.scales = M.rows, M.scales
        self.excluded = sum(P.max << (P.width * M.variables.index(v)) for v in exclude_vars)
        self.units = [P.unit(l) for l in range(P.nvars)]
        self.places: dict = {}      # units[l] -> [(row, col)] of the entries with x_l
        for i, row in enumerate(self.rows):
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
        terms = mi._determinant(self.rows, self.P, *pos)
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
    basis), one vector per name in ``variables``.  ``minors`` holds ``(rows,
    cols, {exponents: Fraction})`` triples, replayed as those determinants."""

    value: int
    witness: rp.Vector
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


def certify_sn_lower(s: rp.BipartiteState, witness_vector: rp.Vector, k: int,
                     exclude_vars: Sequence[str]):
    """Certify ``SN(s) >= k`` through the range criterion.

    Searches the smallest ``N <= 2k`` with ``x_w^N`` in the ideal of
    ``k x k`` minors, where ``x_w`` is the single range coordinate the
    witness overlaps.  Membership means every Schmidt-rank ``k-1`` vector in
    the range is orthogonal to the witness, which itself lies in the range,
    so no rank ``<= k-1`` decomposition can exist.  Returns a
    :class:`LowerBound` on success, :class:`Inconclusive` otherwise.

    The variables take the edges' names exactly when ``exclude_vars`` is
    non-empty.  The setup is the verifier's (:func:`minors.lower_bound_setup`),
    and the certifier demands an orthogonal basis on top.

    Every entry of a range coordinate matrix is a linear form, so every
    minor is homogeneous of degree ``k`` and membership of ``x_w^N`` is a
    linear problem in the cofactors of degree ``N - k`` (a Macaulay matrix
    argument, complete for homogeneous ideals); no power below ``k`` lies in
    the ideal, and the verifier accepts exactly the powers ``k <= N <= 2k``
    this search can return.  The solve at each ``N`` runs over the minors
    of :class:`_WitnessClosure`, in :func:`algcert.minor_ideal`'s order, and finds
    the cofactors the solve over every minor would; nothing is enumerated.
    The certificate keeps only the minors with a nonzero cofactor, each as
    its first ``[rows, cols]`` with the cofactor rescaled from the monic
    minor to that determinant.  Excluding variables only shrinks the ideal,
    so ``exclude_vars`` is a search heuristic and is not recorded.
    """
    if k < 1:
        raise InvalidK(f"k = {k}: a Schmidt-number lower bound needs k >= 1")
    rng = rp.column_space(s.matrix)
    source, basis = _named_basis(s, rng, "edge" if exclude_vars else "site")
    sym, witness_var = mi.lower_bound_setup(s, rng, source, [name for name, _ in basis],
                                            witness_vector)
    _require_orthogonal(sym.basis)
    if k > min(sym.dim_a, sym.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    closure = _WitnessClosure(sym, k, exclude_vars)
    P = closure.P
    xw = closure.units[sym.variables.index(witness_var)]
    for N in range(k, 2 * k + 1):
        P.check_degree(N)
        target = P.one + N * xw
        found = closure.component(target)
        _info(__name__, "certify_sn_lower: N=%d: %d minors in %d variables", N, len(found), P.nvars)
        # algcert.minor_ideal's order: leading monomial, term count, first (rows, cols)
        keys = sorted(found, key=lambda key: (max(key)[0], len(key), found[key][:2]))
        generators = [(dict(key), max(key)[1]) for key in keys]
        monomials = _cofactor_monomials(P, N - k)
        solved = _cofactor_trail({target: 1}, 1, generators, monomials)
        if solved is None:
            continue
        trail, sigma = solved
        cofactors: dict = {}
        for (i, mono), c in trail.items():
            rows, _, lead = found[keys[i]]
            det_factor = Fraction(lead, math.prod(closure.scales[r] for r in rows))
            cofactors.setdefault(i, {})[mono] = Fraction(c, sigma) / det_factor
        used = sorted(cofactors)
        pairs = [found[keys[i]][:2] for i in used]
        terms = [cofactors[i] for i in used]
        if not mi.minor_identity_holds(sym, N, witness_var, pairs, terms):
            raise InternalInconsistency("cofactor bookkeeping failed: the identity does not replay")
        return LowerBound(k, tuple(witness_vector), witness_var, sym.variables, source, N,
                          tuple((rows, cols, cof) for (rows, cols), cof in zip(pairs, terms)))
    return Inconclusive(f"{witness_var}^N has no cofactor representation for N <= {2 * k}")


def sn_upper_from_decomposition(target: rp.BipartiteState) -> UpperBound:
    """Certify ``SN(target) <= max SR(e)`` over the edges whose conic sum
    ``target`` is (nonnegative weights, checked when it was built)."""
    m, n = target.dims
    ranks = tuple(rp.schmidt_rank(e.vec, m, n) for e in target.edges)
    return UpperBound(max(ranks), ranks)


def certify_sn(s: rp.BipartiteState, k: int | None = None, exclude_deltas: bool = False) -> tuple:
    """``(lower, upper)`` Schmidt-number bounds of a state with recorded edges.

    The upper bound is the edges' decomposition
    (:func:`sn_upper_from_decomposition`).  The lower bound's witness is the
    first edge of maximal Schmidt rank and ``k`` defaults to that rank
    (:func:`certify_sn_lower`).  ``exclude_deltas`` leaves out the
    ``delta*`` edges' variables (by position) and names the variables after
    the edges, as the scaling family's certificates do.
    """
    upper = sn_upper_from_decomposition(s)
    witness = s.edges[upper.schmidt_ranks.index(upper.value)].vec
    names = [name for name, _ in _named_basis(s, None, "edge")[1]] if exclude_deltas else []
    exclude = [name for name, e in zip(names, s.edges) if e.name.startswith("delta")]
    lower = certify_sn_lower(s, witness, upper.value if k is None else k, exclude_vars=exclude)
    return lower, upper
