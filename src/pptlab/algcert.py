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
:func:`serialize.sn_verdict_certificate` writes as JSON.  Buchberger's
algorithm stays as an independent membership oracle.

Polynomials, packed monomials, coordinate matrices, the setup of a lower
bound and the replay of an identity live in :mod:`pptlab.minors`, which
the verifier loads without this module.  The reduction, Buchberger and
cofactor kernels here pack each monomial into one int on entry
(:class:`minors._Packing`) and unpack on exit.  The minor kernels and the
witness closure read the packed rows of the coordinate matrix and keep
their minors packed until they return them; the closure's cofactors are
checked with the verifier's :func:`minors.minor_identity_holds`.  The
trusted separability rules and the edge-state check live in
:mod:`pptlab.extender`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import exactmat as em
from . import minors as mi
from . import qstates as qs
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidK,
    NonOrthogonalBasis,
)


def _info(msg: str, *args) -> None:
    """Log an INFO line when the process has loaded :mod:`logging` (the
    CLI's ``--verbose`` does); otherwise skip its import."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)

PROGRESS_EVERY = 2000  # Buchberger pairs between progress log lines


# ---------------------------------------------------------------------------
# Groebner and cofactor kernels on packed monomials
# ---------------------------------------------------------------------------

def _monic_terms(terms: dict) -> dict:
    lc = terms[max(terms)]
    return terms if lc == 1 else {m: c / lc for m, c in terms.items()}


def _divisor(terms: dict, guard: int) -> tuple:
    """Divisor record ``(lead | guard, lead, lead coefficient, tail)``."""
    lead = max(terms)
    return (lead | guard, lead, terms[lead], [(m, c) for m, c in terms.items() if m != lead])


def _reduce(work: dict, divisors: Sequence[tuple], guard: int) -> dict:
    """Full reduction of the packed terms ``work`` (consumed) by ``divisors``.

    Terms are visited in strictly descending order; each is reduced by the
    first divisor in list order whose lead divides it, or moved to the
    returned remainder.
    """
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:       # cancelled, or a duplicate heap entry
            continue
        for lg, lead, lc, tail in divisors:
            if (lg - m) & guard == guard:
                break
        else:
            remainder[m] = c
            continue
        f = c / lc
        shift = m - lead
        for t, tc in tail:
            mm = t + shift
            s = work.get(mm)
            if s is None:
                work[mm] = -f * tc
                heapq.heappush(heap, -mm)
            else:
                s -= f * tc
                if s:
                    work[mm] = s
                else:
                    del work[mm]
    return remainder


def normal_form(p: mi.Polynomial, basis: Sequence[mi.Polynomial]) -> mi.Polynomial:
    """Full reduction of ``p`` modulo ``basis``; idempotent.

    Terms are reduced in descending grevlex order, each by the first basis
    element (in list order) whose leading monomial divides it, so the result
    is determined for any basis, Groebner or not.  It contains no term
    divisible by any basis leading monomial.
    """
    P = mi._Packing(p.ring.nvars)
    divisors = [_divisor(P.pack_terms(g), P.guard) for g in basis if g]
    return P.polynomial(p.ring, _reduce(P.pack_terms(p), divisors, P.guard))


def _interreduce(terms_list: Iterable[dict], guard: int) -> list:
    """Reduce each packed polynomial against the others until stable:
    monic divisor records sorted by lead."""
    current = [_divisor(_monic_terms(t), guard) for t in terms_list if t]
    changed = True
    while changed:
        changed = False
        nxt = []
        for i, record in enumerate(current):
            terms = _record_terms(record)
            r = _reduce(dict(terms), nxt + current[i + 1:], guard)
            if r != terms:
                changed = True
            if r:
                nxt.append(_divisor(_monic_terms(r), guard))
        current = nxt
    current.sort(key=lambda d: d[1])
    return current


def _record_terms(record: tuple) -> dict:
    _, lead, lc, tail = record
    terms = dict(tail)
    terms[lead] = lc
    return terms


def _s_polynomial(f: tuple, g: tuple, lcm: int) -> dict:
    """Packed S-polynomial of two monic divisor records with lead lcm ``lcm``."""
    shift = lcm - f[1]
    work = {t + shift: c for t, c in f[3]}
    shift = lcm - g[1]
    for t, c in g[3]:
        m = t + shift
        s = work.get(m, 0) - c
        if s:
            work[m] = s
        else:
            work.pop(m, None)
    return work


def _gm_update(P: mi._Packing, polys: list, G: list, pairs: list, ih: int) -> None:
    """Gebauer-Moeller update for the new basis element ``polys[ih]``.

    ``G`` holds basis indices, ``pairs`` is a heap of ``(lcm, i, j)``; both
    are updated in place.
    """
    guard = P.guard
    lead_h = polys[ih][1]
    deg_h = P.degree(lead_h)
    lcms = {}
    cand = []
    for ig in G:
        lead_g = polys[ig][1]
        l = lcms[ig] = P.lcm(lead_h, lead_g)
        cand.append((l, P.degree(l) != deg_h + P.degree(lead_g), ig))
    # chain criterion (M and F): keep only the pairs whose lcm no other new
    # pair's lcm divides.  A divisor has lower degree or is equal, so one
    # ascending pass suffices; coprime pairs sort first among equal lcms and
    # are dropped only after they have served as divisors
    cand.sort()
    kept = []
    for l, not_coprime, ig in cand:
        if any((kg - l) & guard == guard for kg, _, _ in kept):
            continue
        kept.append((l | guard, not_coprime, (l, ih, ig)))
    # criterion B on the old pairs: drop (i, j) when lead_h divides its lcm
    # and the pairs (i, h), (j, h) have smaller lcms
    def lcm_with_h(i):
        return lcms[i] if i in lcms else P.lcm(polys[i][1], lead_h)

    hg = lead_h | guard
    surviving = []
    for pair in pairs:
        l, i, j = pair
        if (hg - l) & guard != guard or lcm_with_h(i) == l or lcm_with_h(j) == l:
            surviving.append(pair)
    surviving.extend(pair for _, not_coprime, pair in kept if not_coprime)
    heapq.heapify(surviving)
    pairs[:] = surviving
    G[:] = [ig for ig in G if (hg - polys[ig][1]) & guard != guard]
    G.append(ih)


def buchberger(generators: Sequence[mi.Polynomial]) -> list:
    """Reduced Groebner basis of the given generators (grevlex).

    Uses the normal pair-selection strategy (a heap keyed by lcm) with the
    Gebauer-Moeller criteria on packed monomials.  Logs progress every
    :data:`PROGRESS_EVERY` pairs; the reduced basis is unique for the
    generated ideal.
    """
    generators = [g for g in generators if g]
    if not generators:
        return []
    ring = generators[0].ring
    P = mi._Packing(ring.nvars)
    guard = P.guard
    polys = _interreduce([P.pack_terms(g) for g in generators], guard)
    G: list = []
    pairs: list = []
    for ih in range(len(polys)):
        _gm_update(P, polys, G, pairs, ih)
    divisors = [polys[ig] for ig in G]
    processed = 0
    while pairs:
        l, i, j = heapq.heappop(pairs)
        h = _reduce(_s_polynomial(polys[i], polys[j], l), divisors, guard)
        processed += 1
        if processed % PROGRESS_EVERY == 0:
            _info("buchberger: %d pairs processed, %d pending, basis size %d",
                  processed, len(pairs), len(G))
        if h:
            polys.append(_divisor(_monic_terms(h), guard))
            _gm_update(P, polys, G, pairs, len(polys) - 1)
            divisors = [polys[ig] for ig in G]
    reduced = _interreduce([_record_terms(polys[ig]) for ig in G], guard)
    return [P.polynomial(ring, _record_terms(d)) for d in reduced]


def in_ideal(p: mi.Polynomial, groebner: Sequence[mi.Polynomial]) -> bool:
    return normal_form(p, groebner).is_zero()


def linear_membership_cofactors(target: mi.Polynomial, generators: Sequence[mi.Polynomial],
                                cofactor_degree: int):
    """Explicit cofactors ``target = sum_i c_i g_i`` with polynomial ``c_i``
    of degree at most ``cofactor_degree``, or ``None``.

    For a homogeneous generator set of degree ``d``, membership of a
    degree-``d + e`` homogeneous target is a linear problem over the
    monomial-multiplied generators of cofactor degree ``e``; no Groebner
    basis is involved.  The returned list pairs each used generator index
    with its cofactor polynomial, ready to replay by expansion.
    """
    ring = target.ring
    P = mi._Packing(ring.nvars)
    packed = [_int_terms(P.pack_terms(g)) for g in generators]
    P.check_degree(max((g.degree() for g in generators), default=0) + cofactor_degree)
    work, sigma = _int_terms(P.pack_terms(target))
    solved = _cofactor_trail(work, sigma, packed, _cofactor_monomials(P, cofactor_degree))
    if solved is None:
        return None
    trail, sigma = solved
    cofactors: dict = {}
    for (i, mono), c in trail.items():
        cofactors.setdefault(i, {})[mono] = Fraction(c, sigma)
    out = [(i, mi.Polynomial(ring, terms)) for i, terms in sorted(cofactors.items())]
    # replay the identity before returning it
    acc = ring.zero()
    for i, c in out:
        acc = acc + c * generators[i]
    if acc != target:
        raise InternalInconsistency("cofactor bookkeeping failed: the identity does not replay")
    return out


def _cofactor_monomials(P: mi._Packing, degree: int) -> list:
    """``(exponents, packed monomial - one)`` of every cofactor monomial of
    degree 0..``degree``, in :func:`_monomials_up_to` order."""
    return [(mono, P.pack(mono) - P.one) for mono in _monomials_up_to(P.nvars, degree)]


def _cofactor_trail(work: dict, sigma: int, generators: Sequence[tuple], monomials: list):
    """The integer Macaulay solve behind :func:`linear_membership_cofactors`.

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


def _int_terms(terms: dict) -> tuple:
    """``(scale * terms, scale)`` with ``scale`` the least integer that makes
    every coefficient an int."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}, scale


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
# symbolic range matrices and minor ideals
# ---------------------------------------------------------------------------

def _site_variable_name(idx: int, n: int) -> str:
    i, j = divmod(idx, n)
    if i < 10 and j < 10:
        return f"psi{i}{j}"
    return f"psi_{i}_{j}"


def _named_basis(s: qs.BipartiteState, rng: em.Subspace, naming: str) -> tuple:
    """``(source, basis)``: the basis of ``rng``, the range of ``s``, that
    the certifier uses, as ``(variable, vector)`` pairs: the edges under
    their names (``naming="edge"``), or the edges when they are a basis,
    else the canonical RREF basis (``"range"``), named after each vector's
    leading site (``psi<i><j>``).  Repeated names get their position appended."""
    if naming == "edge":
        source, basis = "edges", [(e.name, e.vec) for e in s.edges or ()]
    else:
        vectors = qs.edge_basis(s, rng)
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
        if not supports[a].isdisjoint(supports[b]) and em.vdot(v1, v2):
            raise NonOrthogonalBasis(f"range basis vectors {n1} and {n2} overlap")


def range_coordinate_matrix(s: qs.BipartiteState, rng: em.Subspace,
                            naming: str) -> tuple:
    """``(source, matrix)``: ``rng``, the range of ``s``, as a symbolic
    coordinate matrix over the real, orthogonal basis :func:`_named_basis`
    names."""
    source, basis = _named_basis(s, rng, naming)
    sym = mi.coordinate_matrix(s.dim_a, s.dim_b, mi.PolyRing([name for name, _ in basis]), basis)
    _require_orthogonal(sym.basis)
    return source, sym


class Minor(mi.Polynomial):
    """A monic minor that remembers where it was first found:
    ``det M[rows, cols] = det_factor * minor`` for the sorted index tuples
    ``rows`` and ``cols``.  It compares equal to the plain polynomial."""

    __slots__ = ("rows", "cols", "det_factor")

    def __init__(self, ring: mi.PolyRing, terms: dict, rows: tuple, cols: tuple,
                 det_factor: Fraction):
        super().__init__(ring, terms)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "det_factor", det_factor)


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


def minor_ideal(M: mi.SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str]) -> list:
    """All nonzero ``k x k`` minors of ``M``, deduplicated, as monic :class:`Minor` objects.

    Minors containing any excluded variable are dropped entirely; the
    exclusion is a heuristic restriction of the generator set.  The output
    is sorted by leading monomial, then term count, then the first
    ``(rows, cols)`` in lexicographic order that yields the minor, which
    each :class:`Minor` carries with the factor of that determinant.

    Rows are chosen depth first from the bottom up: the table of all ``j x j``
    minors on a row suffix grows into the ``(j+1) x (j+1)`` table on one more
    row by Laplace expansion along that row, so every sub-minor is computed
    once and only the tables on the current path are held.
    """
    if k > min(M.dim_a, M.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    ring, P, rows, scales = M.ring, M.packing, M.rows, M.scales
    P.check_degree(k)
    excluded = sum(P.max << (P.width * ring._index[v]) for v in exclude_vars)
    found: dict = {}        # primitive terms -> (first rows, cols, leading coefficient)
    # depth-first over row sets, one (rows, minors on them, rows left to
    # prepend) frame per level
    path = [((), {(): {P.one: 1}}, iter(range(k - 1, M.dim_a)))]
    while path:
        chosen, table, candidates = path[-1]
        r = next(candidates, None)
        if r is None:
            path.pop()
            continue
        grown = mi._laplace_extend(table, rows[r])
        if not grown:
            continue        # every larger minor on these rows vanishes too
        chosen = (r,) + chosen
        if len(chosen) < k:
            path.append((chosen, grown, iter(range(k - len(chosen) - 1, r))))
            continue
        for cols, minor in grown.items():
            if _has_excluded(minor, excluded):
                continue
            key, lead = _primitive(minor)
            first = found.get(key)
            if first is None or (chosen, cols) < first[:2]:
                found[key] = (chosen, cols, lead)
    out = sorted(found, key=lambda key: (max(key)[0], len(key), found[key][:2]))
    minors = []
    for key in out:
        chosen, cols, lead = found[key]
        plead = max(key)[1]
        minors.append(Minor(ring, {P.unpack(m): Fraction(c, plead) for m, c in key}, chosen, cols,
                            Fraction(lead, math.prod(scales[r] for r in chosen))))
    return minors


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
    :func:`minor_ideal`.  Determinants are cached across powers.
    """

    def __init__(self, M: mi.SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str]):
        P = self.P = M.packing
        P.check_degree(k)
        self.k = k
        self.rows, self.scales = M.rows, M.scales
        self.excluded = sum(P.max << (P.width * M.ring._index[v]) for v in exclude_vars)
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
    witness: em.Vector
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


def certify_sn_lower(s: qs.BipartiteState, witness_vector: em.Vector, k: int,
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
    of :class:`_WitnessClosure`, in :func:`minor_ideal`'s order, and finds
    the cofactors the solve over every minor would; nothing is enumerated.
    The certificate keeps only the minors with a nonzero cofactor, each as
    its first ``[rows, cols]`` with the cofactor rescaled from the monic
    minor to that determinant.  Excluding variables only shrinks the ideal,
    so ``exclude_vars`` is a search heuristic and is not recorded.
    """
    if k < 1:
        raise InvalidK(f"k = {k}: a Schmidt-number lower bound needs k >= 1")
    rng = em.column_space(s.matrix)
    source, basis = _named_basis(s, rng, "edge" if exclude_vars else "site")
    sym, witness_var = mi.lower_bound_setup(s, rng, source, [name for name, _ in basis],
                                            witness_vector)
    _require_orthogonal(sym.basis)
    if k > min(sym.dim_a, sym.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    closure = _WitnessClosure(sym, k, exclude_vars)
    P = closure.P
    xw = closure.units[sym.ring._index[witness_var]]
    for N in range(k, 2 * k + 1):
        P.check_degree(N)
        target = P.one + N * xw
        found = closure.component(target)
        _info("certify_sn_lower: N=%d: %d minors in %d variables", N, len(found), P.nvars)
        # minor_ideal's order: leading monomial, term count, first (rows, cols)
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
        return LowerBound(k, tuple(witness_vector), witness_var, sym.ring.variables, source, N,
                          tuple((rows, cols, cof) for (rows, cols), cof in zip(pairs, terms)))
    return Inconclusive(f"{witness_var}^N has no cofactor representation for N <= {2 * k}")


def sn_upper_from_decomposition(target: qs.BipartiteState) -> UpperBound:
    """Certify ``SN(target) <= max SR(e)`` over the edges whose conic sum
    ``target`` is (nonnegative weights, checked when it was built)."""
    m, n = target.dims
    ranks = tuple(qs.schmidt_rank(e.vec, m, n) for e in target.edges)
    return UpperBound(max(ranks), ranks)


def certify_sn(s: qs.BipartiteState, k: int | None = None, exclude_deltas: bool = False) -> tuple:
    """``(lower, upper)`` Schmidt-number bounds of a state with recorded edges.

    The upper bound is the edges' decomposition
    (:func:`sn_upper_from_decomposition`).  The lower bound's witness is the
    first edge of maximal Schmidt rank and ``k`` defaults to that rank
    (:func:`certify_sn_lower`).  ``exclude_deltas`` leaves out the
    ``delta*`` edges' variables and names the variables after the edges, as
    the scaling family's certificates do.
    """
    upper = sn_upper_from_decomposition(s)
    witness = s.edges[upper.schmidt_ranks.index(upper.value)].vec
    exclude = [e.name for e in s.edges if e.name.startswith("delta")] if exclude_deltas else []
    lower = certify_sn_lower(s, witness, upper.value if k is None else k, exclude_vars=exclude)
    return lower, upper
