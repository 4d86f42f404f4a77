"""The Groebner oracle: Buchberger's algorithm and the minor ideal.

An independent check of the certifier (:mod:`pptlab.certifier`), which
does not use it: a reduced Groebner basis of all ``k x k`` minors of a range
coordinate matrix (:func:`minor_ideal`, :func:`buchberger`) decides ideal
membership by normal form (:func:`in_ideal`), and
:func:`linear_membership_cofactors` finds explicit cofactors over every
minor by the certifier's integer Macaulay solve.  Acceptance criterion 1
and the tests use it; ``certify-sn`` and ``verify`` never load it.

The reduction, Buchberger and cofactor kernels pack each monomial into one
int on entry (:class:`minors._Packing`) and unpack on exit; the minor
kernels read the packed rows of the coordinate matrix.  The range basis
and the minors' bookkeeping are the certifier's.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import minors as mi
from . import replay as rp
from .certifier import (_cofactor_monomials, _cofactor_trail, _has_excluded, _info,
                        _named_basis, _primitive, _require_orthogonal)
# the benchmark's tracer (pptbench/tracer.py) wraps these two under this module
from .certifier import certify_sn_lower, sn_upper_from_decomposition  # noqa: F401
from .errors import DimensionMismatch, InternalInconsistency

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
            _info(__name__, "buchberger: %d pairs processed, %d pending, basis size %d",
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


def _int_terms(terms: dict) -> tuple:
    """``(scale * terms, scale)`` with ``scale`` the least integer that makes
    every coefficient an int."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}, scale


# ---------------------------------------------------------------------------
# symbolic range matrices and minor ideals
# ---------------------------------------------------------------------------

def range_coordinate_matrix(s: rp.BipartiteState, rng: rp.Subspace,
                            naming: str) -> tuple:
    """``(source, matrix)``: ``rng``, the range of ``s``, as a symbolic
    coordinate matrix over the real, orthogonal basis :func:`certifier._named_basis`
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
