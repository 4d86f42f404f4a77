"""The Groebner oracle: polynomials over Q, Buchberger and the minor ideal.

An independent check of the certifier (:mod:`pptlab.certifier`), which
does not use it: a reduced Groebner basis of all ``k x k`` minors of a range
coordinate matrix (:func:`minor_ideal`, :func:`buchberger`) decides ideal
membership by normal form (:func:`in_ideal`), and
:func:`linear_membership_cofactors` finds explicit cofactors over every
minor by the certifier's integer Macaulay solve.  Only the tests use it:
no module of the package imports it, so no ``pptlab`` process loads it.

It owns the rational polynomials (:class:`PolyRing`, :class:`Polynomial`
and :class:`Minor`).  Its kernels pack each monomial into one int on entry
(:func:`pack_terms`, :class:`minors._Packing`) and unpack on exit
(:func:`polynomial`); the minor kernels read the packed rows of the
coordinate matrix.  The range basis and the minors' bookkeeping are the
certifier's.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import minors as mi
from . import replay as rp
from .certifier import (_cofactor_monomials, _cofactor_trail, _has_excluded, _info,
                        _primitive, _variables)
# the benchmark's tracer (pptbench/tracer.py) wraps these two under this module
from .certifier import certify_sn_lower, sn_upper_from_decomposition  # noqa: F401
from .errors import DimensionMismatch, InternalInconsistency

PROGRESS_EVERY = 2000  # Buchberger pairs between progress log lines


# ---------------------------------------------------------------------------
# polynomials over Q, grevlex order
# ---------------------------------------------------------------------------

class PolyRing:
    """Polynomial ring over Q with named variables and grevlex order."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables: Sequence[str]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vs)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    def var(self, name: str) -> "Polynomial":
        i = self._index[name]
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {e: Fraction(1)})

    def monomial_str(self, exps: tuple) -> str:
        parts = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)})"


class Polynomial:
    """Sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self) -> tuple:
        lead = self._lead
        if lead is None and self.terms:
            lead = max(self.terms, key=mi._grevlex_key)
            object.__setattr__(self, "_lead", lead)
        return lead

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    # the constructor drops the zero coefficients that sums and products leave
    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    out[m] = out.get(m, 0) + c1 * c2
            return Polynomial(self.ring, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.ring, {m: c * x for m, x in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def monic(self) -> "Polynomial":
        lc = self.leading_coeff() if self.terms else 1
        return self if lc == 1 else Polynomial(self.ring, {m: c / lc for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mi._grevlex_key, reverse=True):
            c = self.terms[m]
            mono = self.ring.monomial_str(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


def pack_terms(P: mi._Packing, p: Polynomial) -> dict:
    return {P.pack(m): c for m, c in p.terms.items()}


def polynomial(P: mi._Packing, ring: PolyRing, terms: dict) -> Polynomial:
    return Polynomial(ring, {_unpack(P, m): c for m, c in terms.items()})


def _unpack(P: mi._Packing, key: int) -> tuple:  # the oracle's, as is _lcm
    w, mx = P.width, P.max
    return tuple(mx - ((key >> (w * i)) & mx) for i in range(P.nvars))


def _guard(P: mi._Packing) -> int:  # a divides b iff ((a | guard) - b) & guard == guard
    return sum(1 << (P.width * i + P.width - 1) for i in range(P.nvars))


def _lcm(P: mi._Packing, g: int, a: int, b: int) -> int:
    w = P.width
    ge = ((a | g) - b) & g                  # guards of fields with e_a <= e_b
    ge -= ge >> (w - 1)                     # ... widened to their value bits
    low = (b & ge) | (a & (P.one ^ ge))     # per-field min = per-variable max
    # the exponent sum collects in field n-1 of (exponents * [1, ..., 1]),
    # and P.one is MAX * [1, ..., 1]
    deg = ((P.one - low) * (P.one // P.max) >> (w * max(P.nvars - 1, 0))) & ((1 << w) - 1)
    return (P.check_degree(deg) << (w * P.nvars)) | low


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


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full reduction of ``p`` modulo ``basis``; idempotent.

    Terms are reduced in descending grevlex order, each by the first basis
    element (in list order) whose leading monomial divides it, so the result
    is determined for any basis, Groebner or not.  It contains no term
    divisible by any basis leading monomial.
    """
    P = mi._Packing(p.ring.nvars)
    guard = _guard(P)
    divisors = [_divisor(pack_terms(P, g), guard) for g in basis if g]
    return polynomial(P, p.ring, _reduce(pack_terms(P, p), divisors, guard))


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
    guard, top = _guard(P), P.width * P.nvars     # a packed monomial's degree is key >> top
    lead_h = polys[ih][1]
    deg_h = lead_h >> top
    lcms = {}
    cand = []
    for ig in G:
        lead_g = polys[ig][1]
        l = lcms[ig] = _lcm(P, guard, lead_h, lead_g)
        cand.append((l, l >> top != deg_h + (lead_g >> top), ig))
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
        return lcms[i] if i in lcms else _lcm(P, guard, polys[i][1], lead_h)

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


def buchberger(generators: Sequence[Polynomial]) -> list:
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
    guard = _guard(P)
    polys = _interreduce([pack_terms(P, g) for g in generators], guard)
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
    return [polynomial(P, ring, _record_terms(d)) for d in reduced]


def in_ideal(p: Polynomial, groebner: Sequence[Polynomial]) -> bool:
    return normal_form(p, groebner).is_zero()


def linear_membership_cofactors(target: Polynomial, generators: Sequence[Polynomial],
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
    packed = [_int_terms(pack_terms(P, g)) for g in generators]
    P.check_degree(max((g.degree() for g in generators), default=0) + cofactor_degree)
    work, sigma = _int_terms(pack_terms(P, target))
    solved = _cofactor_trail(work, sigma, packed, _cofactor_monomials(P, cofactor_degree))
    if solved is None:
        return None
    trail, sigma = solved
    cofactors: dict = {}
    for (i, mono), c in trail.items():
        cofactors.setdefault(i, {})[mono] = Fraction(c, sigma)
    out = [(i, Polynomial(ring, terms)) for i, terms in sorted(cofactors.items())]
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

def range_coordinate_matrix(s: rp.BipartiteState, naming: str) -> tuple:
    """``(source, matrix)``: the range of ``s`` as a coordinate matrix over a
    real basis: the edges under their names (``naming="edge"``), or the
    basis :func:`minors.range_basis` picks, under site names."""
    _, source, vectors = mi.range_basis(s)
    if naming == "edge":
        source, vectors = "edges", [e.vec for e in s.edges]
    names = _variables(s, naming, vectors)
    return source, mi.coordinate_matrix(*s.dims, tuple(zip(names, vectors)))


class Minor(Polynomial):
    """A monic minor that remembers where it was first found:
    ``det M[rows, cols] = det_factor * minor`` for the sorted index tuples
    ``rows`` and ``cols``.  It compares equal to the plain polynomial."""

    __slots__ = ("rows", "cols", "det_factor")

    def __init__(self, ring: PolyRing, terms: dict, rows: tuple, cols: tuple,
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
    ring, P, rows, scales = PolyRing(M.variables), M.packing, M.rows, M.scales
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
        minors.append(Minor(ring, {_unpack(P, m): Fraction(c, plead) for m, c in key}, chosen, cols,
                            Fraction(lead, math.prod(scales[r] for r in chosen))))
    return minors
