"""Symbolic range analysis and Schmidt-number certificates.

The range of a state is parametrized by one coordinate per range-basis
vector; vanishing of all ``k x k`` minors of the resulting coordinate
matrix cuts out exactly the Schmidt-rank ``<= k-1`` vectors.  Membership of
a power of the witness coordinate in the minor ideal, shown by an explicit
identity ``sum_i c_i det M[rows_i, cols_i] = x_w^N`` over the minors it
uses, then certifies a Schmidt-number lower bound via the Nullstellensatz.
Upper bounds come from explicit conic decompositions checked bit-exactly.
Buchberger's algorithm stays as an independent membership oracle.

Monomial order is graded reverse lexicographic with the variable order
fixed by range-basis index.  Polynomials carry exponent tuples; the
reduction, Buchberger, cofactor and minor kernels pack each monomial into
one int on entry and unpack on exit (:class:`_Packing`).  The certifier's
witness closure packs the matrix rows once and keeps its minors packed
until it writes the cofactors.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import exactmat as em
from . import qstates as qs
from .errors import (
    DecompositionMismatch,
    DimensionMismatch,
    InternalInconsistency,
    MonomialOverflow,
    NonOrthogonalBasis,
    NonSingleVariableOverlap,
    WitnessNotInRange,
)


def _info(msg: str, *args) -> None:
    """Log an INFO line when the process has loaded :mod:`logging` (the
    CLI's ``--verbose`` does); otherwise skip its import."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)

PROGRESS_EVERY = 2000  # Buchberger pairs between progress log lines


# ---------------------------------------------------------------------------
# polynomials over Q, grevlex order
# ---------------------------------------------------------------------------

def _grevlex_key(exps: tuple):
    return (sum(exps), tuple(-e for e in reversed(exps)))


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
            lead = max(self.terms, key=_grevlex_key)
            object.__setattr__(self, "_lead", lead)
        return lead

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return Polynomial(self.ring, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: c * x for m, x in self.terms.items()})

    def mul_term(self, coeff: Fraction, mono: tuple) -> "Polynomial":
        if not coeff:
            return self.ring.zero()
        return Polynomial(self.ring, {tuple(a + b for a, b in zip(m, mono)): coeff * c
                                      for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return Polynomial(self.ring, {m: c / lc for m, c in self.terms.items()})

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at rational values given per variable name."""
        vals = [Fraction(point[v]) for v in self.ring.variables]
        acc = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for v, e in zip(vals, m):
                for _ in range(e):
                    t *= v
            acc += t
        return acc

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
        for m in sorted(self.terms, key=_grevlex_key, reverse=True):
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
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# packed monomials: the Groebner, cofactor and minor kernels
# ---------------------------------------------------------------------------

class _Packing:
    """Monomials of an ``nvars``-variable ring packed into one Python int.

    Fields, most significant first: ``[degree | MAX-e_{n-1} | ... | MAX-e_0]``,
    each ``width`` bits with the top bit of every exponent field spare as a
    guard.  Integer order is then grevlex, the product of ``a`` and ``b`` is
    ``a + b - one``, the quotient ``a / b`` is ``a - b + one``, and ``a``
    divides ``b`` iff ``((a | guard) - b) & guard == guard``.  Every packed
    monomial has degree at most ``max``, so no field can wrap: packing and
    :meth:`lcm` raise :class:`MonomialOverflow` instead.
    """

    __slots__ = ("nvars", "width", "max", "one", "guard", "_spread")

    def __init__(self, nvars: int):
        # up to 32 bytes per monomial: four-byte fields for small rings, one
        # byte per field (degrees up to 127) from 16 variables on
        width = 8 * min(4, max(1, 32 // (nvars + 1)))
        self.nvars = nvars
        self.width = width
        self.max = (1 << (width - 1)) - 1
        self.one = sum(self.max << (width * i) for i in range(nvars))
        self.guard = sum(1 << (width * i + width - 1) for i in range(nvars))
        self._spread = sum(1 << (width * i) for i in range(nvars))

    def pack(self, exps: tuple) -> int:
        if len(exps) != self.nvars or min(exps, default=0) < 0:
            raise DimensionMismatch(f"exponent vector {exps} does not fit {self.nvars} variables")
        key = self.check_degree(sum(exps))
        for e in reversed(exps):
            key = (key << self.width) | (self.max - e)
        return key

    def unpack(self, key: int) -> tuple:
        w, mx = self.width, self.max
        return tuple(mx - ((key >> (w * i)) & mx) for i in range(self.nvars))

    def pack_terms(self, p: Polynomial) -> dict:
        return {self.pack(m): c for m, c in p.terms.items()}

    def polynomial(self, ring: PolyRing, terms: dict) -> Polynomial:
        return Polynomial(ring, {self.unpack(m): c for m, c in terms.items()})

    def degree(self, key: int) -> int:
        return key >> (self.width * self.nvars)

    def lcm(self, a: int, b: int) -> int:
        g, w = self.guard, self.width
        ge = ((a | g) - b) & g                  # guards of fields with e_a <= e_b
        ge -= ge >> (w - 1)                     # ... widened to their value bits
        low = (b & ge) | (a & (self.one ^ ge))  # per-field min = per-variable max
        # the exponent sum collects in field n-1 of (exponents * [1, ..., 1])
        deg = ((self.one - low) * self._spread >> (w * max(self.nvars - 1, 0))) & ((1 << w) - 1)
        return (self.check_degree(deg) << (w * self.nvars)) | low

    def check_degree(self, deg: int) -> int:
        if deg > self.max:
            raise MonomialOverflow(f"degree {deg} exceeds the packed limit {self.max} "
                                   f"of a {self.nvars}-variable ring")
        return deg


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
    P = _Packing(p.ring.nvars)
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


def _gm_update(P: _Packing, polys: list, G: list, pairs: list, ih: int) -> None:
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
    P = _Packing(ring.nvars)
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


def in_ideal(p: Polynomial, groebner: Sequence[Polynomial]) -> bool:
    return normal_form(p, groebner).is_zero()


def linear_membership_cofactors(target: Polynomial, generators: Sequence[Polynomial],
                                cofactor_degree: int = 0):
    """Explicit cofactors ``target = sum_i c_i g_i`` with polynomial ``c_i``
    of degree at most ``cofactor_degree``, or ``None``.

    For a homogeneous generator set of degree ``d``, membership of a
    degree-``d + e`` homogeneous target is a linear problem over the
    monomial-multiplied generators of cofactor degree ``e``; no Groebner
    basis is involved.  The returned list pairs each used generator index
    with its cofactor polynomial, ready to replay by expansion.
    """
    ring = target.ring
    P = _Packing(ring.nvars)
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
    out = [(i, Polynomial(ring, terms)) for i, terms in sorted(cofactors.items())]
    # replay the identity before returning it
    acc = ring.zero()
    for i, c in out:
        acc = acc + c * generators[i]
    if acc != target:
        raise InternalInconsistency("cofactor bookkeeping failed: the identity does not replay")
    return out


def _cofactor_monomials(P: _Packing, degree: int) -> list:
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

class SymbolicRangeMatrix(NamedTuple):
    """Coordinate matrix ``Psi_ij = <ij|psi(x)>`` of a parametrized range vector.

    ``basis`` holds the (name, vector) pairs backing each variable, in
    variable order; all entries are degree <= 1.
    """

    dim_a: int
    dim_b: int
    ring: PolyRing
    entries: tuple          # tuple[tuple[Polynomial, ...], ...]
    basis: tuple            # tuple[(name, em.Vector), ...]

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def zero_pattern(self) -> set:
        return {(i, j) for i in range(self.dim_a) for j in range(self.dim_b)
                if self.entries[i][j].is_zero()}


def _site_variable_name(idx: int, n: int) -> str:
    i, j = divmod(idx, n)
    if i < 10 and j < 10:
        return f"psi{i}{j}"
    return f"psi_{i}_{j}"


def range_coordinate_matrix(s: qs.BipartiteState, require_orthogonal_basis: bool = False,
                            naming: str = "site") -> SymbolicRangeMatrix:
    """Parametrize R(rho) as a symbolic coordinate matrix.

    Uses the state's recorded edge decomposition as the range basis when it
    is linearly independent and spans the range; otherwise the canonical
    RREF basis of the range.  Variables are named after each basis vector's
    leading site (``psi<i><j>``, ``naming="site"``) or after the recorded
    edge names (``naming="edge"``).

    Basis entries must be real: the coordinate ring is Q.
    """
    if naming not in ("site", "edge"):
        raise ValueError("naming must be 'site' or 'edge'")
    m, n = s.dims
    rho_rank = em.rank(s.matrix)
    basis: list = []
    if s.edges is not None:
        vecs = [e.vec for e in s.edges]
        if len(vecs) == rho_rank and em.Subspace(m * n, vecs).dim == rho_rank:
            basis = [(e.name, e.vec) for e in s.edges]
    if basis and naming == "site":
        basis = [(_site_variable_name(next(i for i, x in enumerate(v) if x), n), v)
                 for _, v in basis]
    if not basis:
        if naming == "edge":
            raise NonOrthogonalBasis("state has no usable edge basis for edge naming")
        canonical = em.column_space(s.matrix).basis
        basis = [(_site_variable_name(next(i for i, x in enumerate(v) if x), n), v)
                 for v in canonical]
    names = [name for name, _ in basis]
    if len(set(names)) != len(names):
        basis = [(f"{name}_{l}", v) for l, (name, v) in enumerate(basis)]
    if require_orthogonal_basis:
        supports = [frozenset(i for i, x in enumerate(v) if x) for _, v in basis]
        for (a, (n1, v1)), (b, (n2, v2)) in itertools.combinations(enumerate(basis), 2):
            # vectors with disjoint supports are orthogonal
            if not supports[a].isdisjoint(supports[b]) and em.vdot(v1, v2):
                raise NonOrthogonalBasis(f"range basis vectors {n1} and {n2} overlap")
    return coordinate_matrix(m, n, PolyRing([name for name, _ in basis]), basis)


def coordinate_matrix(m: int, n: int, ring: PolyRing, basis: Sequence) -> SymbolicRangeMatrix:
    """Coordinate matrix ``Psi_ij = sum_l v_l[ij] x_l`` of ``(name, vector)`` pairs.

    Basis entries must be real: the coordinate ring is Q.
    """
    for _, v in basis:
        if any(x.im != 0 for x in v):
            raise NonOrthogonalBasis("range basis must be real for Q-coefficients")
    units = [tuple(1 if t == l else 0 for t in range(len(basis))) for l in range(len(basis))]
    entries = tuple(
        tuple(Polynomial(ring, {units[l]: v[i * n + j].re for l, (_, v) in enumerate(basis)})
              for j in range(n))
        for i in range(m))
    return SymbolicRangeMatrix(m, n, ring, entries, tuple(basis))


def _laplace_extend(table: dict, row: list) -> dict:
    """Minors on one more (first) row from the ``table`` of minors on the rest.

    ``table`` maps a sorted column tuple to the packed terms of its minor;
    ``row`` lists the new row's nonzero entries as ``(column, [(monomial -
    one, coefficient)])``.  Coefficients are ints (:func:`_packed_rows`).
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


def _packed_rows(M: SymbolicRangeMatrix, P: _Packing, k: int) -> tuple:
    """``(rows, scales)``: the nonzero entries of each row of ``M`` times
    ``scales[row]``, the lcm of the row's denominators, as ``(column,
    [(monomial - one, int coefficient)])``, after checking that ``k x k``
    minors fit ``P``.  A minor of the scaled rows is the minor of ``M``
    times the product of their scales."""
    P.check_degree(k * max((e.degree() for row in M.entries for e in row), default=0))
    rows, scales = [], []
    for row in M.entries:
        scale = math.lcm(*(c.denominator for e in row for c in e.terms.values()))
        rows.append([(j, [(P.pack(m) - P.one, c.numerator * (scale // c.denominator))
                          for m, c in e.terms.items()]) for j, e in enumerate(row) if e])
        scales.append(scale)
    return rows, scales


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


def minor_ideal(M: SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str] = ()) -> list:
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
    ring = M.ring
    P = _Packing(ring.nvars)
    excluded = sum(P.max << (P.width * ring._index[v]) for v in exclude_vars)
    rows, scales = _packed_rows(M, P, k)
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
        grown = _laplace_extend(table, rows[r])
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


def _determinant(rows: list, P: _Packing, chosen: tuple, cols: tuple) -> dict:
    """Packed int terms of the minor of the :func:`_packed_rows` ``rows`` on
    ``chosen`` x ``cols`` (empty when it vanishes)."""
    keep = set(cols)
    table = {(): {P.one: 1}}
    for r in reversed(chosen):
        table = _laplace_extend(table, [(c, e) for c, e in rows[r] if c in keep])
    return table.get(tuple(cols), {})


def minor_identity_holds(M: SymbolicRangeMatrix, power: int, witness_variable: str,
                         pairs: Sequence[tuple], cofactors: Sequence[dict]) -> bool:
    """Whether ``sum cofactor_i * det M[rows_i, cols_i] = x_w^power`` exactly.

    ``pairs`` lists the ``(rows, cols)`` of each minor and ``cofactors`` the
    matching terms (exponent tuple -> Fraction) of degree ``power - k``.
    Only these determinants are computed, on the packed int rows of ``M``
    (:func:`_packed_rows`, :func:`_determinant`), and the sum is compared
    with ``x_w^power`` over one common denominator: that of every cofactor
    coefficient times its minor's row scales.  Both the certifier and the
    verifier of sn-lower identities call it.
    """
    P = _Packing(M.ring.nvars)
    rows, scales = _packed_rows(M, P, power)  # every product has degree power
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
    target = tuple(power if v == witness_variable else 0 for v in M.ring.variables)
    return acc == {P.pack(target): den}


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

    def __init__(self, M: SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str] = ()):
        ring = M.ring
        P = self.P = _Packing(ring.nvars)
        self.k = k
        self.rows, self.scales = _packed_rows(M, P, k)
        self.excluded = sum(P.max << (P.width * ring._index[v]) for v in exclude_vars)
        # variable l as a packed factor: monomial * x_l = monomial + units[l]
        self.units = [(1 << (P.width * P.nvars)) - (1 << (P.width * l)) for l in range(P.nvars)]
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
        terms = _determinant(self.rows, self.P, *pos)
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

# == and hash of a record over its ``_compared()`` fields only
def _record_eq(self, other):
    return self._compared() == other._compared() if type(other) is type(self) \
        else NotImplemented


def _record_ne(self, other):
    eq = _record_eq(self, other)
    return eq if eq is NotImplemented else not eq


def _record_hash(self):
    return hash(self._compared())


class SNCertificate(NamedTuple):
    """Replayable Schmidt-number bound.

    ``kind`` is "lower" or "upper"; ``value`` the certified bound.  Lower
    evidence is an indexed cofactor identity: ``minors`` lists
    ``[rows, cols, cofactor]`` with ``sum cofactor * det M[rows, cols] =
    witness_variable^power`` over the coordinate matrix ``M`` of the stored
    range basis, and replays by computing those determinants only.  Upper
    evidence replays by re-summing the stored decomposition.
    """

    kind: str
    value: int
    evidence: dict          # left out of ==

    def _compared(self) -> tuple:
        return self.kind, self.value

    __eq__, __ne__, __hash__ = _record_eq, _record_ne, _record_hash


class Inconclusive(NamedTuple):
    """Negative space of a certificate search: nothing was proven."""

    reason: str


def certify_sn_lower(s: qs.BipartiteState, witness_vector: em.Vector, k: int,
                     exclude_vars: Sequence[str] = (), naming: str = "site"):
    """Certify ``SN(s) >= k`` through the range criterion.

    Searches the smallest ``N <= 2k`` with ``x_w^N`` in the ideal of
    ``k x k`` minors, where ``x_w`` is the single range coordinate the
    witness overlaps.  Membership means every Schmidt-rank ``k-1`` vector in
    the range is orthogonal to the witness, which itself lies in the range,
    so no rank ``<= k-1`` decomposition can exist.  Returns an
    :class:`SNCertificate` on success, :class:`Inconclusive` otherwise.

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
    if not em.column_space(s.matrix).contains(witness_vector):
        raise WitnessNotInRange("witness vector is not in R(rho)")
    sym = range_coordinate_matrix(s, require_orthogonal_basis=True, naming=naming)
    overlaps = [(name, em.vdot(v, witness_vector)) for name, v in sym.basis]
    nonzero = [(name, c) for name, c in overlaps if c]
    if len(nonzero) != 1:
        raise NonSingleVariableOverlap(
            f"witness overlaps {len(nonzero)} basis vectors, need exactly 1")
    if k > min(sym.dim_a, sym.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    witness_var = nonzero[0][0]
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
        if not minor_identity_holds(sym, N, witness_var, pairs, terms):
            raise InternalInconsistency("cofactor bookkeeping failed: the identity does not replay")
        return SNCertificate("lower", k, {
            "witness": [em.format_scalar(x) for x in witness_vector],
            "witness_variable": witness_var,
            "variables": list(sym.ring.variables),
            "basis": [[em.format_scalar(x) for x in v] for _, v in sym.basis],
            "power": N,
            "minors": [[list(rows), list(cols), poly_to_json(Polynomial(sym.ring, cof))]
                       for (rows, cols), cof in zip(pairs, terms)],
        })
    return Inconclusive(f"{witness_var}^N has no cofactor representation for N <= {2 * k}")


def sn_upper_from_decomposition(vectors: Sequence[em.Vector], weights: Sequence[Fraction],
                                target: qs.BipartiteState) -> SNCertificate:
    """Certify ``SN(target) <= max SR(v_i)`` from an exact decomposition."""
    m, n = target.dims
    if em.weighted_gram(vectors, [Fraction(w) for w in weights], m * n) != target.matrix:
        raise DecompositionMismatch("decomposition does not reproduce the target")
    ranks = [qs.schmidt_rank(v, m, n) for v in vectors]
    value = max(ranks)
    evidence = {
        "vectors": [[em.format_scalar(x) for x in v] for v in vectors],
        "weights": [em.format_scalar(Fraction(w)) for w in weights],
        "schmidt_ranks": ranks,
    }
    return SNCertificate("upper", value, evidence)


# ---------------------------------------------------------------------------
# separability rule set
# ---------------------------------------------------------------------------

TRUSTED_RULES = {
    "R1": "peres-horodecki separability in 2x2 and 2x3",
    "R3": "2x4 PPT with a product vector in the kernel is separable",
    "R4": "3x3 PPT states have Schmidt number at most 2",
}


class RuleVerdict(NamedTuple):
    """Outcome of the trusted separability rule set."""

    separable: bool
    rule: str | None
    sn_bound: int | None
    trusted_rules_used: tuple
    details: dict           # left out of ==
    entangled: bool = False

    def _compared(self) -> tuple:
        return self.separable, self.rule, self.sn_bound, self.trusted_rules_used, self.entangled

    __eq__, __ne__, __hash__ = _record_eq, _record_ne, _record_hash


def _is_ppt(s: qs.BipartiteState) -> bool:
    return em.psd_check(s.partial_transpose("A")).is_psd


def separability_rules(s: qs.BipartiteState, kernel_candidates: Sequence[em.Vector] = ()) -> RuleVerdict:
    """Apply the trusted rules in order R1, R2, R3, R4.

    R1: 2x2 or 2x3 dimensions and PPT.  R2: the support splits into a sum
    of local blocks, each one 1-dimensional on a side, diagonal, or
    R1-certified, plus isolated diagonal product terms.  R3: 2x4 PPT with a
    verified product vector in the kernel.  R4 records the Schmidt-number
    bound 2 for 3x3 PPT states without claiming separability.  Every applied
    trusted rule is named in the verdict.
    """
    dims = tuple(sorted(s.dims))
    ppt = _is_ppt(s)
    if not ppt:
        return RuleVerdict(False, None, None, (), entangled=True,
                           details={"reason": "partial transpose not PSD"})
    if dims in ((2, 2), (2, 3)) or 1 in dims:
        rule = "R1" if dims in ((2, 2), (2, 3)) else "R2"
        used = (TRUSTED_RULES["R1"],) if rule == "R1" else ()
        return RuleVerdict(True, rule, 1, used,
                           details={"reason": f"PPT in {s.dim_a}x{s.dim_b}"})
    ok, info = block_separability(s)
    if ok:
        return RuleVerdict(True, "R2", 1, tuple(info.get("trusted", ())), details=info)
    if dims == (2, 4):
        prod = _kernel_product_vector(s, kernel_candidates)
        if prod is not None:
            return RuleVerdict(True, "R3", 1, (TRUSTED_RULES["R3"],),
                               details={"kernel_product": [em.format_scalar(x) for x in prod]})
    if s.dims == (3, 3):
        return RuleVerdict(False, None, 2, (TRUSTED_RULES["R4"],),
                           details={"reason": "3x3 PPT: SN <= 2 recorded, separability unknown"})
    return RuleVerdict(False, None, None, (), details={})


def block_separability(s: qs.BipartiteState):
    """Direct-sum local block decomposition (rule R2 workhorse).

    Local indices tied together by off-diagonal entries form clusters; each
    cluster's block is the principal submatrix over its index rectangle
    ``A_t x B_t``, which keeps interior diagonal terms inside the block
    (dropping them can break the block's positivity under partial
    transposition).  Diagonal sites outside every rectangle peel off as
    product states.  Each block must be trivially separable (a local
    dimension of 1, or diagonal) or certified by the 2x2 / 2x3 PPT rule.
    Returns ``(ok, details)``.
    """
    M = s.matrix
    m, n = s.dims
    size = m * n
    parent = list(range(m + n))  # nodes: A indices, then B indices at offset m

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    live = set()
    coupled = set()
    for r in range(size):
        for c in range(size):
            if M.entry(r, c):
                live.add(r)
                live.add(c)
                if r != c:
                    coupled.update((r, c))
                    a1, b1 = divmod(r, n)
                    a2, b2 = divmod(c, n)
                    union(a1, a2)
                    union(m + b1, m + b2)
                    union(a1, m + b1)
    clusters: dict = {}
    for r in coupled:
        a, b = divmod(r, n)
        clusters.setdefault(find(a), [set(), set()])
        root = find(a)
        clusters[root][0].add(a)
        clusters[root][1].add(b)

    products = []
    blocks = []
    trusted = []
    for rows_a, rows_b in clusters.values():
        rows_a, rows_b = sorted(rows_a), sorted(rows_b)
        block = qs.project_local_block(s, rows_a, rows_b)
        dims = tuple(sorted(block.dims))
        entry = {"rows_a": rows_a, "rows_b": rows_b, "dims": list(block.dims)}
        if 1 in dims:
            entry["rule"] = "local-dimension-1"
        elif block.matrix.is_diagonal():
            entry["rule"] = "diagonal"
        elif dims in ((2, 2), (2, 3)) and _is_ppt(block):
            entry["rule"] = "peres-horodecki"
            trusted.append(TRUSTED_RULES["R1"])
        else:
            return False, {"failed_block": entry, "blocks": blocks, "products": products}
        blocks.append(entry)
    # reconstruction sanity: every live entry is either inside one rectangle
    # or an isolated diagonal outside all rectangles
    rect_membership = {}
    for t, (rows_a, rows_b) in enumerate(clusters.values()):
        for a in rows_a:
            for b in rows_b:
                rect_membership[a * n + b] = t
    for r in sorted(live):
        if r in rect_membership:
            continue
        a, b = divmod(r, n)
        if not M.entry(r, r):
            continue
        products.append({"site": [a, b], "weight": em.format_scalar(M.entry(r, r).re)})
    for r in range(size):
        for c in range(size):
            if M.entry(r, c) and r != c:
                if rect_membership.get(r) is None or rect_membership.get(r) != rect_membership.get(c):
                    return False, {"failed_block": "off-diagonal entry escapes all rectangles",
                                   "blocks": blocks, "products": products}
    return True, {"blocks": blocks, "products": products, "trusted": trusted}


def _kernel_product_vector(s: qs.BipartiteState, candidates: Sequence[em.Vector]):
    """Search a product vector in ker(rho): supplied candidates first, then
    kernel basis vectors of Schmidt rank 1.  The search is not exhaustive."""
    m, n = s.dims
    _, kern = em.rank_and_kernel(s.matrix)
    for v in candidates:
        if kern.contains(v) and qs.schmidt_rank(v, m, n) == 1:
            return v
    for v in kern.basis:
        if qs.schmidt_rank(v, m, n) == 1:
            return v
    return None


# ---------------------------------------------------------------------------
# the explicit cofactor identity behind the 4x5 certification
# ---------------------------------------------------------------------------

def cofactor_identity_4x5(perturb: bool = False) -> bool:
    """Verify the explicit Nullstellensatz identity for the 4x5 coordinate ideal.

    With the five minors

        g1 = x20*(x00^2 - x01*x10),   g2 = x02*(x00^2 + x01*x10),
        g3 = x20*(x01^2 - x00*x02),   g4 = -x02*(x10^2 + x00*x20),
        g5 = x00^3 + x01^2*x20 - x10^2*x02 - x00*x02*x20,

    direct expansion shows

        x00*(g5 - g3 - g4) - (x02*g1 + x20*g2)/2 = x00^4,

    so x00^4 lies in the ideal generated by the g_i.  (The cofactors on g1
    and g2 carry the factor 1/2; the variant without it misses by
    x00^2*x02*x20 + 2*x01*x10*x02*x20 and is exposed here as the
    ``perturb`` branch for testing.)  Independent of Groebner machinery.
    """
    ring = PolyRing(["x00", "x01", "x10", "x02", "x20"])
    x00, x01, x10, x02, x20 = (ring.var(v) for v in ring.variables)
    g1 = x20 * (x00 * x00 - x01 * x10)
    g2 = x02 * (x00 * x00 + x01 * x10)
    g3 = x20 * (x01 * x01 - x00 * x02)
    g4 = -(x02 * (x10 * x10 + x00 * x20))
    g5 = x00 * x00 * x00 + x01 * x01 * x20 - x10 * x10 * x02 - x00 * x02 * x20
    if perturb:
        lhs = x00 * (g5 - g3 - g4) - x02 * g1 + x20 * g2
    else:
        lhs = x00 * (g5 - g3 - g4) - (x02 * g1 + x20 * g2).scale(Fraction(1, 2))
    return (lhs - x00 ** 4).is_zero()


# ---------------------------------------------------------------------------
# edge-state verdicts
# ---------------------------------------------------------------------------

class EdgeVerdict(NamedTuple):
    """Range-criterion edge check, limited to the supplied candidates."""

    is_edge_for_candidates: bool
    candidates: tuple
    details: tuple


def edge_state_check(s: qs.BipartiteState, candidates: Sequence[em.Vector] | None = None) -> EdgeVerdict:
    """Check whether any candidate product vector blocks the edge property.

    A state is an edge state when no product vector ``|a b>`` in its range
    has its partial conjugate ``|a b*>`` in the range of the partial
    transpose.  Only the finite candidate list is examined (grid product
    edges by default), and the verdict says so.
    """
    m, n = s.dims
    if candidates is None:
        candidates = [e.vec for e in (s.edges or ())
                      if qs.schmidt_rank(e.vec, m, n) == 1]
    range_rho = em.column_space(s.matrix)
    range_pt = em.column_space(s.partial_transpose("B"))
    details = []
    blocked = False
    for v in candidates:
        if qs.schmidt_rank(v, m, n) != 1:
            raise DimensionMismatch("candidates must be product vectors")
        in_range = range_rho.contains(v)
        conj_v = _partial_conjugate(v, m, n)
        pt_in_range = range_pt.contains(conj_v) if in_range else False
        details.append({"in_range": in_range, "pt_in_corange": pt_in_range})
        if in_range and pt_in_range:
            blocked = True
    return EdgeVerdict(not blocked, tuple(tuple(v) for v in candidates), tuple(details))


def _partial_conjugate(v: em.Vector, m: int, n: int) -> em.Vector:
    """``|a b> -> |a b*>`` for a product vector: conjugate the B factor.

    For a rank-one matricization ``u w^T`` the partially conjugated vector
    has matricization ``u w*^T``; entrywise this is well defined for
    product vectors only, where it equals the conjugate up to the global
    phase of ``u``.  Exactness keeps this closed over Gaussian rationals.
    """
    A = em.ExactMatrix([[v[i * n + j] for j in range(n)] for i in range(m)])
    # rank-one factorization: first nonzero row/column
    for i in range(m):
        if any(A.row(i)):
            row = A.row(i)
            break
    pivot_j = next(j for j, x in enumerate(row) if x)
    col = A.col(pivot_j)
    # v = col (x) row / row[pivot_j]; conjugate the B factor (the row)
    scale = em.ONE / row[pivot_j]
    out = [em.ZERO] * (m * n)
    for i in range(m):
        for j in range(n):
            out[i * n + j] = col[i] * row[j].conj() * scale.conj()
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomial JSON
# ---------------------------------------------------------------------------

def poly_to_json(p: Polynomial) -> dict:
    return {"terms": [[list(m), em.format_scalar(c)]
                      for m, c in sorted(p.terms.items(), key=lambda t: _grevlex_key(t[0]))]}
