"""Symbolic range analysis and Schmidt-number certificates.

The range of a state is parametrized by one coordinate per range-basis
vector; vanishing of all ``k x k`` minors of the resulting coordinate
matrix cuts out exactly the Schmidt-rank ``<= k-1`` vectors.  Membership of
a power of the witness coordinate in the minor ideal, decided through a
Groebner basis over the rationals, then certifies a Schmidt-number lower
bound via the Nullstellensatz.  Upper bounds come from explicit conic
decompositions checked bit-exactly.

Monomial order is graded reverse lexicographic with the variable order
fixed by range-basis index; the order is recorded in every certificate so
reductions can be replayed.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactmat as em
from . import qstates as qs
from .errors import (
    DecompositionMismatch,
    DimensionMismatch,
    NonOrthogonalBasis,
    NonSingleVariableOverlap,
    WitnessNotInRange,
)

log = logging.getLogger(__name__)


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


def _divides(m1: tuple, m2: tuple) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _lcm(m1: tuple, m2: tuple) -> tuple:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _coprime(m1: tuple, m2: tuple) -> bool:
    return all(a == 0 or b == 0 for a, b in zip(m1, m2))


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full reduction of ``p`` modulo ``basis``; idempotent.

    The result contains no term divisible by any basis leading monomial.
    """
    divisors = [(g.leading_monomial(), g.leading_coeff(), g) for g in basis if g]
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in divisors:
            if _divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, lc, g = hit
        shift = tuple(a - b for a, b in zip(m, lm))
        factor = c / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            mm = tuple(a + b for a, b in zip(gm, shift))
            s = work.get(mm, 0) - factor * gc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Polynomial(p.ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    l = _lcm(f.leading_monomial(), g.leading_monomial())
    mf = tuple(a - b for a, b in zip(l, f.leading_monomial()))
    mg = tuple(a - b for a, b in zip(l, g.leading_monomial()))
    return f.mul_term(Fraction(1) / f.leading_coeff(), mf) - \
        g.mul_term(Fraction(1) / g.leading_coeff(), mg)


def _gm_update(G: list, pairs: list, h: Polynomial) -> None:
    """Gebauer-Moeller pair update; mutates ``G`` and ``pairs``."""
    lm_h = h.leading_monomial()
    cand = [(g, _lcm(lm_h, g.leading_monomial())) for g in G]
    kept: list = []
    while cand:
        g, l = cand.pop(0)
        if _coprime(lm_h, g.leading_monomial()):
            continue  # Buchberger's first criterion
        if any(_divides(l2, l) and l2 != l for _, l2 in cand) or \
           any(_divides(l2, l) for _, l2 in kept):
            continue  # M criterion
        kept.append((g, l))
    surviving = []
    for f1, f2, l in pairs:
        if not _divides(lm_h, l) or \
           _lcm(f1.leading_monomial(), lm_h) == l or \
           _lcm(f2.leading_monomial(), lm_h) == l:
            surviving.append((f1, f2, l))
    pairs[:] = surviving + [(h, g, l) for g, l in kept]
    G[:] = [g for g in G if not _divides(lm_h, g.leading_monomial())]
    G.append(h)


def interreduce(polys: Iterable[Polynomial]) -> list:
    """Reduce each polynomial against the others until stable; monic output."""
    current = [p.monic() for p in polys if p]
    changed = True
    while changed:
        changed = False
        nxt = []
        for i, p in enumerate(current):
            rest = nxt + current[i + 1:]
            r = normal_form(p, rest)
            if r != p:
                changed = True
            if r:
                nxt.append(r.monic())
        current = nxt
    current.sort(key=lambda p: _grevlex_key(p.leading_monomial()))
    return current


def buchberger(generators: Sequence[Polynomial], progress_every: int = 2000) -> list:
    """Reduced Groebner basis of the given generators (grevlex).

    Uses the normal pair-selection strategy with the Gebauer-Moeller
    criteria.  Emits progress through the module logger; the reduced basis
    is deterministic for a fixed generator set.
    """
    gens = interreduce(generators)
    if not gens:
        return []
    G: list = []
    pairs: list = []
    for g in gens:
        _gm_update(G, pairs, g)
    processed = 0
    while pairs:
        pairs.sort(key=lambda t: _grevlex_key(t[2]), reverse=True)
        f1, f2, _ = pairs.pop()
        h = normal_form(s_polynomial(f1, f2), G)
        processed += 1
        if processed % progress_every == 0:
            log.info("buchberger: %d pairs processed, %d pending, basis size %d",
                     processed, len(pairs), len(G))
        if h:
            _gm_update(G, pairs, h.monic())
    return interreduce(G)


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
    columns = []          # (gen_index, multiplier monomial, polynomial terms)
    for mono in _monomials_up_to(ring.nvars, cofactor_degree):
        for i, g in enumerate(generators):
            shifted = {tuple(a + b for a, b in zip(m, mono)): c for m, c in g.terms.items()}
            columns.append((i, mono, shifted))
    eliminated: dict = {}
    for i, mono, terms in columns:
        work = dict(terms)
        trail = {(i, mono): Fraction(1)}
        while work:
            lead = max(work, key=_grevlex_key)
            hit = eliminated.get(lead)
            if hit is None:
                eliminated[lead] = (work, trail)
                break
            pterms, ptrail = hit
            f = work[lead] / pterms[lead]
            _dict_submul(work, f, pterms)
            _dict_submul(trail, f, ptrail)
    work = dict(target.terms)
    trail: dict = {}
    while work:
        lead = max(work, key=_grevlex_key)
        hit = eliminated.get(lead)
        if hit is None:
            return None
        pterms, ptrail = hit
        f = work[lead] / pterms[lead]
        _dict_submul(work, f, pterms)
        _dict_submul(trail, -f, ptrail)
    cofactors: dict = {}
    for (i, mono), c in trail.items():
        cof = cofactors.setdefault(i, {})
        cof[mono] = cof.get(mono, Fraction(0)) + c
    out = []
    for i, terms in sorted(cofactors.items()):
        p = Polynomial(ring, terms)
        if p:
            out.append((i, p))
    # replay the identity before returning it
    acc = ring.zero()
    for i, c in out:
        acc = acc + c * generators[i]
    if acc != target:
        raise AssertionError("cofactor bookkeeping failed")
    return out


def _dict_submul(target: dict, factor: Fraction, source: dict):
    for key, val in source.items():
        s = target.get(key, Fraction(0)) - factor * val
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


def is_homogeneous(p: Polynomial) -> bool:
    degs = {sum(m) for m in p.terms}
    return len(degs) <= 1


# ---------------------------------------------------------------------------
# symbolic range matrices and minor ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicRangeMatrix:
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
        for (n1, v1), (n2, v2) in itertools.combinations(basis, 2):
            if em.vdot(v1, v2):
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


def _symbolic_det(entries: list, rows: tuple, cols: tuple, ring: PolyRing) -> Polynomial:
    """Cofactor expansion along the row with the most zero entries."""
    k = len(rows)
    if k == 1:
        return entries[rows[0]][cols[0]]
    best_r = max(range(k), key=lambda r: sum(entries[rows[r]][c].is_zero() for c in cols))
    acc = ring.zero()
    rest_rows = rows[:best_r] + rows[best_r + 1:]
    for pos, c in enumerate(cols):
        e = entries[rows[best_r]][c]
        if e.is_zero():
            continue
        minor = _symbolic_det(entries, rest_rows, cols[:pos] + cols[pos + 1:], ring)
        if minor.is_zero():
            continue
        term = e * minor
        acc = acc + (term if (best_r + pos) % 2 == 0 else -term)
    return acc


def minor_ideal(M: SymbolicRangeMatrix, k: int, exclude_vars: Sequence[str] = ()) -> list:
    """All nonzero ``k x k`` minors of ``M`` as polynomials, deduplicated.

    Minors containing any excluded variable are dropped entirely; the
    exclusion is a heuristic restriction of the generator set and is
    recorded by callers in their certificates.
    """
    if k > min(M.dim_a, M.dim_b):
        raise DimensionMismatch("minor size exceeds matrix dimensions")
    excluded = {M.ring._index[v] for v in exclude_vars}
    entries = [list(row) for row in M.entries]
    seen = set()
    out = []
    for rows in itertools.combinations(range(M.dim_a), k):
        for cols in itertools.combinations(range(M.dim_b), k):
            p = _symbolic_det(entries, rows, cols, M.ring)
            if p.is_zero():
                continue
            if excluded and any(any(m[i] for i in excluded) for m in p.terms):
                continue
            p = p.monic()
            key = frozenset(p.terms.items())
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
    out.sort(key=lambda p: (_grevlex_key(p.leading_monomial()), len(p.terms)))
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SNCertificate:
    """Replayable Schmidt-number bound.

    ``kind`` is "lower" or "upper"; ``value`` the certified bound.  Lower
    evidence replays by reducing ``witness_variable^power`` to zero with the
    stored Groebner basis; upper evidence replays by re-summing the stored
    decomposition.
    """

    kind: str
    value: int
    evidence: dict = field(compare=False)
    trusted_rules_used: tuple = ()


@dataclass(frozen=True)
class Inconclusive:
    """Negative space of a certificate search: nothing was proven."""

    reason: str
    details: dict = field(default_factory=dict, compare=False)


def certify_sn_lower(s: qs.BipartiteState, witness_vector: em.Vector, k: int,
                     n_max: int | None = None, exclude_vars: Sequence[str] = (),
                     require_orthogonal_basis: bool = True, naming: str = "site",
                     method: str = "groebner"):
    """Certify ``SN(s) >= k`` through the range criterion.

    Searches the smallest ``N <= n_max`` with ``x_w^N`` in the ideal of
    ``k x k`` minors, where ``x_w`` is the single range coordinate the
    witness overlaps.  Membership means every Schmidt-rank ``k-1`` vector in
    the range is orthogonal to the witness, which itself lies in the range,
    so no rank ``<= k-1`` decomposition can exist.  Returns an
    :class:`SNCertificate` on success, :class:`Inconclusive` otherwise.

    ``method="groebner"`` reduces witness powers by a Buchberger basis and
    stores the basis for replay.  ``method="linear"`` applies to homogeneous
    minor sets only (every coordinate-matrix entry a monomial): it solves
    the membership linearly per degree and stores explicit cofactors
    ``sum c_i g_i = x_w^N``, which is much faster on large instances and
    replays by plain expansion.
    """
    if n_max is None:
        n_max = 2 * k
    m, n = s.dims
    if not em.column_space(s.matrix).contains(witness_vector):
        raise WitnessNotInRange("witness vector is not in R(rho)")
    sym = range_coordinate_matrix(s, require_orthogonal_basis=require_orthogonal_basis,
                                  naming=naming)
    overlaps = [(name, em.vdot(v, witness_vector)) for name, v in sym.basis]
    nonzero = [(name, c) for name, c in overlaps if c]
    if len(nonzero) != 1:
        raise NonSingleVariableOverlap(
            f"witness overlaps {len(nonzero)} basis vectors, need exactly 1")
    witness_var = nonzero[0][0]
    generators = minor_ideal(sym, k, exclude_vars=exclude_vars)
    if not generators:
        return Inconclusive("no nonzero minors survive the exclusion filter")
    log.info("certify_sn_lower: %d generators in %d variables (method=%s)",
             len(generators), sym.ring.nvars, method)
    evidence = {
        "witness": [em.format_scalar(x) for x in witness_vector],
        "witness_variable": witness_var,
        "k": k,
        "monomial_order": "grevlex",
        "variables": list(sym.ring.variables),
        "basis": [[em.format_scalar(x) for x in v] for _, v in sym.basis],
        "excluded_variables": list(exclude_vars),
        "generators": [poly_to_json(g) for g in generators],
        "method": method,
    }
    xw = sym.ring.var(witness_var)
    if method == "groebner":
        gb = buchberger(generators)
        power = None
        for N in range(1, n_max + 1):
            if in_ideal(xw ** N, gb):
                power = N
                break
        if power is None:
            return Inconclusive(f"{witness_var}^N not in the minor ideal for N <= {n_max}",
                                {"groebner_size": len(gb)})
        evidence["power"] = power
        evidence["groebner_basis"] = [poly_to_json(g) for g in gb]
        return SNCertificate("lower", k, evidence)
    if method == "linear":
        if not all(is_homogeneous(g) for g in generators):
            return Inconclusive("linear method requires homogeneous minors")
        gen_degree = generators[0].degree()
        if any(g.degree() != gen_degree for g in generators):
            return Inconclusive("linear method requires minors of equal degree")
        for N in range(gen_degree, n_max + 1):
            cof = linear_membership_cofactors(xw ** N, generators,
                                              cofactor_degree=N - gen_degree)
            if cof is not None:
                evidence["power"] = N
                evidence["cofactors"] = [[i, poly_to_json(c)] for i, c in cof]
                return SNCertificate("lower", k, evidence)
        return Inconclusive(f"{witness_var}^N has no cofactor representation for N <= {n_max}")
    raise ValueError(f"unknown method {method!r}")


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
        "weights": [str(Fraction(w)) for w in weights],
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


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of the trusted separability rule set."""

    separable: bool
    rule: str | None
    sn_bound: int | None
    trusted_rules_used: tuple
    entangled: bool = False
    details: dict = field(default_factory=dict, compare=False)


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
    return RuleVerdict(False, None, None, ())


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
        products.append({"site": [a, b], "weight": str(M.entry(r, r).re)})
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

@dataclass(frozen=True)
class EdgeVerdict:
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
# polynomial JSON round-trip
# ---------------------------------------------------------------------------

def poly_to_json(p: Polynomial) -> dict:
    return {"terms": [[list(m), str(c)] for m, c in sorted(p.terms.items(), key=lambda t: _grevlex_key(t[0]))]}


def poly_from_json(ring: PolyRing, data: dict) -> Polynomial:
    return Polynomial(ring, {tuple(m): Fraction(c) for m, c in data["terms"]})
