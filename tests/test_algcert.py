"""Polynomial layer, Groebner bases, and certification rules."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from pptlab import acceptance
from pptlab import algcert as ac
from pptlab import certifier as ce
from pptlab import constructions as co
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import minors as mi
from pptlab import qstates as qs
from pptlab import serialize as se
from pptlab.errors import (
    DimensionMismatch,
    InternalInconsistency,
    MonomialOverflow,
    NotARealRangeBasis,
    PreconditionViolation,
)

from oracles import (coordinate_entries, evaluate, first_divisor_remainder, interreduce,
                     linear_form_matrix)


# -- polynomial arithmetic -------------------------------------------------------

def test_grevlex_order():
    # standard example: x*y^2 > x^2*z in grevlex
    ring = ac.PolyRing(["x", "y", "z"])
    a = (1, 2, 0)
    b = (2, 0, 1)
    assert mi._grevlex_key(a) > mi._grevlex_key(b)


def test_polynomial_str_and_eval():
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    p = x * x - y.scale(Fraction(1, 2)) + ring.constant(3)
    assert evaluate(p, {"x": 2, "y": 4}) == 4 - 2 + 3
    assert str(ring.zero()) == "0"


def test_polynomial_ring_mismatch_protection():
    r1 = ac.PolyRing(["x"])
    r2 = ac.PolyRing(["x", "y"])
    assert r1 != r2


# -- normal form and Buchberger -----------------------------------------------------

def test_buchberger_single_generator():
    ring = ac.PolyRing(["x"])
    x = ring.var("x")
    assert ac.buchberger([x]) == [x]


def test_buchberger_elimination_example():
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    gb = ac.buchberger([x * x + x * y, y * y])
    assert ac.in_ideal(x ** 3, gb)
    assert not ac.in_ideal(x, gb)
    assert str(ac.normal_form(ring.one(), gb)) == "1"


def test_normal_form_idempotent_random():
    rng = random.Random(0)
    ring = ac.PolyRing(["x", "y", "z"])
    vars_ = [ring.var(v) for v in ring.variables]

    def rnd_poly():
        p = ring.zero()
        for _ in range(rng.randint(1, 5)):
            mono = ring.one()
            for _ in range(rng.randint(0, 3)):
                mono = mono * rng.choice(vars_)
            p = p + mono.scale(Fraction(rng.randint(-3, 3)))
        return p

    basis = ac.buchberger([rnd_poly() for _ in range(3)])
    for _ in range(200):
        p = rnd_poly()
        r = ac.normal_form(p, basis)
        assert ac.normal_form(r, basis) == r


def test_generators_reduce_to_zero():
    rng = random.Random(1)
    ring = ac.PolyRing(["a", "b"])
    a, b = ring.var("a"), ring.var("b")
    gens = [a * a - b, a * b + b, b * b.scale(2) - a]
    gb = ac.buchberger(gens)
    for g in gens:
        assert ac.normal_form(g, gb).is_zero()


def test_ideal_membership_invariant_under_scaling_and_permutation():
    rng = random.Random(2)
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    gens = [x * x + x * y, y * y, x * y * y]
    target = x ** 3
    base = ac.in_ideal(target, ac.buchberger(gens))
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for g in shuffled]
        assert ac.in_ideal(target, ac.buchberger(scaled)) == base


def test_buchberger_matches_sympy_on_random_ideals():
    """Reduced grevlex bases agree with an independent implementation."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    xs = sympy.symbols("x y z")
    ring = ac.PolyRing(["x", "y", "z"])
    vars_ = [ring.var(v) for v in ring.variables]

    def rnd_terms():
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = rng.randint(-3, 3)
            if coeff:
                terms.append((exps, coeff))
        return terms

    for _ in range(12):
        systems = [rnd_terms() for _ in range(rng.randint(1, 3))]
        ours, theirs = [], []
        for terms in systems:
            p = ring.zero()
            sp = sympy.Integer(0)
            for exps, c in terms:
                mono = ring.constant(c)
                smono = sympy.Integer(c)
                for v, e in zip(vars_, exps):
                    for _ in range(e):
                        mono = mono * v
                for xsym, e in zip(xs, exps):
                    smono *= xsym ** e
                p = p + mono
                sp += smono
            if p:
                ours.append(p)
                theirs.append(sp)
        if not ours:
            continue
        gb_ours = ac.buchberger(ours)
        assert interreduce([g.scale(3) for g in reversed(gb_ours)]) == gb_ours
        gb_sympy = sympy.groebner(theirs, *xs, order="grevlex")
        ours_set = {str(g) for g in gb_ours}
        sympy_set = set()
        for expr in gb_sympy.exprs:
            poly = sympy.Poly(expr, *xs)
            terms = {}
            for exps, c in poly.terms():
                terms[tuple(exps)] = Fraction(int(c.p), int(c.q))
            sympy_set.add(str(ac.Polynomial(ring, terms).monic()))
        assert ours_set == sympy_set


def test_normal_form_first_divisor_rule_on_non_groebner_bases():
    """Remainders modulo arbitrary bases (overlapping leads, zero entries,
    list order mattering) match the first-divisor rule term for term."""
    rng = random.Random(5)
    ring = ac.PolyRing(["x", "y", "z"])

    def rnd_poly(terms, degree):
        return ac.Polynomial(ring, {tuple(rng.randint(0, degree) for _ in range(3)):
                                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(terms)})

    for _ in range(150):
        basis = [rnd_poly(rng.randint(0, 3), 2) for _ in range(rng.randint(1, 4))]
        p = rnd_poly(rng.randint(1, 6), 4)
        assert ac.normal_form(p, basis) == first_divisor_remainder(p, basis)
        assert ac.normal_form(p, basis[::-1]) == first_divisor_remainder(p, basis[::-1])


def test_oversized_exponent_raises_instead_of_wrapping():
    ring = ac.PolyRing(["x", "y", "z"])         # four bytes per exponent field
    top = 2 ** 31 - 1
    x_top = ac.Polynomial(ring, {(top, 0, 0): Fraction(1)})
    assert ac.normal_form(x_top, [ring.var("y")]) == x_top
    with pytest.raises(MonomialOverflow):
        ac.normal_form(ac.Polynomial(ring, {(top + 1, 0, 0): Fraction(1)}), [ring.var("y")])
    wide = ac.PolyRing([f"x{i}" for i in range(40)])  # one byte: degrees up to 127
    x0, x1, x2 = (wide.var(f"x{i}") for i in range(3))
    with pytest.raises(MonomialOverflow):
        ac.normal_form(x0 ** 128, [x1])
    # lead lcms of degree 200 in the pair update
    with pytest.raises(MonomialOverflow):
        ac.buchberger([x0 ** 100 + x1, x2 ** 100 + x1])


# -- range coordinate matrices ---------------------------------------------------------

def _range_matrix(st, naming="site"):
    """The symbolic coordinate matrix of the range of ``st``."""
    return ac.range_coordinate_matrix(st, naming)[1]


def test_range_matrix_rho3x3_pattern():
    sym = _range_matrix(co.rho_3x3())
    assert sym.variables == ("psi00", "psi01", "psi10", "psi02", "psi20")
    grid = [[str(e) for e in row] for row in coordinate_entries(sym)]
    assert grid == [["psi00", "psi01", "psi02"],
                    ["psi10", "psi00", "psi01"],
                    ["psi20", "-psi10", "psi00"]]


def test_range_matrix_rho4x5_zero_pattern():
    sym = _range_matrix(co.rho_4x5().final)
    zeros = {(i, j) for i, row in enumerate(coordinate_entries(sym))
             for j, e in enumerate(row) if e.is_zero()}
    assert zeros == {(0, 3), (1, 3), (1, 4), (2, 4), (3, 1)}


def test_range_matrix_pure_product():
    v = em.basis_vector(1, 0)
    st = qs.BipartiteState(1, 1, label="00", edges=[qs.NamedVector("e", v, Fraction(1))])
    assert st.matrix == em.ExactMatrix([[1]])
    sym = _range_matrix(st)
    assert not coordinate_entries(sym)[0][0].is_zero()


def test_range_matrix_falls_back_to_rref_basis():
    # three dependent edges (|00> twice) of diag(1, 1, 0, 0) are not a basis
    # of its range, so the canonical basis names the variables
    e00, e01 = em.basis_vector(4, 0), em.basis_vector(4, 1)
    st = qs.BipartiteState(2, 2, label="d", edges=[
        qs.NamedVector("a", e00, Fraction(1, 2)), qs.NamedVector("b", e00, Fraction(1, 2)),
        qs.NamedVector("c", e01, Fraction(1))])
    assert st.matrix == em.diag([1, 1, 0, 0])
    sym = _range_matrix(st)
    assert sym.variables == ("psi00", "psi01")


# -- minors ------------------------------------------------------------------------------

def test_minor_count_4x5():
    sym = _range_matrix(co.rho_4x5().final)
    total = math.comb(4, 3) * math.comb(5, 3)
    assert total == 40
    minors = ac.minor_ideal(sym, 3, ())
    assert 0 < len(minors) <= total


def test_minors_rho3x3_contain_printed_pair():
    sym = _range_matrix(co.rho_3x3())
    minors = ac.minor_ideal(sym, 2, ())
    ring = ac.PolyRing(sym.variables)
    psi00, psi01, psi10 = (ring.var(v) for v in ("psi00", "psi01", "psi10"))
    plus = (psi00 * psi00 + psi01 * psi10).monic()
    minus = (psi00 * psi00 - psi01 * psi10).monic()
    keys = {frozenset(p.terms.items()) for p in minors}
    assert frozenset(plus.terms.items()) in keys
    assert frozenset(minus.terms.items()) in keys


def test_minor_exclusion_filter():
    st = co.rho_family(3)
    sym = _range_matrix(st, naming="edge")
    deltas = [v for v in sym.variables if v.startswith("delta")]
    filtered = ac.minor_ideal(sym, 3, exclude_vars=deltas)
    assert filtered
    idx = {v: i for i, v in enumerate(sym.variables)}
    banned = {idx[v] for v in deltas}
    for p in filtered:
        assert all(not any(mono[i] for i in banned) for mono in p.terms)
    unfiltered = ac.minor_ideal(sym, 3, ())
    assert len(unfiltered) > len(filtered)


def test_minor_ideal_matches_sympy_determinants():
    """The monic nonzero k x k determinants of random sparse linear-form
    matrices, expanded by sympy, deduplicated and in the documented order,
    with and without an excluded variable."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    names = ("a", "b", "c", "d", "e")
    ring = ac.PolyRing(names)
    syms = sympy.symbols(names)
    units = [tuple(int(t == l) for t in range(len(names))) for l in range(len(names))]
    for _ in range(12):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        cells = [[{l: Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                   for l in rng.sample(range(len(names)), rng.choice((0, 1, 1, 2)))}
                  for _ in range(n)] for _ in range(m)]
        sym = linear_form_matrix(ring, [
            [ac.Polynomial(ring, {units[l]: c for l, c in cell.items()}) for cell in row]
            for row in cells])
        S = sympy.Matrix(m, n, lambda i, j: sum(
            sympy.Rational(c.numerator, c.denominator) * syms[l] for l, c in cells[i][j].items()))
        for k in range(1, min(m, n) + 1):
            dets = []
            for rows in itertools.combinations(range(m), k):
                for cols in itertools.combinations(range(n), k):
                    det = sympy.Poly(S.extract(list(rows), list(cols)).det(), *syms)
                    if not det.is_zero:
                        dets.append(ac.Polynomial(ring, {
                            tuple(e): Fraction(int(c.p), int(c.q)) for e, c in det.terms()}))
            excluded = rng.randrange(len(names))
            for exclude in ((), (names[excluded],)):
                # first occurrence in (rows, cols) order, then a stable sort
                expected = {}
                for p in dets:
                    if not (exclude and any(mono[excluded] for mono in p.terms)):
                        p = p.monic()
                        expected.setdefault(frozenset(p.terms.items()), p)
                expected = sorted(expected.values(), key=lambda p: (
                    mi._grevlex_key(p.leading_monomial()), len(p.terms)))
                assert ac.minor_ideal(sym, k, exclude) == expected


def test_minor_ideal_ties_keep_the_first_lexicographic_position():
    """Minors with equal lead and length keep the order of their first
    (rows, cols) occurrence.  A = ad - bc comes from rows (0, 3) and (1, 2),
    B = 2ad - bc (monic: bc - 2ad) from rows (0, 4) only, so A precedes B."""
    ring = ac.PolyRing(["a", "b", "c", "d"])
    a, b, c, d = (ring.var(v) for v in ring.variables)
    rows = [(a, b), (a, c), (b, d), (c, d), (c, d.scale(2))]
    sym = linear_form_matrix(ring, rows)
    minors = ac.minor_ideal(sym, 2, ())
    first = (b * c - a * d).monic()
    second = (b * c - (a * d).scale(2)).monic()
    assert minors.index(first) + 1 == minors.index(second)


def _closure_component(sym, k, variables):
    """The witness closure's component of the monomial on ``variables``, as
    monic polynomial -> (rows, cols)."""
    closure = ce.WitnessClosure(sym, k, ())
    P = closure.P
    target = P.one + sum(closure.units[sym.variables.index(v)] for v in variables)
    return {ac.polynomial(P, ac.PolyRing(sym.variables), dict(key)).monic(): (rows, cols)
            for key, (rows, cols, _) in closure.component(target).items()}


def test_closure_keeps_the_first_position_of_proportional_minors():
    """From ``a*d`` the closure reaches ad - bc (at rows (0, 3) and (1, 2)),
    2ad - bc, ad - b^2, ad - c^2 and 2ad - c^2, each at the (rows, cols)
    minor_ideal stores for it, and nothing that shares no monomial with them."""
    ring = ac.PolyRing(["a", "b", "c", "d"])
    a, b, c, d = (ring.var(v) for v in ring.variables)
    for rows in ([(a, b), (a, c), (b, d), (c, d), (c, d.scale(2))],
                 [(c, d.scale(2)), (c, d), (b, d), (a, c), (a, b)]):
        sym = linear_form_matrix(ring, rows)
        component = _closure_component(sym, 2, ["a", "d"])
        expected = {m: (m.rows, m.cols) for m in ac.minor_ideal(sym, 2, ()) if m.terms.keys() & {
            (1, 0, 0, 1), (0, 1, 1, 0), (0, 2, 0, 0), (0, 0, 2, 0)}}
        assert component == expected and len(component) == 5


def test_closure_skips_a_minor_whose_expansion_cancels_the_monomial():
    """det [[a, a+b], [a, b]] = -a^2: the positions of ``a*b`` are a
    candidate, but the minor does not contain it."""
    ring = ac.PolyRing(["a", "b"])
    a, b = (ring.var(v) for v in ring.variables)
    sym = linear_form_matrix(ring, ((a, a + b), (a, b)))
    assert _closure_component(sym, 2, ["a", "b"]) == {}
    assert _closure_component(sym, 2, ["a", "a"]) == {a * a: ((0, 1), (0, 1))}


def _json_digest(polys):
    payload = json.dumps([se._cofactor_json(p.terms) for p in polys], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("k, generators, gens_digest, basis_size, basis_digest", [
    (3, 21, "a6b64aa67573f461f5c491def70f3f2ea2bbccebf6d279352b788bf8556ac19e",
     24, "be297d1478fd6003c8dabe7a202136036cabea5662209059afe9b67029bc01b5"),
    (4, 138, "5ae3e3fafe57fa63ef476912818a761bf08bfeb0317bc228aa76e4eebb2b3f5e",
     488, "beaa4d736669e67f66274ab79be84e5685d1846a75d4abb82337485e8efc20a0"),
], ids=["family3", "family4"])
def test_family_generators_and_reduced_basis_pinned(k, generators, gens_digest,
                                                     basis_size, basis_digest):
    """The certify-sn generator list (content and order) and its reduced
    Groebner basis, pinned by SHA-256 of their JSON."""
    st = co.rho_family(k)
    deltas = [e.name for e in st.edges if e.name.startswith("delta")]
    sym = _range_matrix(st, naming="edge")
    gens = ac.minor_ideal(sym, k, exclude_vars=deltas)
    assert (len(gens), _json_digest(gens)) == (generators, gens_digest)
    gb = ac.buchberger(gens)
    assert (len(gb), _json_digest(gb)) == (basis_size, basis_digest)


# -- minor consequence chain of the 3x3 grid state ------------------------------------------------------------------

def test_minor_consequence_chain_rho3x3():
    sym = _range_matrix(co.rho_3x3())
    ring = ac.PolyRing(sym.variables)
    gb = ac.buchberger(ac.minor_ideal(sym, 2, ()))
    psi00, psi01, psi10, psi02, psi20 = (ring.var(v) for v in ring.variables)
    assert ac.in_ideal(psi00 ** 2, gb)
    assert ac.in_ideal(psi01 * psi10, gb)
    # adding psi00 = 0 forces psi01^2 = psi10^2 = 0 as well
    gb2 = ac.buchberger(ac.minor_ideal(sym, 2, ()) + [psi00])
    assert ac.in_ideal(psi01 ** 2, gb2)
    assert ac.in_ideal(psi10 ** 2, gb2)
    # and the two surviving coordinates cannot mix in a product vector
    assert ac.in_ideal(psi02 * psi20, gb)


# -- certification ----------------------------------------------------------------------------

def _leibniz_det(sym, rows, cols):
    """det M[rows, cols] as a signed sum over permutations of the entries
    read from the basis: independent of the packed rows and the Laplace
    kernel behind minor_ideal and the sn-lower replay."""
    ring = ac.PolyRing(sym.variables)
    entries = coordinate_entries(sym)
    acc = ring.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = ring.constant((-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * entries[rows[i]][cols[j]]
        acc = acc + term
    return acc


def test_certify_rho4x5():
    final = co.rho_4x5().final
    cert = ce.certify_sn_lower(final, 3, ())
    assert isinstance(cert, ce.LowerBound)
    assert cert.value == 3 and cert.power == 4
    # psi00^3 is not in the ideal: the observed power is minimal
    sym = _range_matrix(final)
    gb = ac.buchberger(ac.minor_ideal(sym, 3, ()))
    assert not ac.normal_form(ac.PolyRing(sym.variables).var("psi00") ** 3, gb).is_zero()


def test_certify_family_members():
    for k in (2, 3):
        st = co.rho_family(k)
        excl = [e.name for e in st.edges if e.name.startswith("delta")]
        cert = ce.certify_sn_lower(st, k, exclude_vars=excl)
        assert isinstance(cert, ce.LowerBound)
        assert cert.power == k


def test_linear_method_agrees_with_groebner():
    """Buchberger as the oracle of the linear route: the stored power is the
    least N with x_w^N in the minor ideal, the certificate keeps the C_k
    minors with nonzero cofactor on the family, and its identity replays by
    Leibniz expansion of the stored (rows, cols)."""
    rho45 = co.rho_4x5().final
    cases = [(co.rho_3x3(), 2, (), 2, 2), (rho45, 3, (), 4, 6)]
    for k, used in ((2, 2), (3, 5), (4, 14)):
        st = co.rho_family(k)
        deltas = tuple(e.name for e in st.edges if e.name.startswith("delta"))
        cases.append((st, k, deltas, k, used))
    for st, k, excl, power, used in cases:
        cert = ce.certify_sn_lower(st, k, exclude_vars=excl)
        assert isinstance(cert, ce.LowerBound)
        assert (cert.power, len(cert.minors)) == (power, used)
        sym = _range_matrix(st, naming="edge" if excl else "site")
        ring = ac.PolyRing(sym.variables)
        assert ring.variables == cert.variables
        xw = ring.var(cert.witness_variable)
        gb = ac.buchberger(ac.minor_ideal(sym, k, exclude_vars=excl))
        assert [ac.in_ideal(xw ** N, gb) for N in range(1, power + 1)] == \
            [False] * (power - 1) + [True]
        acc = ring.zero()
        for rows, cols, cof in cert.minors:
            acc = acc + ac.Polynomial(ring, cof) * _leibniz_det(sym, rows, cols)
        assert acc == xw ** power


def _enumerated_lower(st, k, exclude_vars=()):
    """The enumerate-then-solve oracle: every ``k x k`` minor from
    ``minor_ideal``, then ``linear_membership_cofactors`` at N = k..2k, as
    the power and the ``(rows, cols, cofactor terms)`` triples of the first
    hit; variables named after the edges when variables are excluded."""
    sym = _range_matrix(st, naming="edge" if exclude_vars else "site")
    generators = ac.minor_ideal(sym, k, exclude_vars=exclude_vars)
    xw = ac.PolyRing(sym.variables).var(next(name for name, v in sym.basis if em.vdot(v, st.edges[0].vec)))
    for N in range(k, 2 * k + 1):
        cof = ac.linear_membership_cofactors(xw ** N, generators, cofactor_degree=N - k)
        if cof is not None:
            return N, tuple((generators[i].rows, generators[i].cols,
                             c.scale(1 / generators[i].det_factor).terms) for i, c in cof)
    return None


def _closure_cases():
    cases = [("rho3x3", co.rho_3x3(), 2, ()), ("rho4x5", co.rho_4x5().final, 3, ()),
             ("family3-all", co.rho_family(3), 3, ())]
    for k in (2, 3, 4):
        st = co.rho_family(k)
        deltas = tuple(e.name for e in st.edges if e.name.startswith("delta"))
        cases.append((f"family{k}", st, k, deltas))
    return cases


@pytest.mark.parametrize("name, st, k, excl", _closure_cases(),
                         ids=[c[0] for c in _closure_cases()])
def test_closure_matches_enumerate_then_solve(name, st, k, excl):
    """The witness closure stores the same power, minors, positions and
    cofactors as solving over every enumerated minor."""
    cert = ce.certify_sn_lower(st, k, exclude_vars=excl)
    assert (cert.power, cert.minors) == _enumerated_lower(st, k, excl)


MEMBERSHIP_CASES = [c for c in _closure_cases()
                    if c[0] in ("rho3x3", "rho4x5", "family3-all", "family3")]


@pytest.mark.parametrize("name, st, k, excl", MEMBERSHIP_CASES,
                         ids=[c[0] for c in MEMBERSHIP_CASES])
def test_minor_membership_of_the_witness_power_is_certify_sn_lower(name, st, k, excl):
    """Given ``x_w^N``, the target function returns certify_sn_lower's
    triples, and below ``N`` it finds no identity."""
    cert = ce.certify_sn_lower(st, k, exclude_vars=excl)
    sym = _range_matrix(st, naming="edge" if excl else "site")
    assert sym.variables == cert.variables
    closure = ce.WitnessClosure(sym, k, excl)
    for N in range(k, cert.power + 1):
        target = tuple(N * (v == cert.witness_variable) for v in sym.variables)
        assert ce.minor_membership(closure, target) == (cert.minors if N == cert.power else None)


def test_criterion_1_identities_expand_to_their_monomials():
    """The oracle's cross-check of criterion 1: Buchberger puts psi00^2 and
    psi01*psi10 in rho3x3's 2-minor ideal (test_minor_consequence_chain_rho3x3),
    and the identities the certifier finds for them expand, by Leibniz, to
    exactly those monomials; psi00 alone has none."""
    sym = _range_matrix(co.rho_3x3())
    ring = ac.PolyRing(sym.variables)
    closure = ce.WitnessClosure(sym, 2, ())
    for names in (("psi00", "psi00"), ("psi01", "psi10"), ("psi02", "psi20")):
        minors = ce.minor_membership(closure, tuple(names.count(v) for v in sym.variables))
        acc = ring.zero()
        for rows, cols, cof in minors:
            acc = acc + ac.Polynomial(ring, cof) * _leibniz_det(sym, rows, cols)
        assert acc == ring.var(names[0]) * ring.var(names[1])
    assert ce.minor_membership(closure, tuple(int(v == "psi00") for v in sym.variables)) is None


def test_minor_membership_solves_only_its_targets_degree(spy):
    """Every minor has degree k, so the row ``mono * g`` has degree ``k +
    deg(mono)`` and the target ``x^N`` meets only the rows of degree N: the
    solve gets exactly the cofactor monomials of degree ``N - k``, and none
    for a target below degree k."""
    calls = spy(ce, "_cofactor_trail")
    for st, k, power in ((co.rho_3x3(), 2, 2), (co.rho_4x5().final, 3, 4)):  # psi00^power
        sym = _range_matrix(st)
        closure = ce.WitnessClosure(sym, k, ())
        nvars = len(sym.variables)
        for N in range(1, 2 * k + 1):
            found = ce.minor_membership(closure, tuple(N * (v == "psi00") for v in sym.variables))
            monomials = calls[-1][1][3]
            assert all(sum(mono) == N - k for mono, _ in monomials)
            assert len(monomials) == (math.comb(nvars + N - k - 1, N - k) if N >= k else 0)
            assert (found is not None) == (N >= power)


def test_certify_sn_lower_never_enumerates(monkeypatch):
    def enumerate_(*args, **kwargs):
        raise AssertionError("certify_sn_lower enumerated the minors")

    monkeypatch.setattr(ac, "minor_ideal", enumerate_)
    monkeypatch.setattr(ac, "linear_membership_cofactors", enumerate_)
    final = co.rho_4x5().final
    assert ce.certify_sn_lower(final, 3, ()).power == 4
    st = co.rho_family(4)
    deltas = [e.name for e in st.edges if e.name.startswith("delta")]
    cert = ce.certify_sn_lower(st, 4, exclude_vars=deltas)
    assert len(cert.minors) == 14


def test_certify_sn_lower_solves_for_the_range_once(spy):
    """The setup and the choice of basis share one range solve, read
    from the edges (``minors.range_basis``; no ``column_space`` of the
    matrix), and the basis choice names its source: the edges, or on rho3x3
    with e3 split into two dependent edges, the canonical basis of the range."""
    rho = co.rho_3x3()
    split = [e._replace(weight=Fraction(1)) if e.name == "e3" else e for e in rho.edges]
    split = qs.BipartiteState(3, 3, label="split", edges=split + [
        qs.NamedVector("e3b", rho.edges[3].vec, Fraction(2))])
    assert split == rho
    spy(em, "column_space")
    calls = spy(mi, "range_basis")
    for st, k, source in ((co.rho_4x5().final, 3, "edges"), (rho, 2, "edges"),
                          (split, 2, "range")):
        calls.clear()
        assert ce.certify_sn_lower(st, k, ()).basis == source
        assert calls == [("range_basis", (st,))]


def test_certify_sn_lower_tries_each_coordinate_in_one_order_over_one_closure(spy):
    """On rho3x3 at k = 3 no coordinate power lies in the 3 x 3 minor ideal.
    With the edges in reverse order, psi00 (the coordinate of e0, the first
    edge of largest Schmidt rank) comes last in variable order, yet it is
    tried first, then the others in variable order, each at N = 3..6; one
    closure serves them all, computing each determinant once."""
    rho = co.rho_3x3()
    st = qs.BipartiteState(3, 3, label="reversed", edges=rho.edges[::-1])
    variables = mi.lower_bound_setup(st, None, lambda v: ce._variables(st, "site", v))[0].variables
    assert variables[-1] == "psi00"
    calls = spy(ce, "minor_membership")
    spy(mi, "_determinant")
    assert isinstance(ce.certify_sn_lower(st, 3, ()), ce.Inconclusive)
    targets = [args[1] for name, args in calls if name == "minor_membership"]
    positions = [args[2:] for name, args in calls if name == "_determinant"]
    order = ("psi00",) + variables[:-1]
    assert targets == [tuple(N * (v == w) for v in variables) for w in order for N in range(3, 7)]
    assert len(positions) == len(set(positions)) > 0


def test_certify_sn_lower_rejects_k_above_the_dimensions():
    with pytest.raises(DimensionMismatch):
        ce.certify_sn_lower(co.rho_3x3(), 4, ())


def test_certify_sn_lower_replays_what_it_writes(monkeypatch):
    """The certifier checks the identity of the cofactors it is about to
    write: a solve whose trail has one coefficient changed is caught."""
    solve = ce._cofactor_trail

    def tampered(*args):
        solved = solve(*args)
        if solved is None:
            return None
        trail, sigma = solved
        key = next(iter(trail))
        return {**trail, key: trail[key] + 1}, sigma

    monkeypatch.setattr(ce, "_cofactor_trail", tampered)
    final = co.rho_4x5().final
    with pytest.raises(InternalInconsistency):
        ce.certify_sn_lower(final, 3, ())


def _determinants(sym, pairs):
    """``det M[rows, cols]`` for each pair, from the packed rows and
    ``_determinant``: the kernel the sn-lower replay sums over."""
    P, rows, scales = sym.packing, sym.rows, sym.scales
    return [ac.polynomial(P, ac.PolyRing(sym.variables), {t: Fraction(c, math.prod(scales[r] for r in chosen))
                                    for t, c in mi._determinant(rows, P, chosen, cols).items()})
            for chosen, cols in pairs]


def test_minor_positions_give_the_determinants():
    """Each Minor's first (rows, cols) and factor reproduce its determinant,
    and the packed determinant kernel agrees with the Leibniz expansion,
    zero minors included."""
    rng = random.Random(23)
    names = ("a", "b", "c", "d")
    ring = ac.PolyRing(names)
    for _ in range(10):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        sym = linear_form_matrix(ring, [
            [sum((ring.var(v).scale(rng.choice((-2, -1, 1, Fraction(1, 2))))
                  for v in rng.sample(names, rng.choice((0, 1, 1, 2)))), ring.zero())
             for _ in range(n)] for _ in range(m)])
        for k in range(1, min(m, n) + 1):
            minors = ac.minor_ideal(sym, k, ())
            dets = _determinants(sym, [(g.rows, g.cols) for g in minors])
            assert dets == [g * g.det_factor for g in minors]
            pairs = [(r, c) for r in itertools.combinations(range(m), k)
                     for c in itertools.combinations(range(n), k)]
            assert _determinants(sym, pairs) == \
                [_leibniz_det(sym, r, c) for r, c in pairs]


def test_minor_determinants_on_rows_with_denominators():
    """Every row of the coordinate matrix has non-integer coefficients, so
    the integer minor tables scale each row: determinants, Minor factors
    and monic forms still match the Leibniz expansion."""
    rng = random.Random(29)
    names = ("a", "b", "c")
    coefficients = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 6), Fraction(5, 4), Fraction(-1, 2))
    for _ in range(6):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        basis = [(name, tuple(em.GaussianRational(rng.choice(coefficients) if rng.random() < 0.6
                                                  else 0) for _ in range(m * n)))
                 for name in names]
        sym = mi.coordinate_matrix(m, n, basis)
        assert all(any(c.denominator > 1 for e in row for c in e.terms.values())
                   for row in coordinate_entries(sym) if any(row))
        for k in range(1, min(m, n) + 1):
            pairs = [(r, c) for r in itertools.combinations(range(m), k)
                     for c in itertools.combinations(range(n), k)]
            dets = _determinants(sym, pairs)
            assert dets == [_leibniz_det(sym, r, c) for r, c in pairs]
            for g in ac.minor_ideal(sym, k, ()):
                det = _leibniz_det(sym, g.rows, g.cols)
                assert g.leading_coeff() == 1 and g * g.det_factor == det


def test_linear_membership_cofactors_with_denominators():
    """Generators and a target with denominators: the cofactors are the
    unique rational solution."""
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    gens = [x * x - (y * y).scale(Fraction(1, 3)), (x * y).scale(Fraction(2, 5))]
    target = (x ** 3).scale(Fraction(3, 7))
    cof = dict(ac.linear_membership_cofactors(target, gens, cofactor_degree=1))
    assert cof == {0: x.scale(Fraction(3, 7)), 1: y.scale(Fraction(5, 14))}


def test_linear_membership_cofactors_small():
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    gens = [x * x - y * y, x * y]
    # x^3 = x*(x^2 - y^2) + y*(x y)
    cof = ac.linear_membership_cofactors(x ** 3, gens, cofactor_degree=1)
    assert cof is not None
    acc = ring.zero()
    for i, c in cof:
        acc = acc + c * gens[i]
    assert acc == x ** 3
    assert ac.linear_membership_cofactors(x ** 2, gens, cofactor_degree=0) is None


def test_linear_membership_cofactors_keeps_lower_degrees():
    """The oracle's contract is cofactors of degree at most d: for generators
    that are not homogeneous, ``x + 1 = 1 * (x + 1)`` needs the degree-0
    cofactor although d = 1, and no row of degree 1 alone reaches it."""
    ring = ac.PolyRing(["x", "y"])
    x = ring.var("x")
    g = x + ring.one()
    assert ac.linear_membership_cofactors(g, [g], cofactor_degree=1) == [(0, ring.one())]
    assert ac.linear_membership_cofactors(x * g, [g], cofactor_degree=1) == [(0, x)]


def test_certify_separable_inconclusive():
    d = qs.BipartiteState(2, 2, label="sep", edges=[
        qs.NamedVector(f"e{i}", em.basis_vector(4, i), Fraction(1)) for i in range(4)])
    assert d.matrix == em.diag([1, 1, 1, 1])
    res = ce.certify_sn_lower(d, 2, ())
    assert isinstance(res, ce.Inconclusive)


def test_certify_sn_lower_refuses_a_state_without_edges(spy):
    """A matrix state has no edges to read its range from: one
    PreconditionViolation, before any range or minor is computed."""
    d = qs.BipartiteState(2, 2, em.diag([1, 1, 1, 1]), label="sep")
    calls = spy(em, "column_space", "Subspace")
    for exclude in ((), ("psi00",)):
        with pytest.raises(PreconditionViolation, match="the state has no edge decomposition"):
            ce.certify_sn_lower(d, 2, exclude)
    assert calls == []


def test_certify_numeric_spot_check():
    """Points on the variety of the 2-minor ideal have vanishing witness
    coordinate: substitute random solutions of the rho3x3 system."""
    rng = random.Random(4)
    sym = _range_matrix(co.rho_3x3())
    # the variety of the 2-minors: psi00 = psi01*psi10 = 0 and more;
    # points with only psi02/psi20 free satisfy every minor
    minors = ac.minor_ideal(sym, 2, ())
    for _ in range(100):
        point = {v: Fraction(0) for v in sym.variables}
        free = rng.choice(("psi02", "psi20"))
        point[free] = Fraction(rng.randint(-5, 5))
        if all(evaluate(p, point) == 0 for p in minors):
            assert point["psi00"] == 0


def test_sn_upper_family_and_product():
    st = co.rho_family(3)
    cert = ce.sn_upper_from_decomposition(st)
    assert cert.value == 3
    v = em.kron_vec(em.vector([1, 2]), em.vector([0, 1]))
    pure = qs.BipartiteState(2, 2, label="prod", edges=[qs.NamedVector("v", v, Fraction(1))])
    assert pure.matrix == em.ExactMatrix.outer(v, v)
    cert = ce.sn_upper_from_decomposition(pure)
    assert cert == (1, (1,))


def test_sn_upper_family_transpose():
    for k in (2, 3):
        st = co.rho_family(k)
        dim = 2 * k - 1
        pt_state = qs.BipartiteState(dim, dim, label=f"family{k}-pt",
                                     edges=co.family_pt_decomposition(k))
        assert pt_state.matrix == st.partial_transpose("A")
        cert = ce.sn_upper_from_decomposition(pt_state)
        assert cert.value == 2


def test_sn_upper_mismatch():
    """An upper bound is read off a state's edges, which define its matrix:
    a state is built from its edges or its matrix, so edges that do not sum
    to a given matrix cannot be recorded with it."""
    st = co.rho_family(2)
    with pytest.raises(DimensionMismatch, match="by its edges or by its matrix, not both"):
        qs.BipartiteState(*st.dims, st.matrix, edges=st.edges[:1])


def test_lower_never_exceeds_upper_on_corpus():
    pipe = co.rho_4x5()
    corpus = [(pipe.final, 3, ()), (co.rho_family(2), 2, ("delta_1", "delta_2"))]
    for st, k, excl in corpus:
        lower = ce.certify_sn_lower(st, k, exclude_vars=excl)
        upper = ce.sn_upper_from_decomposition(st)
        assert isinstance(lower, ce.LowerBound)
        assert lower.value <= upper.value


# -- the explicit identity ------------------------------------------------------------------------

def test_coordinate_matrix_requires_a_real_basis():
    real = [("x", em.vector([1, 0, 0, 1])), ("y", em.vector([0, 1, 0, 0]))]
    sym = mi.coordinate_matrix(2, 2, real)
    assert [str(e) for e in coordinate_entries(sym)[0]] == ["x", "y"]
    complex_basis = [("x", em.vector([1, 0, 0, em.GaussianRational(1, 1)])), real[1]]
    with pytest.raises(NotARealRangeBasis, match="real"):
        mi.coordinate_matrix(2, 2, complex_basis)


def test_cofactor_identity():
    """The identity holds; with the cofactors ``-x02`` and ``x20`` on g1 and
    g2 in place of ``-x02/2`` and ``-x20/2`` it misses ``x00^4``."""
    assert acceptance.cofactor_identity_4x5()
    ring = ac.PolyRing(["x00", "x01", "x10", "x02", "x20"])
    x00, x01, x10, x02, x20 = (ring.var(v) for v in ring.variables)
    g1 = x20 * (x00 * x00 - x01 * x10)
    g2 = x02 * (x00 * x00 + x01 * x10)
    g3 = x20 * (x01 * x01 - x00 * x02)
    g4 = -(x02 * (x10 * x10 + x00 * x20))
    g5 = x00 * x00 * x00 + x01 * x01 * x20 - x10 * x10 * x02 - x00 * x02 * x20
    perturbed = x00 * (g5 - g3 - g4) - x02 * g1 + x20 * g2
    assert perturbed - x00 ** 4 == x00 * x00 * x02 * x20 + 2 * x01 * x10 * x02 * x20


def test_cofactor_identity_random_points():
    """Point-evaluation oracle for the cofactor identity."""
    rng = random.Random(5)
    for _ in range(100):
        x00, x01, x10, x02, x20 = (Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                   for _ in range(5))
        g1 = x20 * (x00 ** 2 - x01 * x10)
        g2 = x02 * (x00 ** 2 + x01 * x10)
        g3 = x20 * (x01 ** 2 - x00 * x02)
        g4 = -x02 * (x10 ** 2 + x00 * x20)
        g5 = x00 ** 3 + x01 ** 2 * x20 - x10 ** 2 * x02 - x00 * x02 * x20
        lhs = x00 * (g5 - g3 - g4) - (x02 * g1 + x20 * g2) / 2
        assert lhs == x00 ** 4


# -- edge states -----------------------------------------------------------------------------------

def test_edge_state_rho3x3():
    cands = [co._sites_vec([(0, 2)], 3, 3), co._sites_vec([(2, 0)], 3, 3)]
    verdict = ex.edge_state_check(co.rho_3x3(), cands)
    assert verdict.is_edge_for_candidates
    assert all(d["in_range"] and not d["pt_in_corange"] for d in verdict.details)


def test_edge_state_product_counterexample():
    v = em.kron_vec(em.vector([1, 0]), em.vector([1, 0]))
    st = qs.BipartiteState(2, 2, em.ExactMatrix.outer(v, v), label="p")
    verdict = ex.edge_state_check(st, [v])
    assert not verdict.is_edge_for_candidates


def test_edge_state_refuses_a_candidate_that_is_not_a_product():
    """The edge property speaks of product vectors; |00> + |11> + |22>, in
    the range of rho3x3, is refused rather than judged."""
    w = em.vector([1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert em.in_subspace(em.column_space(co.rho_3x3().matrix), w)
    with pytest.raises(DimensionMismatch, match="candidates must be product vectors"):
        ex.edge_state_check(co.rho_3x3(), [w])


def test_edge_state_rho4x5_regression():
    final = co.rho_4x5().final
    cands = [e.vec for e in final.edges if qs.schmidt_rank(e.vec, 4, 5) == 1]
    verdict = ex.edge_state_check(final, cands)  # grid product edges as candidates
    assert len(verdict.details) == 4   # |30>, |32>, |23>, |04>
    assert verdict.is_edge_for_candidates  # frozen regression verdict


def test_partial_conjugate_complex_product():
    a = em.vector([1, em.I_UNIT])
    b = em.vector([em.GaussianRational(1, 1), em.GaussianRational(2)])
    v = em.kron_vec(a, b)
    w = ex._partial_conjugate(v, 2, 2)
    expect = em.kron_vec(a, em.vec_conj(b))
    # equal up to the fixed phase convention: compare projectors
    assert em.ExactMatrix.outer(w, w).scale(em.vdot(expect, expect)) == \
        em.ExactMatrix.outer(expect, expect).scale(em.vdot(w, w))


def test_records_are_immutable():
    """Bounds are named tuples: their fields cannot be reassigned."""
    final = co.rho_4x5().final
    lower, upper = ce.certify_sn(final)
    for record, field in ((lower, "power"), (upper, "value")):
        with pytest.raises(AttributeError):
            setattr(record, field, 4)
