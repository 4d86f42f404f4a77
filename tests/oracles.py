"""Independent routes that the tests compare the package against.

None of them is on a path the package runs: each recomputes a result of
``exactmat``, ``extender``, ``minors`` or ``algcert`` a second way, or
(:func:`evaluate`, :func:`kron`, :func:`matrix_state`) computes what only
the tests need.
"""

import math
from fractions import Fraction

from pptlab import algcert as ac
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import minors as mi
from pptlab import qstates as qs


def kron(A: em.ExactMatrix, B: em.ExactMatrix) -> em.ExactMatrix:
    """The Kronecker product ``A (x) B``, a local operator on ``A``'s and ``B``'s sides."""
    return em.ExactMatrix([em.kron_vec(a, b) for a in A.tolists() for b in B.tolists()])


def matrix_state(s: qs.BipartiteState) -> qs.BipartiteState:
    """``s`` given by its matrix alone, under its label: a state file's form
    of a state without edges, since every named state records its edges."""
    return qs.BipartiteState(*s.dims, s.matrix, label=s.label)


def intersection_via_stacked_kernel(U: em.Subspace, V: em.Subspace) -> em.Subspace:
    """The intersection of ``U`` and ``V`` without annihilators.

    Solves ``sum a_i u_i = sum b_j v_j`` through the kernel of the stacked
    basis matrix ``[U | -V]`` and maps the ``a`` part back.
    """
    n = U.ambient_dim
    if U.dim == 0 or V.dim == 0:
        return em.Subspace(n, ())
    cols = list(U.basis) + [tuple(-x for x in v) for v in V.basis]
    _, kern = em.rank_and_kernel(em.ExactMatrix(zip(*cols)))
    vecs = []
    for w in kern.basis:
        x = (em.ZERO,) * n
        for c, u in zip(w[:U.dim], U.basis):
            if c:
                x = tuple(a + c * b for a, b in zip(x, u))
        if not em.is_zero_vector(x):
            vecs.append(x)
    return em.Subspace(n, vecs)


def ppt_extension_space_stacked(core: qs.BipartiteState) -> em.Subspace:
    """The side-A solution space of ``extender.ppt_extension_space``, solved
    another way: both tensor ranges are spanned by range basis vectors
    times unit vectors and intersected by
    :func:`intersection_via_stacked_kernel`, which forms no annihilator."""
    m, n = core.dims
    units = [em.basis_vector(n, j) for j in range(n)]
    s1 = [em.kron_vec(u, e) for u in em.column_space(core.matrix).basis for e in units]
    conj_ta = em.ExactMatrix([[x.conj() for x in row] for row in core.partial_transpose("A").tolists()])
    s2 = [tuple(v[a * n + c] * e[b] for a in range(m) for b in range(n) for c in range(n))
          for v in em.column_space(conj_ta).basis for e in units]
    N = m * n * n
    return intersection_via_stacked_kernel(em.Subspace(N, s1), em.Subspace(N, s2))


def trivial_coupling_space_by_products(core: qs.BipartiteState) -> em.Subspace:
    """``extender.trivial_coupling_space`` by its definition: the Choi
    vectors of ``slocc_coupling(core, |i>)``, whose columns are products of
    the core matrix with unit vectors."""
    m, n = core.dims
    couplings = [ex.slocc_coupling(core, em.basis_vector(m, i)) for i in range(m)]
    return em.Subspace(m * n * n, [ex.coupling_choi_vector(chi, m, n) for chi in couplings])


def first_divisor_remainder(p, basis):
    """Reference reduction on exponent tuples: the largest remaining term is
    reduced by the first basis element whose leading monomial divides it."""
    ring = p.ring
    divisors = [g for g in basis if g]
    work, remainder = dict(p.terms), {}
    while work:
        m = max(work, key=mi._grevlex_key)
        c = work.pop(m)
        g = next((g for g in divisors
                  if all(a <= b for a, b in zip(g.leading_monomial(), m))), None)
        if g is None:
            remainder[m] = c
            continue
        shift = tuple(a - b for a, b in zip(m, g.leading_monomial()))
        q = c / g.leading_coeff()
        multiple = {tuple(a + b for a, b in zip(t, shift)): q * x for t, x in g.terms.items()}
        rest = ac.Polynomial(ring, {**work, m: c}) - ac.Polynomial(ring, multiple)
        work = dict(rest.terms)
    return ac.Polynomial(ring, remainder)


def interreduce(polys) -> list:
    """Reduce each polynomial by the others until none changes; the monic
    nonzero results, sorted by leading monomial.  It works on exponent
    tuples through :func:`first_divisor_remainder`, so it shares no routine
    with ``algcert.buchberger``, whose last step it re-derives."""
    current = [p.monic() for p in polys if p]
    changed = True
    while changed:
        changed = False
        done = []
        for i, p in enumerate(current):
            r = first_divisor_remainder(p, done + current[i + 1:])
            changed |= r != p
            if r:
                done.append(r.monic())
        current = done
    return sorted(current, key=lambda p: mi._grevlex_key(p.leading_monomial()))


def _unit(ring, l: int) -> tuple:
    return tuple(int(t == l) for t in range(ring.nvars))


def coordinate_entries(sym) -> tuple:
    """The entries ``Psi_ij = sum_l v_l[ij] x_l`` of a
    ``minors.SymbolicRangeMatrix`` as polynomials, read from its basis
    rather than from its packed rows."""
    ring, n = ac.PolyRing(sym.variables), sym.dim_b
    return tuple(tuple(ac.Polynomial(ring, {_unit(ring, l): v[i * n + j].re
                                            for l, (_, v) in enumerate(sym.basis)})
                       for j in range(n))
                 for i in range(sym.dim_a))


def linear_form_matrix(ring, entries):
    """The ``minors.coordinate_matrix`` whose entries are ``entries``, a grid
    of linear forms in ``ring``: basis vector ``l`` holds the coefficients
    of ``x_l``."""
    m, n = len(entries), len(entries[0])
    if any(sum(mono) != 1 for row in entries for p in row for mono in p.terms):
        raise ValueError("entries must be linear forms")
    basis = [(name, tuple(em.GaussianRational(entries[i][j].terms.get(_unit(ring, l), 0))
                          for i in range(m) for j in range(n)))
             for l, name in enumerate(ring.variables)]
    return mi.coordinate_matrix(m, n, basis)


def evaluate(p, point: dict) -> Fraction:
    """The polynomial ``p`` at rational values given per variable name."""
    vals = [Fraction(point[v]) for v in p.ring.variables]
    return sum((c * math.prod(v ** e for v, e in zip(vals, m)) for m, c in p.terms.items()),
               Fraction(0))
