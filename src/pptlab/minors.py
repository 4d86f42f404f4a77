"""The sn-lower replay: the range, packed monomials, coordinate matrices and minors.

A Schmidt-number lower bound is an identity ``sum_i c_i det M[rows_i,
cols_i] = x_w^N`` over minors of the coordinate matrix ``M`` (``Psi_ij =
sum_l v_l[ij] x_l``) of any real range basis, ``x_w`` any one coordinate
(:func:`lower_bound_setup` holds the proof).  This module holds what
checking such an identity needs, and nothing of the search that finds
one: the range, read once from the state's edges, with the rule that
picks its basis (:func:`range_basis`), :class:`_Packing` (a monomial as
one int, in grevlex order), :func:`coordinate_matrix` (``M`` as scaled
integer rows of packed linear forms) and :func:`minor_identity_holds`
(the listed determinants only, by Laplace expansion), which the certifier
and the verifier share with the setup.  It imports only the replay kernel
and :mod:`pptlab.errors`: a ``verify`` process loads it on top of the
kernel, and never the certifier or the Groebner oracle.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Sequence

from . import replay as rp
from .errors import (DimensionMismatch, MonomialOverflow, NonOrthogonalBasis,
                     PreconditionViolation)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

def _grevlex_key(exps: tuple):  # the order :class:`_Packing` encodes
    return (sum(exps), tuple(-e for e in reversed(exps)))


class _Packing:
    """Monomials of an ``nvars``-variable ring packed into one Python int.

    Fields, most significant first: ``[degree | MAX-e_{n-1} | ... | MAX-e_0]``,
    each ``width`` bits with the top bit of every exponent field spare as a
    guard.  Integer order is then grevlex, the product of ``a`` and ``b`` is
    ``a + b - one``, the quotient ``a / b`` is ``a - b + one``, and ``a``
    divides ``b`` iff ``((a | guard) - b) & guard == guard``.  Every packed
    monomial has degree at most ``max``, so no field can wrap: packing
    raises :class:`MonomialOverflow` instead (:meth:`check_degree`).
    """

    __slots__ = ("nvars", "width", "max", "one", "guard")

    def __init__(self, nvars: int):
        # up to 32 bytes per monomial: four-byte fields for small rings, one
        # byte per field (degrees up to 127) from 16 variables on
        width = 8 * min(4, max(1, 32 // (nvars + 1)))
        self.nvars = nvars
        self.width = width
        self.max = (1 << (width - 1)) - 1
        self.one = sum(self.max << (width * i) for i in range(nvars))
        self.guard = sum(1 << (width * i + width - 1) for i in range(nvars))

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
            raise NonOrthogonalBasis("the basis is not real: the coordinate ring is Q")
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
        raise NonOrthogonalBasis("the state's edges are not a basis of the range")
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
