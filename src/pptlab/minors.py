"""The sn-lower replay: packed monomials, coordinate matrices and minors.

A Schmidt-number lower bound is an identity ``sum_i c_i det M[rows_i,
cols_i] = x_w^N`` over minors of the coordinate matrix ``M`` of a range
basis (``Psi_ij = sum_l v_l[ij] x_l``).  This module holds what checking
such an identity needs, and nothing of the search that finds one:
:class:`_Packing` (a monomial as one int, in grevlex order),
:func:`coordinate_matrix`, which builds ``M`` from the basis once as scaled
integer rows of packed linear forms, and :func:`minor_identity_holds`,
which computes only the listed determinants by Laplace expansion on those
rows.  The certifier (:mod:`pptlab.certifier`) and the verifier
(:mod:`pptlab.replay`) run the same setup, :func:`lower_bound_setup`, and
the same identity check.  Of the package it imports only the replay kernel
and :mod:`pptlab.errors`, so a ``verify`` process that replays a lower half
loads this module on top of the kernel, and never the certifier or the
polynomial classes of the Groebner oracle (:mod:`pptlab.algcert`).
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Sequence

from . import replay as rp
from .errors import (DimensionMismatch, MonomialOverflow, NonOrthogonalBasis,
                     NonSingleVariableOverlap, WitnessNotInRange)


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

    def unit(self, l: int) -> int:
        """Variable ``l`` as a packed factor: ``monomial * x_l = monomial + unit(l)``."""
        return (1 << (self.width * self.nvars)) - (1 << (self.width * l))

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


def lower_bound_setup(s: rp.BipartiteState, rng: rp.Subspace, basis: str,
                      variables: Sequence[str], witness: rp.Vector) -> tuple:
    """``(M, witness_variable)``: the coordinate matrix of the basis of
    ``rng``, the range of ``s``, that ``basis`` names (``"range"``, the
    canonical one, or ``"edges"``, which must be one), one of ``variables``
    per vector, and the variable of the one vector the ``witness`` (which
    must lie in ``rng``) overlaps.  Each check raises its own error."""
    if not rng.contains(witness):
        raise WitnessNotInRange("the witness is not in the state's range")
    vectors = rng.basis if basis == "range" else rp.edge_basis(s, rng)
    if vectors is None:
        raise NonOrthogonalBasis("the state's edges are not a basis of the range")
    if len(variables) != len(vectors) or len(set(variables)) != len(variables):
        raise DimensionMismatch("the certificate needs one variable per basis vector")
    M = coordinate_matrix(s.dim_a, s.dim_b, tuple(zip(variables, vectors)))
    overlaps = [name for name, v in M.basis if rp.vdot(v, witness)]
    if len(overlaps) != 1:
        raise NonSingleVariableOverlap(
            f"the witness overlaps {len(overlaps)} basis vectors, need exactly 1")
    return M, overlaps[0]


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


def minor_identity_holds(M: SymbolicRangeMatrix, power: int, witness_variable: str,
                         pairs: Sequence[tuple], cofactors: Sequence[dict]) -> bool:
    """Whether ``sum cofactor_i * det M[rows_i, cols_i] = x_w^power`` exactly.

    ``pairs`` lists the ``(rows, cols)`` of each minor and ``cofactors`` the
    matching terms (exponent tuple -> Fraction) of degree ``power - k``.
    Only these determinants are computed, on the packed int rows of ``M``
    (:func:`_determinant`), and the sum is compared
    with ``x_w^power`` over one common denominator: that of every cofactor
    coefficient times its minor's row scales.  Both the certifier and the
    verifier of sn-lower identities call it.
    """
    P, rows, scales = M.packing, M.rows, M.scales
    P.check_degree(power)   # every product has degree power
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
    target = tuple(power if v == witness_variable else 0 for v in M.variables)
    return acc == {P.pack(target): den}
