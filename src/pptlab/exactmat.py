"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers ``a + b*i`` with arbitrary-precision rational
``a``, ``b`` (:class:`GaussianRational`).  Matrices are dense and immutable
(:class:`ExactMatrix`); subspaces carry a canonical reduced-row-echelon
basis so that equality of subspaces is syntactic equality of bases
(:class:`Subspace`).

Every operation here is exact: verdicts like :func:`psd_check` are decided
by symmetric-pivoted LDL* elimination, never by floating point.  One row
elimination (:func:`_echelon`) serves subspaces, ranks, kernels and solves;
it and :func:`psd_check` run on integer rows: each row is scaled to
Gaussian integers, held as pairs of int lists, once on entry, and
eliminated fraction-free with exact divisions (Bareiss; Zhou & Jeffrey for
LDL*).  Only outputs become Gaussian rationals: a kernel's canonical basis
is read off the integer rows, a rank counts pivots.  The pseudoinverse is
never materialized; its action is available through
:func:`solve_on_range_matrix`.

What ``verify`` runs (scalars, :class:`ExactMatrix`, :func:`weighted_gram`,
the elimination, :class:`Subspace` and :func:`rank`) lives in the replay
kernel :mod:`pptlab.replay`, imported here under the same names.  One rule
places a matrix operation: :class:`ExactMatrix` keeps its value protocol,
what ``verify`` runs and what the benchmark pins, and what only the
builders call is a function here: :func:`zeros`, :func:`diag`,
:func:`adjoint` and the rest of the algebra, column spaces, annihilators,
subspace membership, kernels, solves, projectors and the LDL*
(:func:`psd_check`, which makes a ppt certificate's evidence, and
:func:`state_ldl`, the check of a matrix state where a builder makes it).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, NotHermitian, NotPsd, RangeViolation
from .replay import (ONE, ZERO, ExactMatrix, GaussianRational, Subspace, Vector,  # noqa: F401
                     _combine, _echelon, _entry, _int_row, _int_rows, _nonzero, _quotient,
                     _row_lcm, _rref, as_scalar, format_scalar, parse_scalar, rank, vdot,
                     vector, weighted_gram)

I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# vectors (plain tuples of GaussianRational) and the builders' matrix algebra
# ---------------------------------------------------------------------------

def basis_vector(n: int, j: int) -> Vector:
    return tuple(ONE if i == j else ZERO for i in range(n))


def vec_conj(v: Vector) -> Vector:
    return tuple(a.conj() for a in v)


def kron_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a * b for a in u for b in v)


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


def zeros(rows: int, cols: int) -> ExactMatrix:
    """The zero matrix; :class:`ExactMatrix` reads its column count off its first row."""
    if not rows and cols:
        raise DimensionMismatch(f"no {rows}x{cols} matrix: a matrix with no rows has no columns")
    return ExactMatrix([[ZERO] * cols for _ in range(rows)])


def diag(values: Sequence) -> ExactMatrix:
    return ExactMatrix([[x if i == j else ZERO for j in range(len(values))]
                        for i, x in enumerate(values)])


def adjoint(M: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[x.conj() for x in col] for col in zip(*M._e)])


def conjugate(M: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[x.conj() for x in row] for row in M._e])


def trace(M: ExactMatrix) -> GaussianRational:
    return sum((M.entry(i, i) for i in range(min(M.rows, M.cols))), ZERO)


def is_zero(M: ExactMatrix) -> bool:
    return not any(any(row) for row in M._e)


# ---------------------------------------------------------------------------
# subspaces, kernels, solves and projectors on the replay kernel's integer rows
# ---------------------------------------------------------------------------

def column_space(M: ExactMatrix) -> Subspace:
    """Range R(M) as a canonical subspace."""
    return Subspace(M.rows, zip(*M.tolists()))


def _canonical_subspace(ambient_dim: int, basis: list) -> Subspace:
    """The subspace spanned by ``basis``, which is already canonical."""
    S = object.__new__(Subspace)
    object.__setattr__(S, "ambient_dim", ambient_dim)
    object.__setattr__(S, "basis", tuple(basis))
    return S


def annihilator(S: Subspace) -> list:
    """Rows ``r`` with ``S = {w : sum_j r[j] w[j] = 0}``, one per non-pivot
    column, read off the canonical basis without elimination."""
    pivots = [next(i for i, x in enumerate(b) if x) for b in S.basis]
    rows = []
    for f in sorted(set(range(S.ambient_dim)) - set(pivots)):
        v = [ZERO] * S.ambient_dim
        v[f] = ONE
        for b, pc in zip(S.basis, pivots):
            v[pc] = -b[f]
        rows.append(tuple(v))
    return rows


def in_subspace(S: Subspace, v: Vector) -> bool:
    """Whether ``v`` lies in ``S``: it reduces to zero by the canonical basis."""
    if len(v) != S.ambient_dim:
        raise DimensionMismatch("vector of wrong length")
    w = list(v)
    for b in S.basis:
        lead = next(i for i, x in enumerate(b) if x)
        if w[lead]:
            f = w[lead]
            w = [a - f * c if c else a for a, c in zip(w, b)]
    return not any(w)


def _int_kernel(work: list, ncols: int) -> tuple:
    """``(rank, right kernel)`` of the Gaussian-integer rows ``work``.

    Columns are eliminated last to first, so each pivot row is zero right of
    its pivot and at the other pivots.  The kernel vector of free column
    ``f`` (1 at ``f``, ``-row[f] / lead`` at each pivot) is then zero left
    of ``f`` and at the other free columns: by increasing ``f``, these
    vectors are the canonical basis as they stand.
    """
    pivots = _echelon(work, range(ncols - 1, -1, -1))
    minus_leads = [(-lr, -li) for lr, li in (_entry(row, c) for row, c in zip(work, pivots))]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pc, lead in zip(work, pivots, minus_leads):
            if _nonzero(row, f):
                v[pc] = _quotient(*_entry(row, f), lead)
        basis.append(tuple(v))
    return len(pivots), _canonical_subspace(ncols, basis)


def rank_and_kernel(M: ExactMatrix) -> tuple[int, Subspace]:
    """Exact rank of ``M`` together with its right kernel."""
    return _int_kernel(_int_rows(M._e), M.cols)


def orth_projector(S: Subspace) -> ExactMatrix:
    """Orthogonal projector onto ``S`` via exact Gram-matrix inversion."""
    if S.ambient_dim < 1:
        raise DimensionMismatch("ambient dimension must be at least 1")
    if S.dim == 0:
        return zeros(S.ambient_dim, S.ambient_dim)
    C = ExactMatrix(zip(*S.basis))            # ambient x k, the basis as columns
    G = adjoint(C).matmul(C)                  # k x k, positive definite
    X = solve_on_range_matrix(G, adjoint(C))  # G^{-1} C*, unique: G is invertible
    return C.matmul(X)


def solve_on_range_matrix(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A particular solution ``X`` of ``A X = B``, free variables set to zero.

    One elimination pass serves every column of ``B``.  Raises
    :class:`RangeViolation` when a column of ``B`` is not in R(A).  The
    solution is not unique when ``A`` is singular, but for Hermitian ``A``
    and ``Y`` with columns in R(A), ``Y = A S``, the product
    ``Y* X = S* B`` is the same for every solution: this is how the
    pseudoinverse acts without being formed.
    """
    m, n = A.rows, A.cols
    if B.rows != m:
        raise DimensionMismatch("right-hand side of wrong length")
    k = B.cols
    pivots, reduced, consistent = _rref([A.row(i) + B.row(i) for i in range(m)], limit_cols=n)
    if not consistent:
        raise RangeViolation("right-hand side outside the range")
    X = [[ZERO] * k for _ in range(n)]
    for row, pc in zip(reduced, pivots):
        X[pc] = row[n:]
    return ExactMatrix(X)


# ---------------------------------------------------------------------------
# exact PSD decision
# ---------------------------------------------------------------------------

def _int_matrix(M: ExactMatrix) -> tuple:
    """``(L, rows)``: ``L`` the common denominator of ``M`` and the rows of
    ``L * M`` as Gaussian-integer lists."""
    scale = math.lcm(*(_row_lcm(row) for row in M._e))
    return scale, [_int_row(row, scale) for row in M._e]


def _int_hermitian(A: list) -> bool:
    """Whether the square Gaussian-integer rows ``A`` equal their adjoint."""
    zero = [0] * len(A)
    re_t = [list(col) for col in zip(*(re for re, _ in A))]
    im_t = [[-x for x in col] for col in zip(*(im or zero for _, im in A))]
    return re_t == [re for re, _ in A] and im_t == [im or zero for _, im in A]


class PsdResult(NamedTuple):
    """Outcome of an exact PSD decision.

    PSD case: ``M = sum_t d_t |l_t><l_t|`` with strictly positive rational
    ``d_t`` (``pivots`` holds the pivot index alongside ``d_t``).  Non-PSD
    case: ``witness`` satisfies ``<v|M|v> = witness_value < 0`` exactly.
    """

    is_psd: bool
    pivots: tuple                 # tuple[(index, Fraction), ...], () unless PSD
    columns: tuple                # tuple[Vector, ...], l_t with l_t[index]=1
    witness: Vector | None        # None when PSD
    witness_value: Fraction | None


def _psd_witness(loc: list, pivot_indices: list, ell_list: list, n: int) -> Vector:
    """Extend a local witness to the original coordinates.

    The local witness ``loc`` lives in the residual after eliminating the
    recorded pivots; appending corrections on the pivot coordinates makes it
    orthogonal to every recorded column, which preserves the quadratic form
    value taken on the residual.
    """
    v = list(loc)
    t = len(pivot_indices)
    alphas = [ZERO] * t
    for s in range(t - 1, -1, -1):
        ell = ell_list[s]
        acc = ZERO
        for i, x in enumerate(v):
            if x and ell[i]:
                acc = acc + ell[i].conj() * x
        for s2 in range(s + 1, t):
            a2 = alphas[s2]
            if a2 and ell[pivot_indices[s2]]:
                acc = acc + ell[pivot_indices[s2]].conj() * a2
        alphas[s] = -acc
    for s in range(t):
        v[pivot_indices[s]] = v[pivot_indices[s]] + alphas[s]
    return tuple(v)


def psd_check(M: ExactMatrix) -> PsdResult:
    """Exact positive-semidefiniteness decision by pivoted LDL*.

    Pivots only on nonzero diagonal entries, the first in index order; a
    negative diagonal or a zero diagonal with a nonzero residual row yields
    an explicit witness vector with a negative quadratic form value.  The
    elimination is fraction-free over Gaussian-integer rows of ``L * M``,
    ``L`` the common denominator of ``M``: eliminating a pivot updates only
    the rows where the pivot row is nonzero, each over its full length.
    """
    n = M.rows
    scale, A = _int_matrix(M)
    if n != M.cols or not _int_hermitian(A):
        raise NotHermitian("psd_check requires an exactly Hermitian matrix")
    den = [1] * n           # row i of the Schur complement is A[i] / (den[i] * scale)
    p_prev = 1
    active = list(range(n))
    pivot_indices: list[int] = []
    pivot_values: list[Fraction] = []
    ells: list[list] = []

    while True:
        piv = next((j for j in active if A[j][0][j]), None)
        if piv is not None:
            re, im = A[piv]
            dnum = re[piv]
            d = Fraction(dnum, den[piv] * scale)
            if dnum < 0:
                loc = [ZERO] * n
                loc[piv] = ONE
                return PsdResult(False, (), (), _psd_witness(loc, pivot_indices, ells, n), d)
            # ell = column piv / d, the conjugate of the pivot row over its diagonal
            nz = [i for i in range(n) if _nonzero(A[piv], i)]
            ell = [ZERO] * n
            for i in nz:
                ell[i] = _quotient(re[i], -im[i] if im is not None else 0, (dnum, 0))
            if den[piv] != p_prev:  # bring the pivot row up to the current step
                A[piv] = _combine((p_prev, 0), A[piv], (0, 0), A[piv], (den[piv], 0))
            p = (A[piv][0][piv], 0)
            for i in nz:
                if i != piv:
                    A[i] = _combine(p, A[i], _entry(A[i], piv), A[piv], (den[i], 0))
                    den[i] = p[0]
            p_prev = p[0]
            pivot_indices.append(piv)
            pivot_values.append(d)
            ells.append(ell)
            active.remove(piv)
        else:
            off = next(((i, k) for ai, i in enumerate(active) for k in active[ai + 1:]
                        if _nonzero(A[i], k)), None)
            if off is None:
                return PsdResult(True, tuple(zip(pivot_indices, pivot_values)),
                                 tuple(tuple(l) for l in ells), None, None)
            i, k = off
            ur, ui = _entry(A[i], k)
            q = den[i] * scale
            loc = [ZERO] * n
            loc[i] = ONE
            loc[k] = -_quotient(ur, -ui, (q, 0))
            value = Fraction(-2 * (ur * ur + ui * ui), q * q)
            return PsdResult(False, (), (), _psd_witness(loc, pivot_indices, ells, n), value)


def state_ldl(matrix: ExactMatrix, label: str) -> PsdResult:
    """The exact LDL* of a state's matrix, which is the check of a matrix
    state: :class:`NotPsd` unless the matrix is PSD (and, from
    :func:`psd_check`, ``NotHermitian`` unless it is Hermitian)."""
    res = psd_check(matrix)
    if not res.is_psd:
        raise NotPsd(f"state {label!r} is not PSD; witness value {res.witness_value}")
    return res
