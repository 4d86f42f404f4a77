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
kernel :mod:`pptlab.replay`, imported here under the same names, and so
does :func:`psd_check`, which no ``verify`` runs: it is the LDL* that checks
a matrix state where the state is made.  One rule places a matrix
operation: :class:`ExactMatrix` keeps its value protocol, what ``verify``
runs and what the benchmark pins, and what only the builders call is a
function here: :func:`zeros`, :func:`diag`, :func:`adjoint` and the rest of
the algebra, column spaces, annihilators, subspace membership, kernels,
solves and projectors.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, RangeViolation
from .replay import (ONE, ZERO, ExactMatrix, GaussianRational, PsdResult,  # noqa: F401
                     Subspace, Vector, _echelon, _entry, _int_rows, _nonzero, _quotient,
                     _rref, as_scalar, format_scalar, parse_scalar, psd_check, rank, vdot,
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


def null_space(rows: Sequence[Vector], n: int) -> Subspace:
    """``{w in C^n : sum_j r[j] w[j] = 0 for every row r}``; all of ``C^n``
    when there are no rows."""
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"constraint rows of length {len(r)} on C^{n}")
    return _int_kernel(_int_rows(vector(r) for r in rows), n)[1]


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


def subspace_intersection(U: Subspace, V: Subspace) -> Subspace:
    """Exact intersection: the null space of both annihilators' rows stacked."""
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    return null_space(annihilator(U) + annihilator(V), U.ambient_dim)
