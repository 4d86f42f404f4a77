"""Bipartite states and the operations on them.

Basis convention: the product basis vector ``|i>_A (x) |j>_B`` of an
``m x n`` system sits at flat index ``i*n + j``.  All states are kept
unnormalized; normalization does not change any entanglement property and
would leave the rational field.

A state is checked once, where it is made: given edges, by refusing a
negative weight (their Gram sum is then PSD), else by exact LDL*.  What
keeps a checked state valid builds its result unchecked (``_raw``), and so
does :func:`serialize.ppt_state_from_json`, whose callers check a stored
matrix by the ppt certificate's own LDL* of it.
Partial transposes are returned as plain matrices because their
positivity is precisely the property under investigation.  An
:class:`ExtensionStep` is one replayable step of an extension pipeline.
The paper's named states (grid graphs, rho3x3, Tiles, the 4x5 pipeline and
the scaling family) are built in :mod:`pptlab.constructions`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, NamedTuple, Sequence

from . import exactmat as em
from .errors import BoundsViolation, DimensionMismatch, NotPsd

Side = Literal["A", "B"]


def flat_index(i: int, j: int, n: int) -> int:
    return i * n + j


# ---------------------------------------------------------------------------
# bipartite states
# ---------------------------------------------------------------------------

class NamedVector(NamedTuple):
    """A labeled vector with a nonnegative rational weight, e.g. a grid edge."""

    name: str
    vec: em.Vector
    weight: Fraction


class BipartiteState:
    """Unnormalized bipartite density operator with exact entries.

    ``edges`` optionally records a conic decomposition ``sum_w w |v><v|`` of
    the matrix, with no negative weight: alone, they define it by one Gram
    sum, PSD by construction; with a matrix, they must reproduce it.  A
    matrix alone is checked PSD by exact LDL*.
    """

    __slots__ = ("dim_a", "dim_b", "matrix", "label", "edges")

    def __init__(self, dim_a: int, dim_b: int, matrix: em.ExactMatrix | None = None,
                 label: str = "", edges: Sequence[NamedVector] | None = None):
        if edges is None:
            if matrix.shape != (dim_a * dim_b, dim_a * dim_b):
                raise DimensionMismatch("matrix size does not match local dimensions")
            state_ldl(matrix, label)
        else:
            edges = tuple(edges)
            bad = next((e for e in edges if e.weight < 0), None)
            if bad is not None:
                raise BoundsViolation(f"edge {bad.name!r} has negative weight {bad.weight}")
            acc = em.weighted_gram([e.vec for e in edges], [e.weight for e in edges],
                                   dim_a * dim_b)
            if matrix is not None and acc != matrix:
                raise DimensionMismatch("recorded edge decomposition does not reproduce the matrix")
            matrix = acc
        self._set(dim_a, dim_b, matrix, label, edges)

    def _set(self, *fields) -> "BipartiteState":
        for slot, value in zip(self.__slots__, fields):
            object.__setattr__(self, slot, value)
        return self

    @staticmethod
    def _raw(dim_a: int, dim_b: int, matrix: em.ExactMatrix, label: str,
             edges: tuple | None = None) -> "BipartiteState":
        """Unchecked: a state made from a checked one, ``edges`` summing to ``matrix``."""
        return object.__new__(BipartiteState)._set(dim_a, dim_b, matrix, label, edges)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteState is immutable")

    @property
    def dims(self) -> tuple:
        return (self.dim_a, self.dim_b)

    def __eq__(self, other):
        if not isinstance(other, BipartiteState):
            return NotImplemented
        return self.dims == other.dims and self.matrix == other.matrix

    def __repr__(self):
        return f"BipartiteState({self.dim_a}x{self.dim_b}, {self.label!r})"

    def partial_transpose(self, side: Side) -> em.ExactMatrix:
        return partial_transpose_matrix(self.matrix, self.dim_a, self.dim_b, side)


def state_ldl(matrix: em.ExactMatrix, label: str) -> em.PsdResult:
    """The exact LDL* of a state's matrix, which is the check of a matrix
    state: :class:`NotPsd` unless the matrix is PSD (and, from
    :func:`exactmat.psd_check`, ``NotHermitian`` unless it is Hermitian)."""
    res = em.psd_check(matrix)
    if not res.is_psd:
        raise NotPsd(f"state {label!r} is not PSD; witness value {res.witness_value}")
    return res


def edge_basis(s: BipartiteState, rng: em.Subspace) -> tuple | None:
    """The edge vectors of ``s`` when they are a basis of ``rng``, its range
    (linearly independent and spanning it), else None.  The edges of
    positive weight span the range of the Gram sum (no weight is negative),
    so the edges are a basis of it exactly when there are ``rng.dim``."""
    vecs = tuple(e.vec for e in s.edges or ())
    return vecs if len(vecs) == rng.dim else None


# ---------------------------------------------------------------------------
# partial transposition, swaps, local projections
# ---------------------------------------------------------------------------

def partial_transpose_matrix(M: em.ExactMatrix, m: int, n: int, side: Side) -> em.ExactMatrix:
    """Exact partial transpose: ``<ij|M^Tb|kl> = <il|M|kj>`` on side B,
    ``<ij|M^Ta|kl> = <kj|M|il>`` on side A."""
    if M.shape != (m * n, m * n):
        raise DimensionMismatch("operator size does not match local dimensions")
    out = [[em.ZERO] * (m * n) for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            r = flat_index(i, j, n)
            for k in range(m):
                for l in range(n):
                    c = flat_index(k, l, n)
                    if side == "B":
                        out[r][c] = M.entry(flat_index(i, l, n), flat_index(k, j, n))
                    else:
                        out[r][c] = M.entry(flat_index(k, j, n), flat_index(i, l, n))
    return em.ExactMatrix(out)


def birank(s: BipartiteState) -> tuple:
    """Pair ``(rank(rho), rank(rho^Ta))``, both exact."""
    p = em.rank(s.matrix)
    q = em.rank(s.partial_transpose("A"))
    return (p, q)


def swap_index(m: int, n: int) -> list:
    """The A<->B relabelling of an ``m x n`` product basis: entry ``j*m + i``
    is ``i*n + j``, the index of ``|i>_A (x) |j>_B`` before the swap.

    Reading any index set through it moves that set into the swapped
    ``n x m`` frame; ``swap_index(n, m)`` moves it back.
    """
    return [flat_index(i, j, n) for j in range(n) for i in range(m)]


def swap_subsystems(s: BipartiteState) -> BipartiteState:
    """Relabel A and B: ``<ji|rho'|lk> = <ij|rho|kl>``; an involution."""
    src = swap_index(s.dim_a, s.dim_b)
    rows = [s.matrix.row(r) for r in src]
    out = em.ExactMatrix([[row[c] for c in src] for row in rows])
    edges = None if s.edges is None else \
        tuple(NamedVector(e.name, tuple(e.vec[r] for r in src), e.weight) for e in s.edges)
    return BipartiteState._raw(s.dim_b, s.dim_a, out, f"swap({s.label})", edges)


def project_local_block(s: BipartiteState, rows_a: Sequence[int], rows_b: Sequence[int]) -> BipartiteState:
    """Restrict to the local block spanned by the given basis indices.

    Equals ``(A (x) B) rho (A (x) B)*`` with selector isometries; PPT of the
    input implies PPT of the output (checked in tests, not assumed here).
    """
    for name, idx, bound in (("rows_a", rows_a, s.dim_a), ("rows_b", rows_b, s.dim_b)):
        if not idx:
            raise BoundsViolation(f"{name} must be nonempty")
        if len(set(idx)) != len(idx):
            raise BoundsViolation(f"{name} contains duplicates")
        if any(i < 0 or i >= bound for i in idx):
            raise BoundsViolation(f"{name} outside local dimension {bound}")
    sel = [flat_index(i, j, s.dim_b) for i in rows_a for j in rows_b]
    out = [[s.matrix.entry(r, c) for c in sel] for r in sel]
    whole = list(rows_a) == list(range(s.dim_a)) and list(rows_b) == list(range(s.dim_b))
    return BipartiteState._raw(len(rows_a), len(rows_b), em.ExactMatrix(out),
                               f"{s.label}|block", s.edges if whole else None)


def schmidt_rank(v: em.Vector, m: int, n: int) -> int:
    """Exact Schmidt rank: rank of the ``m x n`` coefficient matricization."""
    if len(v) != m * n:
        raise DimensionMismatch("vector length does not match dimensions")
    M = em.ExactMatrix([[v[flat_index(i, j, n)] for j in range(n)] for i in range(m)])
    return em.rank(M)


# ---------------------------------------------------------------------------
# extension steps
# ---------------------------------------------------------------------------

class ExtensionStep(NamedTuple):
    """One replayable step of an extension pipeline.

    ``parameters`` holds the step's exact data under the ``pptlab extend``
    step-JSON keys: ``edge`` (direct_sum), ``phi`` (slocc), ``alpha``,
    ``beta``, ``gamma`` (product_pair) or ``chi`` (flat).  The new level is
    the last local index of ``side``.  ``label`` names the extended state and
    ``names`` the remainder's rank-one parts (:func:`extender.run_pipeline`);
    ``None`` names them ``<side><level>_<t>`` after the new level.
    """

    kind: str                   # "direct_sum" | "slocc" | "product_pair" | "flat"
    side: Side
    parameters: dict
    label: str
    names: tuple | None
