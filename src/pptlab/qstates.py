"""Bipartite states and the operations on them.

Basis convention: the product basis vector ``|i>_A (x) |j>_B`` of an
``m x n`` system sits at flat index ``i*n + j``.  All states are kept
unnormalized; normalization does not change any entanglement property and
would leave the rational field.

A state is checked once, where it is made: given edges, by refusing a
weight that is not positive (their Gram sum is then PSD), else by exact
LDL*.  What keeps a checked state valid builds its result unchecked
(``_raw``), and so do :func:`replay.read_state`, whose callers check a
stored matrix by the ppt certificate's own LDL* of it, and
:func:`extender.product_pair_extension`, whose LDL* of the partial
transpose proves the extension PSD.
Partial transposes are returned as plain matrices because their
positivity is precisely the property under investigation.  The edge state
(``replay.BipartiteState``, :class:`NamedVector`), the partial transpose
and the Schmidt rank are what ``verify`` runs, so they live in the replay
kernel :mod:`pptlab.replay`; :class:`BipartiteState` adds the matrix form.
An :class:`ExtensionStep` is one replayable step of an extension pipeline.
The paper's named states (grid graphs, rho3x3, Tiles, the 4x5 pipeline and
the scaling family) are built in :mod:`pptlab.constructions`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import exactmat as em
from . import replay as rp
from .errors import BoundsViolation, DimensionMismatch
from .replay import (NamedVector, Side, flat_index, partial_transpose_matrix,  # noqa: F401
                     schmidt_rank)


class BipartiteState(rp.BipartiteState):
    """A state given by its ``edges`` or by its ``matrix``, never both; a
    matrix is checked PSD by exact LDL* (``NotPsd``, ``NotHermitian``)."""

    __slots__ = ()

    def __init__(self, dim_a: int, dim_b: int, matrix: rp.ExactMatrix | None = None,
                 label: str = "", edges: Sequence[NamedVector] | None = None):
        if (matrix is None) == (edges is None):
            raise DimensionMismatch("a state is given by its edges or by its matrix, not both")
        if edges is not None:
            super().__init__(dim_a, dim_b, label, edges)
            return
        rp._check_dims(dim_a, dim_b, matrix)
        em.state_ldl(matrix, label)
        self._set(dim_a, dim_b, matrix, label, None)


# ---------------------------------------------------------------------------
# partial transposition, swaps, local projections
# ---------------------------------------------------------------------------

def birank(s: BipartiteState) -> tuple:
    """Pair ``(rank(rho), rank(rho^Ta))``, both exact."""
    p = rp.rank(s.matrix)
    q = rp.rank(s.partial_transpose("A"))
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
    out = rp.ExactMatrix([[row[c] for c in src] for row in rows])
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
    return BipartiteState._raw(len(rows_a), len(rows_b), rp.ExactMatrix(out),
                               f"{s.label}|block", s.edges if whole else None)


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
