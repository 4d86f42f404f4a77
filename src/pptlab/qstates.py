"""Bipartite states, grid graphs, and the canonical state families.

Basis convention: the product basis vector ``|i>_A (x) |j>_B`` of an
``m x n`` system sits at flat index ``i*n + j``.  All states are kept
unnormalized; normalization does not change any entanglement property and
would leave the rational field.

States verify Hermiticity and positive semidefiniteness exactly at
construction.  Partial transposes are returned as plain matrices because
their positivity is precisely the property under investigation.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Sequence

from . import exactmat as em
from .errors import BoundsViolation, DimensionMismatch, InvalidK, NotPsd

Side = Literal["A", "B"]


def flat_index(i: int, j: int, n: int) -> int:
    return i * n + j


def _sites_vec(plus: list, m: int, n: int, minus: list = ()) -> em.Vector:
    """Plus one on every ``plus`` site and minus one on every ``minus`` site."""
    v = [em.ZERO] * (m * n)
    for (i, j) in plus:
        v[flat_index(i, j, n)] = em.ONE
    for (i, j) in minus:
        v[flat_index(i, j, n)] = -em.ONE
    return tuple(v)


# ---------------------------------------------------------------------------
# grid graphs
# ---------------------------------------------------------------------------

class GridEdge(NamedTuple):
    """One weighted hyperedge of a grid graph.

    ``kind`` is "solid" (plus-superposition of all sites) or "dashed"
    (difference of exactly two sites).
    """

    kind: str
    sites: tuple
    weight: Fraction

    def vector(self, dim_a: int, dim_b: int) -> em.Vector:
        if self.kind == "solid":
            return _sites_vec(self.sites, dim_a, dim_b)
        return _sites_vec(self.sites[:1], dim_a, dim_b, minus=self.sites[1:])


class GridGraph(NamedTuple("GridGraph", [("dim_a", int), ("dim_b", int), ("edges", tuple)])):
    """Vertex grid with solid hyperedges and dashed two-site edges
    (``edges`` is a tuple of :class:`GridEdge`), checked at construction."""

    __slots__ = ()

    def __new__(cls, dim_a: int, dim_b: int, edges: tuple):
        for e in edges:
            if e.weight <= 0:
                raise BoundsViolation("edge weights must be strictly positive")
            if e.kind not in ("solid", "dashed"):
                raise BoundsViolation(f"unknown edge kind {e.kind!r}")
            if e.kind == "dashed" and (len(e.sites) != 2 or e.sites[0] == e.sites[1]):
                raise BoundsViolation("dashed edges connect exactly two distinct sites")
            if e.kind == "solid" and not e.sites:
                raise BoundsViolation("solid edges need at least one site")
            for (i, j) in e.sites:
                if not (0 <= i < dim_a and 0 <= j < dim_b):
                    raise BoundsViolation(f"site ({i},{j}) outside the {dim_a}x{dim_b} grid")
        return super().__new__(cls, dim_a, dim_b, edges)

    def _replace(self, **changes) -> "GridGraph":
        # the named tuple's own _replace would skip the checks in __new__
        return GridGraph(**{**self._asdict(), **changes})


def grid_graph(dim_a: int, dim_b: int, solid: Iterable = (), dashed: Iterable = ()) -> GridGraph:
    """Build a grid graph from (sites, weight) pairs."""
    edges = []
    for sites, w in solid:
        edges.append(GridEdge("solid", tuple(tuple(s) for s in sites), Fraction(w)))
    for sites, w in dashed:
        edges.append(GridEdge("dashed", tuple(tuple(s) for s in sites), Fraction(w)))
    return GridGraph(dim_a, dim_b, tuple(edges))


# ---------------------------------------------------------------------------
# bipartite states
# ---------------------------------------------------------------------------

class NamedVector(NamedTuple):
    """A labeled vector with a positive rational weight, e.g. a grid edge."""

    name: str
    vec: em.Vector
    weight: Fraction


class BipartiteState:
    """Unnormalized bipartite density operator with exact entries.

    ``edges`` optionally records a conic decomposition ``sum_w w |v><v|``
    of the matrix (grid edges or lifted edges); when present it is verified
    bit-exactly at construction.
    """

    __slots__ = ("dim_a", "dim_b", "matrix", "label", "edges")

    def __init__(self, dim_a: int, dim_b: int, matrix: em.ExactMatrix,
                 label: str = "", edges: Sequence[NamedVector] | None = None,
                 _skip_checks: bool = False):
        if matrix.shape != (dim_a * dim_b, dim_a * dim_b):
            raise DimensionMismatch("matrix size does not match local dimensions")
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "edges", tuple(edges) if edges is not None else None)
        if not _skip_checks:
            res = em.psd_check(matrix)  # includes the exact Hermitian check
            if not res.is_psd:
                raise NotPsd(f"state {label!r} is not PSD; witness value {res.witness_value}")
        if self.edges is not None:
            acc = em.weighted_gram([e.vec for e in self.edges], [e.weight for e in self.edges],
                                   matrix.rows)
            if acc != matrix:
                raise DimensionMismatch("recorded edge decomposition does not reproduce the matrix")

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

    def partial_transpose(self, side: Side = "B") -> em.ExactMatrix:
        return partial_transpose_matrix(self.matrix, self.dim_a, self.dim_b, side)

    def to_complex_rows(self):
        return self.matrix.to_complex_rows()


def state_from_edges(dim_a: int, dim_b: int, edges: Sequence[NamedVector], label: str = "") -> BipartiteState:
    acc = em.weighted_gram([e.vec for e in edges], [e.weight for e in edges], dim_a * dim_b)
    return BipartiteState(dim_a, dim_b, acc, label=label, edges=edges)


def grid_to_state(g: GridGraph, label: str = "") -> BipartiteState:
    """Translate a grid graph into its unnormalized mixed state.

    Solid hyperedges become ``|e+> = sum |ij>`` and dashed edges
    ``|e-> = |ij> - |kl>``; the state is the weighted sum of the rank-one
    projectors, hence PSD by construction.
    """
    named = []
    ns, nd = 0, 0
    for e in g.edges:
        if e.kind == "solid":
            name, ns = f"s{ns}", ns + 1
        else:
            name, nd = f"d{nd}", nd + 1
        named.append(NamedVector(name, e.vector(g.dim_a, g.dim_b), e.weight))
    return state_from_edges(g.dim_a, g.dim_b, named, label=label or "grid-state")


# ---------------------------------------------------------------------------
# partial transposition, swaps, local projections
# ---------------------------------------------------------------------------

def partial_transpose_matrix(M: em.ExactMatrix, m: int, n: int, side: Side = "B") -> em.ExactMatrix:
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


def extension_count_bound(m: int, n: int, p: int, q: int) -> int:
    """Counting bound ``(p + q - m n) n - m`` for nontrivial extensions of
    an ``m x n`` state of birank ``(p, q)``."""
    return (p + q - m * n) * n - m


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
    edges = None
    if s.edges is not None:
        edges = [NamedVector(e.name, tuple(e.vec[r] for r in src), e.weight) for e in s.edges]
    return BipartiteState(s.dim_b, s.dim_a, out, label=f"swap({s.label})", edges=edges,
                          _skip_checks=True)


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
    n_new = len(rows_b)
    sel = [flat_index(i, j, s.dim_b) for i in rows_a for j in rows_b]
    out = [[s.matrix.entry(r, c) for c in sel] for r in sel]
    identity_projection = (list(rows_a) == list(range(s.dim_a)) and list(rows_b) == list(range(s.dim_b)))
    edges = s.edges if identity_projection else None
    return BipartiteState(len(rows_a), n_new, em.ExactMatrix(out),
                          label=f"{s.label}|block", edges=edges, _skip_checks=True)


def schmidt_rank(v: em.Vector, m: int, n: int) -> int:
    """Exact Schmidt rank: rank of the ``m x n`` coefficient matricization."""
    if len(v) != m * n:
        raise DimensionMismatch("vector length does not match dimensions")
    M = em.ExactMatrix([[v[flat_index(i, j, n)] for j in range(n)] for i in range(m)])
    return em.rank(M)


# ---------------------------------------------------------------------------
# canonical states
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def rho_3x3() -> BipartiteState:
    """The 3x3 grid state with edges

        e0 = |00>+|11>+|22>, e1 = |01>+|12>, e2 = |10>-|21>,
        e3 = |02>, e4 = |20>,

    and weights (1, 1, 1, 3, 3).  PPT, birank (5, 6), Schmidt number 2.
    """
    g = grid_graph(
        3, 3,
        solid=[([(0, 0), (1, 1), (2, 2)], 1),
               ([(0, 1), (1, 2)], 1),
               ([(0, 2)], 3),
               ([(2, 0)], 3)],
        dashed=[([(1, 0), (2, 1)], 1)],
    )
    st = grid_to_state(g, label="rho3x3")
    # grid_to_state lists solid edges first; name them e0..e4 in docstring order
    edges = [NamedVector(f"e{i}", st.edges[j].vec, st.edges[j].weight)
             for i, j in enumerate((0, 1, 4, 2, 3))]
    return BipartiteState(3, 3, st.matrix, label="rho3x3", edges=edges, _skip_checks=True)


@functools.lru_cache(maxsize=None)
def tiles_complement() -> BipartiteState:
    """Projector onto the complement of the Tiles unextendible product basis.

    A 3x3 PPT entangled state of birank (4, 4) whose kernel is spanned by
    the five product vectors

        |0>(|0>-|1>),  |2>(|1>-|2>),  (|0>-|1>)|2>,  (|1>-|2>)|0>,
        (|0>+|1>+|2>)(|0>+|1>+|2>).
    """
    products = tiles_kernel_products()
    P = em.weighted_gram(products, [em.ONE / em.vdot(v, v) for v in products], 9)
    return BipartiteState(3, 3, em.ExactMatrix.identity(9) - P, label="tiles-complement")


def tiles_kernel_products() -> tuple:
    """The five Tiles product vectors, unnormalized."""
    def vec(entries):
        v = [em.ZERO] * 9
        for idx, val in entries:
            v[idx] = em.as_scalar(val)
        return tuple(v)

    return (
        vec([(0, 1), (1, -1)]),
        vec([(7, 1), (8, -1)]),
        vec([(2, 1), (5, -1)]),
        vec([(3, 1), (6, -1)]),
        tuple(em.ONE for _ in range(9)),
    )


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


class Rho45Pipeline(NamedTuple):
    """The three-stage construction of the 4x5 Schmidt-number-3 PPT state."""

    stage1: BipartiteState      # 4x3, after admixing 3|30><30| + 3|32><32|
    stage2: BipartiteState      # 4x4, after the coupling |20><3|_A on side B
    final: BipartiteState       # 4x5, after the coupling |02><3|_A on side B
    steps: tuple                # tuple[ExtensionStep, ...]


RHO_4X5_STEPS = (
    # a direct sum on A: the new level carries 3|30><30| + 3|32><32|
    ExtensionStep("direct_sum", "A", {"edge": em.ExactMatrix.diag([3, 0, 3])},
                  "rho4x3", ("p30", "p32")),
    # B-extensions with couplings |20><3|_A and then |02><3|_A
    ExtensionStep("product_pair", "B", {"alpha": em.basis_vector(3, 0),
                                        "beta": em.basis_vector(4, 2),
                                        "gamma": em.basis_vector(4, 3)}, "rho4x4", ("q0",)),
    ExtensionStep("product_pair", "B", {"alpha": em.basis_vector(4, 2),
                                        "beta": em.basis_vector(4, 0),
                                        "gamma": em.basis_vector(4, 3)}, "rho4x5", ("r0",)),
)


@functools.lru_cache(maxsize=None)
def rho_4x5() -> Rho45Pipeline:
    """Three-step local-extension pipeline from ``rho_3x3`` to a 4x5 state.

    Step 1 adjoins a fourth A-level carrying the products ``3|30><30| +
    3|32><32|`` (a direct-sum, entanglement-trivial extension).  Steps 2 and
    3 adjoin B-levels with couplings ``|20><3|_A`` and ``|02><3|_A`` and the
    minimal-rank edge blocks; both are nontrivial PPT extensions.  Every
    stage carries its exact conic decomposition as ``edges``.
    """
    from . import extender  # local import; extender depends on this module

    return Rho45Pipeline(*extender.run_pipeline(rho_3x3(), RHO_4X5_STEPS), RHO_4X5_STEPS)


# ---------------------------------------------------------------------------
# the scaling family
# ---------------------------------------------------------------------------

class FamilySpec(NamedTuple):
    """Parameters of the (2k-1)x(2k-1) family member.

    ``d_weights`` overrides the default antidiagonal weights
    ``d_i = min(i, 2k-1-i)``; when given it must have length ``2k-2``.
    """

    k: int
    d_weights: tuple | None = None

    def resolved_d(self) -> list:
        if self.d_weights is None:
            return [Fraction(min(i, 2 * self.k - 1 - i)) for i in range(1, 2 * self.k - 1)]
        d = [Fraction(x) for x in self.d_weights]
        if len(d) != 2 * self.k - 2:
            raise InvalidK(f"d_weights must have length {2 * self.k - 2}")
        if any(x < 0 for x in d):
            raise InvalidK("d_weights must be nonnegative")
        return d


def family_edges(spec: FamilySpec) -> list:
    """Named defining edges of the family member (also its eigenvectors)."""
    k = spec.k
    if k < 2:
        raise InvalidK("family requires k >= 2")
    d = spec.resolved_d()
    dim = 2 * k - 1
    edges = [NamedVector("alpha", _sites_vec([(i, k - 1 - i) for i in range(k)], dim, dim), Fraction(1))]
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(i, j), (dim - j, dim - i)], dim, dim)
                edges.append(NamedVector(f"beta_{i}_{j}", v, Fraction(1)))
    for i in range(dim):
        for j in range(dim):
            if i + j < k - 1:
                edges.append(NamedVector(f"gamma_{i}_{j}", _sites_vec([(i, j)], dim, dim), Fraction(1)))
    for i in range(1, dim):
        if d[i - 1] > 0:
            edges.append(NamedVector(f"delta_{i}", _sites_vec([(i, dim - i)], dim, dim), d[i - 1]))
    return edges


def rho_family(spec: FamilySpec | int) -> BipartiteState:
    """Family member ``rho^(k)`` in local dimensions ``(2k-1) x (2k-1)``.

    With the default weights the state is PPT and has Schmidt number ``k``
    for k <= 5 (the paper's claim).  ``certify-sn --exclude-deltas``
    certifies, and ``verify`` replays, Schmidt number ``k`` for k = 6, 7
    and 8 too: consistent with the conjectured scaling, not a proof for
    every k.
    """
    if isinstance(spec, int):
        spec = FamilySpec(spec)
    edges = family_edges(spec)
    dim = 2 * spec.k - 1
    return state_from_edges(dim, dim, edges, label=f"family-k{spec.k}")


def family_pt_decomposition(spec: FamilySpec | int) -> list:
    """Exact Schmidt-rank <= 2 conic decomposition of ``rho^(k)^Ta``.

    Consists of the pair vectors ``eta_ab = |a,b> + |k-1-b,k-1-a>`` for
    ``a+b < k-1``, the antidiagonal pairs ``mu_ij = |i,2k-1-i> +
    |2k-1-j,j>`` for each beta edge, and diagonal product terms.  All
    weights are 1 except surplus antidiagonal terms when ``d_weights``
    exceed the minimal values; requires ``d_i >= min(i, 2k-1-i)``.
    """
    if isinstance(spec, int):
        spec = FamilySpec(spec)
    k = spec.k
    if k < 2:
        raise InvalidK("family requires k >= 2")
    dim = 2 * k - 1
    d = spec.resolved_d()
    out = []
    for a in range(k):
        for b in range(k):
            if a + b < k - 1:
                v = _sites_vec([(a, b), (k - 1 - b, k - 1 - a)], dim, dim)
                out.append(NamedVector(f"eta_{a}_{b}", v, Fraction(1)))
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(i, dim - i), (dim - j, j)], dim, dim)
                out.append(NamedVector(f"mu_{i}_{j}", v, Fraction(1)))
    for i in range(k):
        out.append(NamedVector(f"prod_a_{i}", _sites_vec([(i, k - 1 - i)], dim, dim), Fraction(1)))
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(dim - j, dim - i)], dim, dim)
                out.append(NamedVector(f"prod_b_{i}_{j}", v, Fraction(1)))
    for i in range(1, dim):
        surplus = d[i - 1] - Fraction(min(i, dim - i))
        if surplus < 0:
            raise InvalidK("family_pt_decomposition requires d_i >= min(i, 2k-1-i)")
        if surplus > 0:
            out.append(NamedVector(f"prod_d_{i}", _sites_vec([(i, dim - i)], dim, dim), surplus))
    return out


def family_kernel_vector(k: int) -> em.Vector:
    """The antidiagonal-block kernel vector
    ``Omega = sum_{i=1}^{k-1} (|i,2k-1-i> - |2k-1-i,i>)``."""
    dim = 2 * k - 1
    v = [em.ZERO] * (dim * dim)
    for i in range(1, k):
        v[flat_index(i, dim - i, dim)] = em.ONE
        v[flat_index(dim - i, i, dim)] = -em.ONE
    return tuple(v)
