"""The paper's named states: grid graphs, rho3x3, Tiles, the 4x5 pipeline
and the scaling family.

Every construction returns a :class:`qstates.BipartiteState` that records
its exact conic decomposition as ``edges`` (the Tiles state excepted).  A
grid graph's solid hyperedges become ``|e+> = sum |ij>`` and its dashed
edges ``|e-> = |ij> - |kl>``.  :data:`RHO_4X5_STEPS` is the 4x5 pipeline
as data that :func:`extender.run_pipeline` replays from ``rho_3x3``; the
family member ``rho^(k)`` lives in ``(2k-1) x (2k-1)``.  The CLI imports
this module only for ``build`` and the named state references
(``rho3x3``, ``rho4x5``, ``tiles``, ``family:k``); a verb that reads its
state from a file never loads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import exactmat as em
from . import qstates as qs
from .errors import BoundsViolation, InvalidK


def _sites_vec(plus: list, m: int, n: int, minus: list = ()) -> em.Vector:
    """Plus one on every ``plus`` site and minus one on every ``minus`` site."""
    v = [em.ZERO] * (m * n)
    for (i, j) in plus:
        v[qs.flat_index(i, j, n)] = em.ONE
    for (i, j) in minus:
        v[qs.flat_index(i, j, n)] = -em.ONE
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


def grid_graph(dim_a: int, dim_b: int, solid: Iterable, dashed: Iterable) -> GridGraph:
    """Build a grid graph from (sites, weight) pairs."""
    edges = []
    for sites, w in solid:
        edges.append(GridEdge("solid", tuple(tuple(s) for s in sites), Fraction(w)))
    for sites, w in dashed:
        edges.append(GridEdge("dashed", tuple(tuple(s) for s in sites), Fraction(w)))
    return GridGraph(dim_a, dim_b, tuple(edges))


def grid_to_state(g: GridGraph, label: str) -> qs.BipartiteState:
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
        named.append(qs.NamedVector(name, e.vector(g.dim_a, g.dim_b), e.weight))
    return qs.BipartiteState(g.dim_a, g.dim_b, label=label, edges=named)


# ---------------------------------------------------------------------------
# canonical states
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def rho_3x3() -> qs.BipartiteState:
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
    # the graph lists solid edges first; name them e0..e4 in docstring order
    edges = [qs.NamedVector(f"e{i}", g.edges[j].vector(3, 3), g.edges[j].weight)
             for i, j in enumerate((0, 1, 4, 2, 3))]
    return qs.BipartiteState(3, 3, label="rho3x3", edges=edges)


@functools.lru_cache(maxsize=None)
def tiles_complement() -> qs.BipartiteState:
    """Projector onto the complement of the Tiles unextendible product basis.

    A 3x3 PPT entangled state of birank (4, 4) whose kernel is spanned by
    the five product vectors

        |0>(|0>-|1>),  |2>(|1>-|2>),  (|0>-|1>)|2>,  (|1>-|2>)|0>,
        (|0>+|1>+|2>)(|0>+|1>+|2>).
    """
    products = tiles_kernel_products()
    P = em.weighted_gram(products, [em.ONE / em.vdot(v, v) for v in products], 9)
    return qs.BipartiteState(3, 3, em.ExactMatrix.identity(9) - P, label="tiles-complement")


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


class Rho45Pipeline(NamedTuple):
    """The three-stage construction of the 4x5 Schmidt-number-3 PPT state."""

    stage1: qs.BipartiteState   # 4x3, after admixing 3|30><30| + 3|32><32|
    stage2: qs.BipartiteState   # 4x4, after the coupling |20><3|_A on side B
    final: qs.BipartiteState    # 4x5, after the coupling |02><3|_A on side B
    steps: tuple                # tuple[qs.ExtensionStep, ...]


RHO_4X5_STEPS = (
    # a direct sum on A: the new level carries 3|30><30| + 3|32><32|
    qs.ExtensionStep("direct_sum", "A", {"edge": em.ExactMatrix.diag([3, 0, 3])},
                     "rho4x3", ("p30", "p32")),
    # B-extensions with couplings |20><3|_A and then |02><3|_A
    qs.ExtensionStep("product_pair", "B", {"alpha": em.basis_vector(3, 0),
                                           "beta": em.basis_vector(4, 2),
                                           "gamma": em.basis_vector(4, 3)}, "rho4x4", ("q0",)),
    qs.ExtensionStep("product_pair", "B", {"alpha": em.basis_vector(4, 2),
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
    from . import extender  # deferred: only this pipeline runs extension steps

    return Rho45Pipeline(*extender.run_pipeline(rho_3x3(), RHO_4X5_STEPS), RHO_4X5_STEPS)


# ---------------------------------------------------------------------------
# the scaling family
# ---------------------------------------------------------------------------

def family_edges(k: int) -> list:
    """Named defining edges of the family member (also its eigenvectors);
    the antidiagonal edge ``delta_i`` has weight ``min(i, 2k-1-i)``."""
    if k < 2:
        raise InvalidK("family requires k >= 2")
    dim = 2 * k - 1
    alpha = _sites_vec([(i, k - 1 - i) for i in range(k)], dim, dim)
    edges = [qs.NamedVector("alpha", alpha, Fraction(1))]
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(i, j), (dim - j, dim - i)], dim, dim)
                edges.append(qs.NamedVector(f"beta_{i}_{j}", v, Fraction(1)))
    for i in range(dim):
        for j in range(dim):
            if i + j < k - 1:
                v = _sites_vec([(i, j)], dim, dim)
                edges.append(qs.NamedVector(f"gamma_{i}_{j}", v, Fraction(1)))
    for i in range(1, dim):
        v = _sites_vec([(i, dim - i)], dim, dim)
        edges.append(qs.NamedVector(f"delta_{i}", v, Fraction(min(i, dim - i))))
    return edges


def rho_family(k: int) -> qs.BipartiteState:
    """Family member ``rho^(k)`` in local dimensions ``(2k-1) x (2k-1)``.

    With the default weights the state is PPT and has Schmidt number ``k``
    for k <= 5 (the paper's claim).  ``certify-sn --exclude-deltas``
    certifies, and ``verify`` replays, Schmidt number ``k`` for k = 6, 7
    and 8 too: consistent with the conjectured scaling, not a proof for
    every k.
    """
    dim = 2 * k - 1
    return qs.BipartiteState(dim, dim, label=f"family-k{k}", edges=family_edges(k))


def family_pt_decomposition(k: int) -> list:
    """Exact Schmidt-rank <= 2 conic decomposition of ``rho^(k)^Ta``.

    Consists of the pair vectors ``eta_ab = |a,b> + |k-1-b,k-1-a>`` for
    ``a+b < k-1``, the antidiagonal pairs ``mu_ij = |i,2k-1-i> +
    |2k-1-j,j>`` for each beta edge, and diagonal product terms, all of
    weight 1.
    """
    if k < 2:
        raise InvalidK("family requires k >= 2")
    dim = 2 * k - 1
    out = []
    for a in range(k):
        for b in range(k):
            if a + b < k - 1:
                v = _sites_vec([(a, b), (k - 1 - b, k - 1 - a)], dim, dim)
                out.append(qs.NamedVector(f"eta_{a}_{b}", v, Fraction(1)))
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(i, dim - i), (dim - j, j)], dim, dim)
                out.append(qs.NamedVector(f"mu_{i}_{j}", v, Fraction(1)))
    for i in range(k):
        v = _sites_vec([(i, k - 1 - i)], dim, dim)
        out.append(qs.NamedVector(f"prod_a_{i}", v, Fraction(1)))
    for i in range(k):
        for j in range(k):
            if i + j >= k:
                v = _sites_vec([(dim - j, dim - i)], dim, dim)
                out.append(qs.NamedVector(f"prod_b_{i}_{j}", v, Fraction(1)))
    return out


def family_kernel_vector(k: int) -> em.Vector:
    """The antidiagonal-block kernel vector
    ``Omega = sum_{i=1}^{k-1} (|i,2k-1-i> - |2k-1-i,i>)``."""
    dim = 2 * k - 1
    v = [em.ZERO] * (dim * dim)
    for i in range(1, k):
        v[qs.flat_index(i, dim - i, dim)] = em.ONE
        v[qs.flat_index(dim - i, i, dim)] = -em.ONE
    return tuple(v)
