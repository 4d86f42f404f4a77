"""The paper's named states: grid graphs, rho3x3, Tiles, the 4x5 pipeline
and the scaling family.

Every construction returns a :class:`qstates.BipartiteState` that records
its exact conic decomposition as ``edges`` (the Tiles state excepted).  A
grid graph is read from its JSON straight into those edges
(:func:`graph_state`): its solid hyperedges become ``|e+> = sum |ij>``
and its dashed edges ``|e-> = |ij> - |kl>``.  :data:`RHO_4X5_STEPS` is
the 4x5 pipeline as data that :func:`extender.run_pipeline` replays from
``rho_3x3``; the family member ``rho^(k)`` lives in ``(2k-1) x (2k-1)``,
with ``(2k-1)^2`` at most :data:`replay.MAX_DIM`.  The CLI imports
this module only for ``build`` and the named state references
(``rho3x3``, ``rho4x5``, ``tiles``, ``family:k``); a verb that reads its
state from a file never loads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from . import exactmat as em
from . import qstates as qs
from . import replay as rp
from .errors import InvalidK


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

def graph_state(data: dict, label: str) -> qs.BipartiteState:
    """The state of a grid-graph JSON: its solid hyperedges ``|e+> = sum
    |ij>`` named ``s0, s1, ...``, then its dashed edges ``|e-> = |ij> -
    |kl>`` named ``d0, d1, ...``, each with its weight.  It is read by the
    state reader's rules (:func:`_graph_edges`), and any fault in it raises
    :class:`replay.MalformedData`; the state's constructor refuses a weight
    that is not positive, as it does for every edge state."""
    m, n, edges = rp._parsed("graph", _graph_edges, data)
    return qs.BipartiteState(m, n, label=label, edges=edges)


def _graph_edges(data: dict) -> tuple:
    """``(m, n, edges)`` of a graph, read by the key rule of every stored
    layout (:func:`replay._fields`): the key ``dims`` and the optional
    ``solid`` and ``dashed``, and ``sites`` and ``weight`` on each edge.
    ``dims`` are a state's (:func:`replay._checked_dims`), sites are
    distinct ``[i, j]`` int pairs on the grid (two on a dashed edge, at
    least one on a solid one) and each weight is a rational string."""
    dims, *kinds = rp._fields(data, "graph", ("dims",), {"solid": [], "dashed": []})
    m, n = rp._checked_dims(*dims)
    edges = []
    for kind, count, stored in zip(("solid", "dashed"), ("one or more", "two"), kinds):
        for t, e in enumerate(stored):
            given, weight = rp._fields(e, f"{kind} edge {t}", ("sites", "weight"))
            sites = [tuple(s) for s in given if isinstance(s, list) and len(s) == 2
                     and all(type(x) is int for x in s) and 0 <= s[0] < m and 0 <= s[1] < n]
            if (len(sites) != len(given) or len(set(sites)) != len(sites)
                    or not (len(sites) == 2 if kind == "dashed" else sites)):
                raise ValueError(f"{kind} edge {t} sites {given!r} are not {count} "
                                 f"distinct [i, j] int pairs on the {m}x{n} grid")
            plus = sites[:1] if kind == "dashed" else sites
            vec = _sites_vec(plus, m, n, minus=sites[len(plus):])
            edges.append(qs.NamedVector(f"{kind[0]}{t}", vec, rp._rational(weight)))
    return m, n, edges


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
    parts = [("e0", [(0, 0), (1, 1), (2, 2)], (), 1), ("e1", [(0, 1), (1, 2)], (), 1),
             ("e2", [(1, 0)], [(2, 1)], 1), ("e3", [(0, 2)], (), 3), ("e4", [(2, 0)], (), 3)]
    edges = [qs.NamedVector(name, _sites_vec(plus, 3, 3, minus), Fraction(w))
             for name, plus, minus, w in parts]
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
    differences = (((0, 0), (0, 1)), ((2, 1), (2, 2)), ((0, 2), (1, 2)), ((1, 0), (2, 0)))
    return tuple(_sites_vec([plus], 3, 3, [minus]) for plus, minus in differences) + \
        (_sites_vec([(i, j) for i in range(3) for j in range(3)], 3, 3),)


class Rho45Pipeline(NamedTuple):
    """The three-stage construction of the 4x5 Schmidt-number-3 PPT state."""

    stage1: qs.BipartiteState   # 4x3, after admixing 3|30><30| + 3|32><32|
    stage2: qs.BipartiteState   # 4x4, after the coupling |20><3|_A on side B
    final: qs.BipartiteState    # 4x5, after the coupling |02><3|_A on side B
    steps: tuple                # tuple[qs.ExtensionStep, ...]


RHO_4X5_STEPS = (
    # a direct sum on A: the new level carries 3|30><30| + 3|32><32|
    qs.ExtensionStep("direct_sum", "A", {"edge": em.diag([3, 0, 3])},
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
    the antidiagonal edge ``delta_i`` has weight ``min(i, 2k-1-i)``; ``k``
    is at least 2, and ``(2k-1)^2`` at most :data:`replay.MAX_DIM`."""
    dim = 2 * k - 1
    if k < 2 or dim * dim > rp.MAX_DIM:
        raise InvalidK(f"family requires k >= 2 and (2k-1)^2 <= {rp.MAX_DIM}, not k = {k}")
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
    return _sites_vec([(i, dim - i) for i in range(1, k)], dim, dim,
                      [(dim - i, i) for i in range(1, k)])
