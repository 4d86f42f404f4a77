"""States, grid-graph input, partial transposes, and the canonical families."""

import inspect
import json
import random
from fractions import Fraction

import pytest

from pptlab import constructions as co
from pptlab import exactmat as em
from pptlab import qstates as qs
from pptlab import replay as rp
from pptlab import serialize as se
from pptlab.errors import BoundsViolation, DimensionMismatch, InvalidK, NotHermitian, NotPsd
from pptlab.replay import MalformedData


def _edge(sites, weight="1") -> dict:
    return {"sites": [list(site) for site in sites], "weight": str(weight)}


def test_grid_single_solid_edge():
    st = co.graph_state({"dims": [2, 2], "solid": [_edge([(0, 0)])]}, "grid")
    expect = em.ExactMatrix.outer(em.basis_vector(4, 0), em.basis_vector(4, 0))
    assert st.matrix == expect and [e.name for e in st.edges] == ["s0"]


def test_grid_dashed_edge():
    st = co.graph_state({"dims": [2, 2], "dashed": [_edge([(0, 0), (1, 1)])]}, "grid")
    v = em.vector([1, 0, 0, -1])
    assert st.matrix == em.ExactMatrix.outer(v, v) and [e.name for e in st.edges] == ["d0"]


def test_grid_bounds_and_weight_validation():
    for edges in ({"solid": [_edge([(0, 2)])]}, {"dashed": [_edge([(0, 0)])]},
                  {"dashed": [_edge([(0, 0), (0, 0)])]}, {"solid": [_edge([])]}):
        with pytest.raises(MalformedData, match="malformed graph: ValueError"):
            co.graph_state({"dims": [2, 2], **edges}, "grid")
    # a weight that is not positive is refused by the state's constructor
    with pytest.raises(BoundsViolation, match="edge 's0' has zero weight 0"):
        co.graph_state({"dims": [2, 2], "solid": [_edge([(0, 0)], 0)]}, "grid")


def test_grid_state_psd_random():
    rng = random.Random(1)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        solid, dashed = [], []
        for _ in range(rng.randint(1, 4)):
            sites = {(rng.randrange(m), rng.randrange(n))
                     for _ in range(rng.randint(1, 3))}
            solid.append(_edge(sorted(sites), Fraction(rng.randint(1, 4), rng.randint(1, 3))))
        if m * n >= 2:
            a = (rng.randrange(m), rng.randrange(n))
            b = a
            while b == a:
                b = (rng.randrange(m), rng.randrange(n))
            dashed.append(_edge((a, b)))
        st = co.graph_state({"dims": [m, n], "solid": solid, "dashed": dashed}, "random-grid")
        assert em.psd_check(st.matrix).is_psd


def test_rho3x3_trace_and_norms():
    rho = co.rho_3x3()
    assert em.trace(rho.matrix) == 13  # sum of weight * norm^2 = 3+2+2+3+3
    assert [int(em.vdot(e.vec, e.vec).re) for e in rho.edges] == [3, 2, 2, 1, 1]


def test_rho3x3_sums_its_named_edges_once(spy, monkeypatch):
    """rho3x3 builds its five named edges and sums them once; its edges and
    matrix are those of the grid state it names."""
    calls = spy(em, "weighted_gram")
    rho = co.rho_3x3.__wrapped__()
    assert len(calls) == 1
    monkeypatch.undo()
    grid = co.graph_state({"dims": [3, 3], "solid": [
        _edge([(0, 0), (1, 1), (2, 2)]), _edge([(0, 1), (1, 2)]), _edge([(0, 2)], 3),
        _edge([(2, 0)], 3)], "dashed": [_edge([(1, 0), (2, 1)])]}, "grid")
    assert rho.matrix == grid.matrix and rho.label == "rho3x3"
    assert [(e.name, e.vec, e.weight) for e in rho.edges] == \
        [(f"e{i}", grid.edges[j].vec, grid.edges[j].weight)
         for i, j in enumerate((0, 1, 4, 2, 3))]


def test_swap_subsystems_sums_and_factors_nothing(spy):
    """A swap permutes a checked state's matrix and edges: no Gram sum and
    no LDL* runs."""
    stage = co.rho_4x5().stage1
    calls = spy(em, "weighted_gram", "psd_check")
    sw = qs.swap_subsystems(stage)
    assert calls == [] and sw.dims == (3, 4) and len(sw.edges) == len(stage.edges)


def test_partial_transpose_diagonal_invariant():
    d = qs.BipartiteState(2, 3, em.diag([1, 2, 3, 4, 5, 6]), label="d")
    assert d.partial_transpose("B") == d.matrix
    assert d.partial_transpose("A") == d.matrix


def test_partial_transpose_of_maximally_entangled_is_swap():
    # sum_ij |ii><jj| on 2x2; its B-transpose is the SWAP operator
    M = em.zeros(4, 4).tolists()
    for i in (0, 3):
        for j in (0, 3):
            M[i][j] = em.ONE
    st = qs.BipartiteState(2, 2, em.ExactMatrix(M), label="phi+")
    pt = st.partial_transpose("B")
    swap = em.ExactMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert pt == swap
    # minimum eigenvalue is exactly -1: pt + 1 is PSD and the singlet hits -1
    assert em.psd_check(pt + em.ExactMatrix.identity(4)).is_psd
    v = em.vector([0, 1, -1, 0])
    assert em.vdot(v, pt.matvec(v)) == -2  # = -<v|v>


def test_partial_transpose_involution_and_full_transpose():
    rng = random.Random(2)
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = em.ExactMatrix([[em.GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                             for _ in range(m * n)] for _ in range(m * n)])
        H = A + em.adjoint(A)
        ta = qs.partial_transpose_matrix(H, m, n, "A")
        assert qs.partial_transpose_matrix(ta, m, n, "A") == H
        tb = qs.partial_transpose_matrix(ta, m, n, "B")
        assert tb == em.ExactMatrix([[x.conj() for x in row] for row in H.tolists()])  # H^T


def test_partial_transpose_matches_its_entrywise_definition():
    """``<ij|M^Tb|kl> = <il|M|kj>`` and ``<ij|M^Ta|kl> = <kj|M|il>`` on
    matrices with no symmetry, on unequal local dimensions."""
    rng = random.Random(5)
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 5)):
        M = em.ExactMatrix([[em.GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                             for _ in range(m * n)] for _ in range(m * n)])
        index = [(i, j) for i in range(m) for j in range(n)]
        at = lambda i, j, k, l: M.entry(i * n + j, k * n + l)
        assert qs.partial_transpose_matrix(M, m, n, "B") == em.ExactMatrix(
            [[at(i, l, k, j) for k, l in index] for i, j in index])
        assert qs.partial_transpose_matrix(M, m, n, "A") == em.ExactMatrix(
            [[at(k, j, i, l) for k, l in index] for i, j in index])


@pytest.mark.parametrize("side", ["x", "a", ""], ids=["x", "lowercase", "empty"])
def test_partial_transpose_refuses_a_side_other_than_a_or_b(side):
    """The kernel's one side rule: a side other than "A" or "B" is refused,
    before the operator's size is read, instead of being read as "A"."""
    rho = co.rho_4x5().stage1
    message = f"side must be 'A' or 'B', not {side!r}"
    for call in (lambda: rp.partial_transpose_matrix(rho.matrix, 4, 3, side),
                 lambda: rp.partial_transpose_matrix(rho.matrix, 2, 2, side),
                 lambda: rho.partial_transpose(side)):
        with pytest.raises(BoundsViolation, match=message):
            call()


def test_rho3x3_pt_decomposition_bit_exact():
    rho = co.rho_3x3()
    pt = rho.partial_transpose("B")
    assert em.psd_check(pt).is_psd
    fs = [
        (co._sites_vec([(0, 2), (1, 1)], 3, 3, minus=[(2, 0)]), 1),
        (co._sites_vec([(0, 2), (2, 0)], 3, 3), 2),
        (co._sites_vec([(0, 1), (1, 0)], 3, 3), 1),
        (co._sites_vec([(1, 2), (2, 1)], 3, 3), 1),
        (co._sites_vec([(0, 0)], 3, 3), 1),
        (co._sites_vec([(2, 2)], 3, 3), 1),
    ]
    assert em.weighted_gram([v for v, _ in fs], [w for _, w in fs], 9) == pt


def test_birank_examples():
    prod = qs.BipartiteState(2, 2, em.ExactMatrix.outer(em.vector([1, 0, 0, 0]),
                                                        em.vector([1, 0, 0, 0])), label="p")
    assert qs.birank(prod) == (1, 1)
    assert qs.birank(co.rho_3x3()) == (5, 6)
    # frozen regression for the final pipeline state
    assert qs.birank(co.rho_4x5().final) == (9, 10)


def test_project_local_block_identity_and_subblock():
    pipe = co.rho_4x5()
    full = qs.project_local_block(pipe.final, [0, 1, 2, 3], [0, 1, 2, 3, 4])
    assert full == pipe.final
    sub = qs.project_local_block(pipe.final, [0, 1, 2], [0, 1, 2])
    assert sub == co.rho_3x3()  # the red dashed box is the original block


def test_project_local_block_preserves_ppt_property():
    rng = random.Random(3)
    for _ in range(10):
        st = co.rho_family(2)
        rows_a = sorted(rng.sample(range(3), rng.randint(1, 3)))
        rows_b = sorted(rng.sample(range(3), rng.randint(1, 3)))
        block = qs.project_local_block(st, rows_a, rows_b)
        assert em.psd_check(block.partial_transpose("A")).is_psd


def test_project_local_block_composition():
    st = co.rho_4x5().final
    two_step = qs.project_local_block(qs.project_local_block(st, [0, 1, 2, 3], [0, 1, 2]),
                                      [0, 2], [0, 1, 2])
    one_step = qs.project_local_block(st, [0, 2], [0, 1, 2])
    assert two_step == one_step


def test_project_local_block_validation():
    st = co.rho_3x3()
    with pytest.raises(BoundsViolation):
        qs.project_local_block(st, [], [0])
    with pytest.raises(BoundsViolation):
        qs.project_local_block(st, [0, 0], [0])
    with pytest.raises(BoundsViolation):
        qs.project_local_block(st, [3], [0])


def test_swap_examples():
    v01 = em.basis_vector(6, 1)  # |01> on 2x3
    st = qs.BipartiteState(2, 3, em.ExactMatrix.outer(v01, v01), label="01")
    sw = qs.swap_subsystems(st)
    assert sw.dims == (3, 2)
    v10 = em.basis_vector(6, 2)  # |10> on 3x2
    assert sw.matrix == em.ExactMatrix.outer(v10, v10)
    rho = co.rho_3x3()
    assert qs.swap_subsystems(qs.swap_subsystems(rho)).matrix == rho.matrix
    # a swap-symmetric state is unchanged
    sym = co.rho_family(2)
    assert qs.swap_subsystems(sym).matrix == sym.matrix


def test_state_constructor_rejects_non_psd():
    with pytest.raises(NotPsd):
        qs.BipartiteState(1, 2, em.ExactMatrix([[1, 2], [2, 1]]), label="bad")


def test_the_replay_defines_no_factorization():
    """The LDL* lives in ``exactmat``; the replay's state takes edges only."""
    moved = ("psd_check", "_psd_witness", "state_ldl", "_int_matrix", "_int_hermitian",
             "PsdResult")
    assert [name for name in moved if name in vars(rp)] == []
    assert all(name in vars(em) for name in moved)
    assert list(inspect.signature(rp.BipartiteState.__init__).parameters) == \
        ["self", "dim_a", "dim_b", "label", "edges"]


def test_the_builders_state_keeps_its_calling_forms(spy):
    """The matrix form ``BipartiteState(m, n, M, label=...)`` is checked by
    one LDL*, and ``__init__`` is the subclass's own (the benchmark's tracer
    wraps it there); an edge state compares equal across the two classes."""
    assert "__init__" in vars(qs.BipartiteState) and qs.BipartiteState.__slots__ == ()
    calls = spy(em, "psd_check")
    with pytest.raises(NotPsd, match="state 'bad' is not PSD"):
        qs.BipartiteState(1, 2, em.ExactMatrix([[1, 2], [2, 1]]), label="bad")
    with pytest.raises(NotHermitian):
        qs.BipartiteState(1, 2, em.ExactMatrix([[1, 1], [0, 1]]), label="bad")
    assert len(calls) == 2
    rho = co.rho_3x3()
    assert rp.BipartiteState(3, 3, "rho", rho.edges) == rho == \
        qs.BipartiteState(3, 3, rho.matrix, label="rho")


def test_only_the_builders_reader_factors_a_stored_matrix(spy):
    """``serialize.state_from_json`` runs one LDL* of a stored matrix and
    refuses a matrix that is not PSD; the replay's reader checks its shape
    only, leaving the proof to the certificate that holds it."""
    rho = co.rho_3x3()
    good = json.loads(json.dumps(se.state_to_json(qs.BipartiteState(3, 3, rho.matrix))))
    bad = {**good, "dim_a": 1, "dim_b": 2, "matrix": {
        "rows": 2, "cols": 2, "entries": [["1", "2"], ["2", "1"]]}}
    calls = spy(em, "psd_check")
    assert rp.read_state(good) == rho and rp.read_state(bad).matrix.rows == 2
    assert calls == []
    assert se.state_from_json(good) == rho and len(calls) == 1
    with pytest.raises(NotPsd, match="is not PSD"):
        se.state_from_json(bad)
    assert len(calls) == 2


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4), (4, 0), (0, 0)])
def test_state_constructor_rejects_non_positive_dimensions(dims):
    """Dimensions whose product is the matrix size, or zero, are still not
    a state's: the partial transpose over ``range(-2)`` would be zero."""
    v = em.vector([1, 0, 0, 1])
    for kwargs in ({"matrix": em.ExactMatrix.outer(v, v)},
                   {"edges": [qs.NamedVector("e", v, Fraction(1))]}):
        with pytest.raises(DimensionMismatch, match="are not positive"):
            qs.BipartiteState(*dims, **kwargs)


def test_rho4x5_pipeline_stages_and_ppt():
    pipe = co.rho_4x5()
    assert pipe.stage1.dims == (4, 3)
    assert pipe.stage2.dims == (4, 4)
    assert pipe.final.dims == (4, 5)
    assert [s.kind for s in pipe.steps] == ["direct_sum", "product_pair", "product_pair"]
    for st in (pipe.stage1, pipe.stage2, pipe.final):
        assert em.psd_check(st.partial_transpose("A")).is_psd


def test_rho4x5_decomposition_recorded_and_exact():
    final = co.rho_4x5().final
    acc = em.weighted_gram([e.vec for e in final.edges], [e.weight for e in final.edges], 20)
    assert acc == final.matrix
    names = [e.name for e in final.edges]
    assert names[:5] == ["e0", "e1", "e2", "e3", "e4"]
    # the first edge is the witness |00> + |11> + |22>
    assert final.edges[0].vec == co._sites_vec([(0, 0), (1, 1), (2, 2)], 4, 5)


def test_rho4x5_stage_labels_and_edge_names():
    pipe = co.rho_4x5()
    core = ["e0", "e1", "e2", "e3", "e4", "p30", "p32"]
    assert [(st.label, [e.name for e in st.edges])
            for st in (pipe.stage1, pipe.stage2, pipe.final)] == \
        [("rho4x3", core), ("rho4x4", core + ["q0"]), ("rho4x5", core + ["q0", "r0"])]
    p30, p32 = pipe.stage1.edges[5:]
    assert (p30.vec, p30.weight) == (co._sites_vec([(3, 0)], 4, 3), 3)
    assert (p32.vec, p32.weight) == (co._sites_vec([(3, 2)], 4, 3), 3)


def test_family_defaults_and_validation():
    for k, weights in ((2, [1, 1]), (3, [1, 2, 2, 1])):
        assert [e.weight for e in co.family_edges(k) if e.name.startswith("delta")] == weights
    with pytest.raises(InvalidK):
        co.rho_family(1)


def test_family_k2_structure():
    st = co.rho_family(2)
    assert st.dims == (3, 3)
    names = {e.name for e in st.edges}
    assert names == {"alpha", "beta_1_1", "gamma_0_0", "delta_1", "delta_2"}


def test_family_k4_matches_grid_structure():
    st = co.rho_family(4)
    assert st.dims == (7, 7)
    kinds = {}
    for e in st.edges:
        kinds.setdefault(e.name.split("_")[0], []).append(e)
    assert len(kinds["alpha"]) == 1
    assert len(kinds["beta"]) == 6
    assert len(kinds["gamma"]) == 6
    assert len(kinds["delta"]) == 6
    alpha = kinds["alpha"][0].vec
    assert qs.schmidt_rank(alpha, 7, 7) == 4
    assert all(qs.schmidt_rank(e.vec, 7, 7) == 2 for e in kinds["beta"])


def test_family_ppt_and_pt_decomposition_k2_to_k5():
    for k in (2, 3, 4, 5):
        st = co.rho_family(k)
        dim = 2 * k - 1
        pt = st.partial_transpose("A")
        dec = co.family_pt_decomposition(k)
        acc = em.weighted_gram([e.vec for e in dec], [e.weight for e in dec], dim * dim)
        assert acc == pt, f"k={k}"
        assert em.psd_check(pt).is_psd
        assert max(qs.schmidt_rank(e.vec, dim, dim) for e in dec) <= 2


def test_family_kernel_vector_and_minimality():
    for k in (2, 3, 4, 5):
        st = co.rho_family(k)
        pt = st.partial_transpose("A")
        omega = co.family_kernel_vector(k)
        assert not any(pt.matvec(omega))
        for e in st.edges:
            if e.name.startswith("delta"):
                assert em.vdot(omega, e.vec)


def test_tiles_complement_is_projector_with_kernel_products():
    tiles = co.tiles_complement()
    assert tiles.matrix.matmul(tiles.matrix) == tiles.matrix
    for v in co.tiles_kernel_products():
        assert em.is_zero_vector(tiles.matrix.matvec(v))
    assert qs.birank(tiles) == (4, 4)
    assert em.psd_check(tiles.partial_transpose("A")).is_psd


def test_tiles_edges_are_the_projectors_ldl_columns():
    """Tiles records its projector's exact LDL* as edges ``l0``-``l3``, in
    pivot order and weighted by the pivots: their Gram sum is the projector
    ``1 - sum_v |v><v| / <v|v>`` over the five kernel products, summed here
    from dense outer products, and each edge has Schmidt rank 2."""
    P = em.ExactMatrix.identity(9)
    for v in co.tiles_kernel_products():
        P = P - em.ExactMatrix.outer(v, v).scale(1 / em.vdot(v, v).re)
    edges = co.tiles_complement().edges
    assert [(e.name, e.weight) for e in edges] == [
        ("l0", Fraction(7, 18)), ("l1", Fraction(5, 14)), ("l2", Fraction(3, 10)),
        ("l3", Fraction(2, 3))]
    gram = em.ExactMatrix([[0] * 9] * 9)
    for e in edges:
        gram = gram + em.ExactMatrix.outer(e.vec, e.vec).scale(e.weight)
    assert gram == P
    assert [qs.schmidt_rank(e.vec, 3, 3) for e in edges] == [2, 2, 2, 2]


def test_schmidt_rank():
    assert qs.schmidt_rank(em.vector([1, 0, 0, 1]), 2, 2) == 2
    assert qs.schmidt_rank(em.vector([1, 1, 0, 0]), 2, 2) == 1


def test_partial_transpose_commutes_with_swap():
    rho = co.rho_3x3()
    sw = qs.swap_subsystems(rho)
    lhs = qs.partial_transpose_matrix(sw.matrix, 3, 3, "A")
    # T_A after the swap equals the swap of T_B, relabelled like a state's matrix
    tb = rho.partial_transpose("B")
    src = qs.swap_index(3, 3)
    rhs = em.ExactMatrix([[tb.entry(r, c) for c in src] for r in src])
    assert lhs == rhs
