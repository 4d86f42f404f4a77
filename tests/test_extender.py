"""Local extension engine."""

import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pptlab import constructions as co
from pptlab import extension_count_bound
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import qstates as qs
from pptlab.errors import (BoundsViolation, DecompositionMismatch, DimensionMismatch,
                           NotHermitian, NotPPT, PptlabError, PreconditionViolation,
                           RangeViolation)

from oracles import (intersection_via_stacked_kernel, kron, ppt_extension_space_stacked,
                     trivial_coupling_space_by_products)


def rnd_scalar(rng, span=2):
    return em.GaussianRational(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                               Fraction(rng.randint(-span, span), rng.randint(1, 2)))


def random_psd_state(rng, m, n, nvec=None):
    nvec = nvec or rng.randint(1, 3)
    vecs = [tuple(rnd_scalar(rng) for _ in range(m * n)) for _ in range(nvec)]
    return qs.BipartiteState(m, n, em.weighted_gram(vecs, [1] * nvec, m * n), label="random")


# -- split / assemble ----------------------------------------------------------

def test_direct_sum_split_has_zero_coupling():
    core = co.rho_3x3()
    edge = em.diag([3, 0, 3])
    blocks = ex.ExtensionBlocks(core, em.zeros(9, 3), edge, "A", 3)
    st = ex.assemble_extension(blocks)
    back = ex.split_blocks(st, "A", 3)
    assert em.is_zero(back.coupling)
    assert back.core.matrix == core.matrix
    assert back.edge == edge


def test_split_rho45_at_last_b_index():
    final = co.rho_4x5().final
    blocks = ex.split_blocks(final, "B", 4)
    assert blocks.core.dims == (4, 4)
    nz_cols = [c for c, col in enumerate(zip(*blocks.coupling.tolists())) if any(col)]
    assert nz_cols == [3]  # the |02><3|-type coupling targets A-index 3
    assert ex.assemble_extension(blocks).matrix == final.matrix


def test_split_assemble_roundtrip_random():
    rng = random.Random(0)
    for _ in range(20):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        st = random_psd_state(rng, m, n)
        side = "A" if rng.random() < 0.5 else "B"
        perp = rng.randrange(m if side == "A" else n)
        blocks = ex.split_blocks(st, side, perp)
        assert ex.assemble_extension(blocks).matrix == st.matrix


def test_extension_blocks_check_shapes_and_level():
    """Blocks are checked at construction, and ``_replace`` keeps the checks."""
    core, edge = co.rho_3x3(), em.diag([3, 0, 3])
    blocks = ex.ExtensionBlocks(core, em.zeros(9, 3), edge, "A", 3)
    with pytest.raises(DimensionMismatch, match="coupling"):
        ex.ExtensionBlocks(core, em.zeros(9, 2), edge, "A", 3)
    with pytest.raises(DimensionMismatch, match="edge"):
        ex.ExtensionBlocks(core, em.zeros(9, 3), em.zeros(2, 2), "A", 3)
    assert blocks._replace(perp_index=0).perp_index == 0
    with pytest.raises(BoundsViolation, match="perp_index"):
        blocks._replace(perp_index=4)
    with pytest.raises(DimensionMismatch, match="edge"):
        blocks._replace(edge=em.zeros(2, 2))


@pytest.mark.parametrize("side, bad", [("A", -1), ("A", 4), ("B", -1), ("B", 4)])
def test_split_and_assemble_reject_out_of_range_levels(side, bad):
    M = co.rho_4x5().stage2.matrix                # 4x4, and 4x4 again after assembly
    with pytest.raises(BoundsViolation):
        ex.split_matrix(M, 4, 4, side, bad)
    core, chi, edge, core_dims = ex.split_matrix(M, 4, 4, side, 0)
    with pytest.raises(BoundsViolation):
        ex.assemble_matrix(core, chi, edge, core_dims, side, bad)


def test_level_indices_partition_the_extended_basis():
    for m_ext, n_ext in ((4, 3), (3, 5), (1, 2)):
        for side in "AB":
            for perp in range(m_ext if side == "A" else n_ext):
                core_idx, new_idx = ex.level_indices(m_ext, n_ext, side, perp)
                assert sorted(core_idx + new_idx) == list(range(m_ext * n_ext))
                assert len(new_idx) == (n_ext if side == "A" else m_ext)


# -- side B is side A on the swapped core ---------------------------------------------

def _phased_full_rank():
    """rho3x3 plus the identity under complex local phases: a complex PPT
    state of full rank on which every product pair meets its range
    preconditions, and whose partial transposes on A and on B differ."""
    op = kron(em.diag([1, em.I_UNIT, em.GaussianRational(Fraction(3, 5), Fraction(4, 5))]),
              em.diag([1, -em.I_UNIT, 1]))
    rho = co.rho_3x3().matrix + em.ExactMatrix.identity(9)
    return qs.BipartiteState(3, 3, op.matmul(rho).matmul(em.adjoint(op)), label="phased")


SWAP_CORES = {
    "rho3x3": co.rho_3x3,
    "tiles": co.tiles_complement,
    "family2": lambda: co.rho_family(2),
    "stage1": lambda: co.rho_4x5().stage1,
    "phased": _phased_full_rank,
}

gaussian_rationals = st.builds(
    lambda a, b, c, d: em.GaussianRational(Fraction(a, b), Fraction(c, d)),
    st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3))


def _swap_rows(chi, m, n):
    return em.ExactMatrix([chi.row(r) for r in qs.swap_index(m, n)])


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except PptlabError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("name", sorted(SWAP_CORES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_side_b_extensions_are_swapped_side_a_extensions(name, data):
    """slocc, flat and product-pair extensions on side B equal, bit for bit,
    the swap of the side-A extension of the swapped core."""
    core = SWAP_CORES[name]()
    sw = qs.swap_subsystems(core)
    m, n = core.dims
    vec = lambda size: tuple(data.draw(st.lists(gaussian_rationals, min_size=size, max_size=size)))

    phi = vec(n)
    got = ex.slocc_extension(core, phi, "B")
    want = qs.swap_subsystems(ex.slocc_extension(sw, phi, "A"))
    assert got.dims == want.dims == (m, n + 1)
    assert got.matrix == want.matrix

    R = em.ExactMatrix([list(vec(m)) for _ in range(m * n)])
    chi = core.matrix.matmul(R)                   # a generic coupling in the range
    got = ex.flat_extension(core, chi, "B")
    want = qs.swap_subsystems(ex.flat_extension(sw, _swap_rows(chi, m, n), "A"))
    assert got.dims == want.dims == (m, n + 1)
    assert got.matrix == want.matrix

    alpha, beta, gamma = vec(n), vec(m), vec(m)
    got, got_exc = _outcome(ex.product_pair_extension, core, alpha, beta, gamma, "B")
    want, want_exc = _outcome(ex.product_pair_extension, sw, alpha, beta, gamma, "A")
    assert got_exc == want_exc
    if got is not None:
        want = qs.swap_subsystems(want)
        assert got.dims == want.dims == (m, n + 1)
        assert got.matrix == want.matrix


@pytest.mark.parametrize("stage, alpha, beta", [("stage1", 0, 2), ("stage2", 2, 0)])
def test_side_b_product_pair_is_swapped_side_a(stage, alpha, beta):
    core = getattr(co.rho_4x5(), stage)
    sw = qs.swap_subsystems(core)
    m, n = core.dims
    args = (em.basis_vector(n, alpha), em.basis_vector(m, beta), em.basis_vector(m, 3))
    got_ext = ex.product_pair_extension(core, *args, side="B")
    want_ext = ex.product_pair_extension(sw, *args, side="A")
    got, want = ex.split_blocks(got_ext, "B", n), ex.split_blocks(want_ext, "A", n)
    assert got.core == core
    assert got.coupling == _swap_rows(want.coupling, n, m) and got.edge == want.edge
    assert got_ext.matrix == qs.swap_subsystems(want_ext).matrix


def _rank2_core_swapped():
    """A 3x2 core whose side-B sandwich ``<alpha|rho|alpha>`` has rank 2 for
    ``alpha = |0>``: the swap of the core of the local-rank test."""
    vecs = [em.kron_vec(em.basis_vector(2, 0), em.basis_vector(3, j)) for j in (0, 1)]
    core = qs.BipartiteState(2, 3, em.weighted_gram(vecs, [1, 1], 6), label="rank2")
    return qs.swap_subsystems(core)


_PRECONDITION_CASES = {  # case -> (core, alpha, beta, gamma, expected message)
    "dims": (lambda: co.rho_4x5().stage1, em.basis_vector(2, 0), em.basis_vector(4, 2),
             em.basis_vector(4, 3), "alpha on the extended side"),
    "parallel": (lambda: co.rho_4x5().stage1, em.basis_vector(3, 0), em.basis_vector(4, 2),
                 em.vector([0, 0, 2, 0]), "parallel"),
    "range": (lambda: co.rho_4x5().stage1, em.basis_vector(3, 0), em.basis_vector(4, 0),
              em.basis_vector(4, 1), "not in the range of rho_c"),
    "transposed-range": (lambda: co.rho_4x5().stage1, em.basis_vector(3, 0),
                         em.basis_vector(4, 2), em.basis_vector(4, 1),
                         "not in the transposed range"),
    "local-rank": (_rank2_core_swapped, em.basis_vector(2, 0), em.vector([1, 0, 0]),
                   em.vector([0, 1, 0]), "rank(<alpha|rho_c|alpha>) = 2"),
}


@pytest.mark.parametrize("case", sorted(_PRECONDITION_CASES))
def test_side_b_product_pair_checks_as_the_swapped_side_a_one(case):
    """Each precondition of a side-B product pair fails with the type and
    message of the side-A one on the swapped core, so the checks run in the
    same order on both sides."""
    make, alpha, beta, gamma, message = _PRECONDITION_CASES[case]
    core = make()
    got_exc = _outcome(ex.product_pair_extension, core, alpha, beta, gamma, "B")[1]
    want_exc = _outcome(ex.product_pair_extension, qs.swap_subsystems(core),
                        alpha, beta, gamma, "A")[1]
    assert got_exc == want_exc and message in got_exc[1]


@st.composite
def edge_states(draw):
    """A small state given by its edges: Gaussian-rational vectors and
    positive rational weights."""
    m, n, count = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4))
    weights = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)
    edges = [qs.NamedVector(f"v{i}", tuple(draw(st.lists(gaussian_rationals, min_size=m * n,
                                                          max_size=m * n))), draw(weights))
             for i in range(count)]
    return qs.BipartiteState(m, n, label="drawn", edges=edges)


@settings(max_examples=40, deadline=None)
@given(edge_states(), st.data())
def test_unchecked_states_agree_with_checked_ones(s, data):
    """What swap_subsystems, split_blocks and project_local_block build
    without a check is what a checked construction gives: the swap is the
    state of the permuted edges and an involution, and a core or a local
    block is PSD."""
    m, n = s.dims
    sw = qs.swap_subsystems(s)
    src = qs.swap_index(m, n)
    checked = qs.BipartiteState(n, m, label="checked", edges=[
        qs.NamedVector(e.name, tuple(e.vec[r] for r in src), e.weight) for e in s.edges])
    assert (sw.dims, sw.matrix, sw.edges) == (checked.dims, checked.matrix, checked.edges)
    back = qs.swap_subsystems(sw)
    assert (back.dims, back.matrix, back.edges) == (s.dims, s.matrix, s.edges)
    for side, local in (("A", m), ("B", n)):
        if local > 1:
            core = ex.split_blocks(s, side, data.draw(st.integers(0, local - 1))).core
            assert em.psd_check(core.matrix).is_psd
    rows_a = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    rows_b = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    assert em.psd_check(qs.project_local_block(s, rows_a, rows_b).matrix).is_psd


# -- Schur complements -----------------------------------------------------------

def test_schur_zero_coupling_returns_edge():
    core = co.rho_3x3()
    edge = em.diag([1, 2, 3])
    blocks = ex.ExtensionBlocks(core, em.zeros(9, 3), edge, "A", 3)
    assert ex.schur_complement(blocks) == edge


def test_schur_scalar_example():
    core = qs.BipartiteState(1, 1, em.ExactMatrix([[2]]), label="s")
    blocks = ex.ExtensionBlocks(core, em.ExactMatrix([[1]]), em.ExactMatrix([[1]]), "A", 1)
    assert ex.schur_complement(blocks).entry(0, 0) == Fraction(1, 2)


def test_schur_flat_extension_vanishes():
    rng = random.Random(1)
    core = random_psd_state(rng, 2, 2)
    R = em.ExactMatrix([[rnd_scalar(rng) for _ in range(2)] for _ in range(4)])
    chi = core.matrix.matmul(R)
    flat = ex.flat_extension(core, chi, "A")
    blocks = ex.split_blocks(flat, "A", 2)
    assert em.is_zero(ex.schur_complement(blocks))
    # flat extensions preserve the range dimension
    assert em.rank(flat.matrix) == em.rank(core.matrix)


def test_schur_range_violation_signals_non_psd():
    core = qs.BipartiteState(1, 2, em.diag([1, 0]), label="c")
    chi = em.ExactMatrix([[0, 0], [1, 0]])  # column outside R(core)
    blocks = ex.ExtensionBlocks(core, chi, em.ExactMatrix.identity(2), "A", 1)
    with pytest.raises(RangeViolation):
        ex.schur_complement(blocks)


# -- the constraint system ---------------------------------------------------------

def test_extension_count_bound_values():
    assert extension_count_bound(3, 3, 5, 6) == 3
    assert extension_count_bound(3, 3, 4, 4) == -6
    assert extension_count_bound(2, 4, 8, 8) == 30


def test_extension_space_maximally_mixed():
    mm = qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm")
    space = ex.ppt_extension_space(mm)
    assert space.bound == 6
    assert space.dimension == 8  # every coupling solves the full-rank system
    assert space.trivial_dimension == 2


def test_extension_space_rho3x3():
    space = ex.ppt_extension_space(co.rho_3x3())
    assert space.bound == 3
    assert space.trivial_dimension == 3
    assert space.dimension >= space.bound + 3
    assert space.dimension == 7  # frozen exact value (one above the counting bound)


# the magnitudes of the dense directions: every entry nonzero, as in the benchmark
DENSE = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))


def dense_direction(rng, size):
    values = list(DENSE[:size])
    rng.shuffle(values)
    return em.vector(rng.choice((-1, 1)) * v for v in values)


def dense_extensions(seed):
    """A SLOCC extension of rho3x3, tiles, family:2 and rho4x5:stage1 on each
    side and a flat one on one side (B for tiles and stage1), along dense
    seeded directions, each in the frame of the other side's extension space."""
    rng = random.Random(seed)
    cores = ((co.rho_3x3(), "A"), (co.tiles_complement(), "B"), (co.rho_family(2), "A"),
             (co.rho_4x5().stage1, "B"))
    out = []
    for core, flat_side in cores:
        m, n = core.dims
        for side in "AB":
            local = m if side == "A" else n
            exts = [ex.slocc_extension(core, dense_direction(rng, local), side)]
            if side == flat_side:
                phi = dense_direction(rng, local)
                chi = ex.slocc_coupling(core, phi) if side == "A" else _swap_rows(
                    ex.slocc_coupling(qs.swap_subsystems(core), phi), n, m)
                exts.append(ex.flat_extension(core, chi, side))
            out += [qs.swap_subsystems(e) if side == "A" else e for e in exts]
    return out


def test_extension_space_cross_check_stacked():
    """The annihilator solve equals the stacked-kernel oracle, and the
    trivial dimension read off the core is the dimension of the SLOCC
    couplings' Choi vectors, on the named states and on seeded dense
    extensions (among them rho4x5:stage1 extended on side B, a 4x4 state on
    64 Choi coordinates)."""
    mixed = qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm")
    dense = ex.slocc_extension(co.rho_3x3(), em.vector([1, -2, Fraction(1, 2)]), "A")
    # a local diagonal unitary with complex phases
    op = kron(em.diag([1, em.I_UNIT, em.GaussianRational(Fraction(3, 5), Fraction(4, 5))]),
              em.diag([1, -em.I_UNIT, 1]))
    phased = qs.BipartiteState(3, 3, op.matmul(co.rho_3x3().matrix).matmul(em.adjoint(op)),
                               label="phased")
    states = [co.rho_3x3(), co.rho_family(2), co.tiles_complement(), mixed,
              qs.swap_subsystems(co.rho_4x5().stage1), dense, phased]
    seeded = dense_extensions(5)
    assert [st.dims for st in seeded].count((4, 4)) == 2
    for st in states + seeded:
        space = ex.ppt_extension_space(st)
        assert ppt_extension_space_stacked(st) == space.solution_space, st.label
        assert trivial_coupling_space_by_products(st).dim == space.trivial_dimension, st.label


def test_trivial_rows_are_the_slocc_couplings_on_each_side():
    """The trivial couplings counted by ``trivial_dimension`` are those of
    the SLOCC extensions by ``|i>`` on side A; on side B they are those of
    the side-A extensions of the swapped core, with their rows swapped."""
    for core in (co.rho_3x3(), co.rho_4x5().stage1, co.rho_4x5().stage2):
        m, n = core.dims
        sw = qs.swap_subsystems(core)
        for side, local in (("A", m), ("B", n)):
            couplings = [ex.split_blocks(ex.slocc_extension(core, em.basis_vector(local, i), side),
                                         side, local).coupling for i in range(local)]
            if side == "A":
                assert couplings == [ex.slocc_coupling(core, em.basis_vector(m, i))
                                     for i in range(m)]
                trivial = trivial_coupling_space_by_products(core)
                assert trivial == em.Subspace(m * n * n, [ex.coupling_choi_vector(c, m, n)
                                                          for c in couplings])
                assert trivial.dim == ex.ppt_extension_space(core).trivial_dimension
            else:
                assert couplings == [_swap_rows(ex.slocc_coupling(sw, em.basis_vector(n, i)),
                                                n, m) for i in range(n)]


def test_trivial_dimension_is_the_rank_of_the_slocc_choi_rows():
    """``trivial_dimension`` is read off a rank of the SLOCC couplings' Choi
    rows.  It equals the dimension of the oracle's span of those couplings,
    and keeps its pinned value, on acceptance criterion 6's corpus, a core with
    an empty A-level (rank below m) and the seeded dense extensions of the
    extend-survey cores."""
    pipe = co.rho_4x5()
    corpus = [co.rho_3x3(), co.rho_family(2), co.tiles_complement(),
              qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm"),
              qs.swap_subsystems(pipe.stage1), qs.swap_subsystems(pipe.stage2),
              qs.BipartiteState(2, 2, em.diag([1, 1, 0, 0]), label="empty-level")]
    states = corpus + dense_extensions(11) + dense_extensions(12)
    dims = [ex.ppt_extension_space(st).trivial_dimension for st in states]
    assert dims == [trivial_coupling_space_by_products(st).dim for st in states]
    assert dims == [3, 3, 3, 2, 3, 4, 1] + 2 * ([3] * 10 + [4, 4])


def _bell_core():
    """The NPT 2x2 projector on ``|00>+|11>``."""
    v = em.vector([1, 0, 0, 1])
    return qs.BipartiteState(2, 2, em.ExactMatrix.outer(v, v), label="bell")


def test_extension_space_refuses_an_npt_core():
    with pytest.raises(NotPPT, match="core state is not PPT"):
        ex.ppt_extension_space(_bell_core())


def test_extension_space_tiles_is_slocc_only():
    space = ex.ppt_extension_space(co.tiles_complement())
    assert space.dimension == 3
    assert space.trivial_dimension == 3


def test_slocc_couplings_always_solve():
    for st in (co.rho_3x3(), co.rho_family(2)):
        space = ex.ppt_extension_space(st)
        m, n = st.dims
        for i in range(m):
            chi = ex.slocc_coupling(st, em.basis_vector(m, i))
            assert em.in_subspace(space.solution_space, ex.coupling_choi_vector(chi, m, n))


# -- slocc ---------------------------------------------------------------------------

def test_slocc_zero_phi_is_direct_sum():
    rho = co.rho_3x3()
    st = ex.slocc_extension(rho, (em.ZERO,) * 3, "A")
    blocks = ex.split_blocks(st, "A", 3)
    assert em.is_zero(blocks.coupling) and em.is_zero(blocks.edge)
    assert blocks.core.matrix == rho.matrix


def test_slocc_preserves_birank_and_ppt():
    rho = co.rho_3x3()
    st = ex.slocc_extension(rho, em.basis_vector(3, 0), "A")
    assert qs.birank(st) == (5, 6)
    assert em.psd_check(st.partial_transpose("A")).is_psd


def test_slocc_does_not_raise_schmidt_rank():
    rho = co.rho_3x3()
    phi = em.vector([1, Fraction(1, 2), 0])
    st = ex.slocc_extension(rho, phi, "A")
    for e in rho.edges:
        # the lifted edge is (S (x) 1) e
        lifted = list(co._sites_vec([], 4, 3))
        for a in range(3):
            for b in range(3):
                lifted[a * 3 + b] = e.vec[a * 3 + b]
        for b in range(3):
            acc = em.ZERO
            for a in range(3):
                acc = acc + phi[a].conj() * e.vec[a * 3 + b]
            lifted[9 + b] = acc
        assert qs.schmidt_rank(tuple(lifted), 4, 3) <= qs.schmidt_rank(e.vec, 3, 3)


def test_slocc_side_b():
    rho = co.rho_3x3()
    st = ex.slocc_extension(rho, em.basis_vector(3, 1), side="B")
    assert st.dims == (3, 4)
    assert em.psd_check(st.partial_transpose("A")).is_psd


def test_slocc_extension_is_the_flat_extension_of_its_coupling():
    """On both sides of the extend-survey cores, along dense directions, the
    SLOCC extension by ``phi`` is the flat extension of its coupling
    ``rho X`` (``X = |phi> (x) 1``, or ``1 (x) |phi>`` on side B), and its edge
    is ``X* rho X``."""
    rng = random.Random(14)
    for core in (co.rho_3x3(), co.tiles_complement(), co.rho_family(2), co.rho_4x5().stage1):
        m, n = core.dims
        for side, local in (("A", m), ("B", n)):
            phi = dense_direction(rng, local)
            col = em.ExactMatrix([[x] for x in phi])
            X = kron(col, em.ExactMatrix.identity(n)) if side == "A" else \
                kron(em.ExactMatrix.identity(m), col)
            st = ex.slocc_extension(core, phi, side)
            assert st.matrix == ex.flat_extension(core, core.matrix.matmul(X), side).matrix
            assert ex.split_blocks(st, side, local).edge == \
                em.adjoint(X).matmul(core.matrix).matmul(X)


# -- extension steps and pipelines ---------------------------------------------------

def test_run_pipeline_without_edges_builds_the_same_stages():
    pipe = co.rho_4x5()
    bare = qs.BipartiteState(3, 3, co.rho_3x3().matrix, label="bare")
    # a state without edges has nothing to name: the steps go without names
    stages = ex.run_pipeline(bare, [step._replace(names=None) for step in pipe.steps])
    assert [st.matrix for st in stages] == [pipe.stage1.matrix, pipe.stage2.matrix,
                                            pipe.final.matrix]
    assert all(st.edges is None for st in stages)


def test_rho4x5_sums_and_factors_each_matrix_once(spy):
    """Built from scratch, rho4x5 runs 1 Gram sum (rho3x3's edges), 5 LDL*
    and 5 range solves.  Each step factors its remainder on the new level
    (3x3, then 4x4 twice); each product pair also factors its core's
    partial transpose (12x12, 16x16), which proves it PPT.  No extension
    matrix or extension's partial transpose is factored, and no state is
    summed from its edges again: the lifted edges and remainder parts sum
    to the extension by construction."""
    calls = spy(em, "weighted_gram", "psd_check", "solve_on_range_matrix")
    co.rho_3x3.cache_clear()
    co.rho_4x5.cache_clear()
    try:
        co.rho_4x5()
    finally:
        co.rho_3x3.cache_clear()
        co.rho_4x5.cache_clear()
    names = [name for name, _ in calls]
    assert [names.count(name) for name in ("weighted_gram", "psd_check",
                                           "solve_on_range_matrix")] == [1, 5, 5]
    assert [args[0].rows for name, args in calls if name == "psd_check"] == [3, 12, 4, 16, 4]


def test_rho4x5_builds_every_level_in_place(spy):
    """Each step of rho4x5 places its new level on its own side, so the
    build changes no frame; it still runs 1 Gram sum and 5 LDL*.  A
    product pair decides its range conditions by the range solves of its
    edge block, so the build forms no column space and runs 5 ``_rref``."""
    spy(qs, "swap_subsystems")
    calls = spy(em, "weighted_gram", "psd_check", "column_space", "_rref")
    co.rho_3x3.cache_clear()
    co.rho_4x5.cache_clear()
    try:
        co.rho_4x5()
    finally:
        co.rho_3x3.cache_clear()
        co.rho_4x5.cache_clear()
    names = [name for name, _ in calls]
    assert [names.count(name) for name in ("swap_subsystems", "weighted_gram", "psd_check",
                                           "column_space", "_rref")] == [0, 1, 5, 0, 5]


def test_rho4x5_stages_are_the_sums_of_their_edges():
    """run_pipeline hands each stage on without summing its edges again;
    summing them reproduces the stage's matrix."""
    for stage in co.rho_4x5()[:3]:
        assert qs.BipartiteState(*stage.dims, label="sum", edges=stage.edges).matrix == \
            stage.matrix


def test_rho4x5_factors_no_large_matrix_twice(spy):
    """Building rho4x5 PSD-checks one 12x12 and one 16x16 matrix: a
    product-pair step factors its core's partial transpose, which proves
    it PPT, and then only its remainder on the new level, so no LDL* has
    the size of the extension it checks (16, then 20)."""
    calls = spy(em, "psd_check")
    co.rho_4x5.cache_clear()
    try:
        pipe = co.rho_4x5()
    finally:
        co.rho_4x5.cache_clear()
    large = [M.rows for _, (M,) in calls if M.rows >= 12]
    assert large == [12, 16]
    assert all(rows < st.matrix.rows for rows, st in zip(large, (pipe.stage2, pipe.final)))


def test_extremality_ppt_reuses_the_finishers_schur_complement(spy):
    """On rho4x5 split at level 4 of B, ``extremality_check_ppt`` solves the
    4x4 core once, for the finisher, whose 4x4 edge Schur complement it
    reuses, and the core of the partial transpose once; it factors that
    Schur complement and the 20x20 partial transpose."""
    blocks = ex.split_blocks(co.rho_4x5().final, "B", 4)
    calls = spy(em, "psd_check", "solve_on_range_matrix")
    ex.extremality_check_ppt(blocks)
    assert [(name, args[0].rows) for name, args in calls] == [
        ("solve_on_range_matrix", 16), ("psd_check", 4), ("psd_check", 20),
        ("solve_on_range_matrix", 16)]


def test_run_pipeline_needs_one_name_per_remainder_part():
    step = co.rho_4x5().steps[0]._replace(names=("p30",))
    with pytest.raises(DecompositionMismatch, match="2 rank-one parts, 1 names"):
        ex.run_pipeline(co.rho_3x3(), [step])


def test_run_pipeline_refuses_names_without_edges_to_lift():
    bare = qs.BipartiteState(3, 3, co.rho_3x3().matrix, label="bare")
    with pytest.raises(PreconditionViolation, match="rho4x3: a state without edges takes no names"):
        ex.run_pipeline(bare, co.rho_4x5().steps[:1])


@pytest.mark.parametrize("change", [{"kind": "twist"}, {"side": "C"}], ids=["kind", "side"])
def test_apply_step_rejects_unknown_kind_and_side(change):
    step = co.rho_4x5().steps[0]._replace(**change)
    with pytest.raises(BoundsViolation):
        ex.apply_step(co.rho_3x3(), step)


@pytest.mark.parametrize("side", ["a", "C", ""], ids=["lowercase", "C", "empty"])
def test_every_extension_path_refuses_a_side_other_than_a_or_b(side):
    """One side rule: ``split_blocks(rho3x3, "a", 2)`` used to split side B.
    Every path refuses such a side first, with one message, whatever else
    its parameters get wrong."""
    rho = co.rho_3x3()
    message = f"side must be 'A' or 'B', not {side!r}"
    calls = [lambda: ex.level_indices(4, 3, side, 0),
             lambda: ex.split_blocks(rho, side, 2),
             lambda: ex.split_matrix(rho.matrix, 3, 3, side, 2),
             lambda: ex.assemble_matrix(rho.matrix, em.zeros(9, 3), em.zeros(3, 3), (3, 3), side, 3),
             lambda: ex.ExtensionBlocks(rho, em.zeros(9, 2), em.zeros(2, 2), side, 3),
             lambda: ex.lift_decomposition(co.rho_4x5().stage1, side, 3, [], []),
             lambda: ex.witness_schur_peel(rho.matrix, (3, 3), side, 0)]
    for step in co.rho_4x5().steps:  # a product pair with a 4-entry beta on rho3x3, too
        calls.append(lambda step=step: ex.apply_step(rho, step._replace(side=side)))
    calls.append(lambda: ex.slocc_extension(rho, (em.ONE,), side))
    calls.append(lambda: ex.flat_extension(rho, em.ExactMatrix([[1, 0, 0]] + [[0] * 3] * 8), side))
    for call in calls:
        with pytest.raises(BoundsViolation, match=re.escape(message)):
            call()


# the cores of the extension property, each given by its edges
EDGE_CORES = {"rho3x3": co.rho_3x3, "tiles": co.tiles_complement,
              "family:2": lambda: co.rho_family(2), "rho4x5:stage1": lambda: co.rho_4x5().stage1}


@functools.cache
def _accepted_pairs(name, side):
    """The basis triples ``(alpha, beta, gamma)`` on which the product pair
    extends the matrix form of a core; all triples when there are none
    (Tiles, whose range holds no product vector)."""
    core = EDGE_CORES[name]()
    here, other = core.dims if side == "A" else core.dims[::-1]
    triples = [(em.basis_vector(here, a), em.basis_vector(other, b), em.basis_vector(other, g))
               for a in range(here) for b in range(other) for g in range(other)]
    bare = qs.BipartiteState._raw(*core.dims, core.matrix, core.label)
    accepted = [t for t in triples if _outcome(ex.product_pair_extension, bare, *t, side)[1] is None]
    return accepted or triples


def _drawn_step(data, core, name, kind, side):
    here, other = core.dims if side == "A" else core.dims[::-1]

    def matrix(rows, cols):
        return em.ExactMatrix([data.draw(st.lists(gaussian_rationals, min_size=cols,
                                                  max_size=cols)) for _ in range(rows)])

    if kind == "direct_sum":  # G G* - H H*, refused when H adds a negative direction
        G, H = matrix(other, data.draw(st.integers(1, 2))), matrix(other, data.draw(st.integers(0, 1)))
        edge = G.matmul(em.adjoint(G))
        parameters = {"edge": edge - H.matmul(em.adjoint(H)) if H.cols else edge}
    elif kind == "slocc":
        parameters = {"phi": tuple(data.draw(st.lists(gaussian_rationals, min_size=here,
                                                      max_size=here)))}
    elif kind == "flat":
        parameters = {"chi": core.matrix.matmul(matrix(core.matrix.rows, other))}
    else:
        parameters = dict(zip(("alpha", "beta", "gamma"),
                              data.draw(st.sampled_from(_accepted_pairs(name, side)))))
    return qs.ExtensionStep(kind, side, parameters, "", None)


@pytest.mark.parametrize("side", "AB")
@pytest.mark.parametrize("kind", ["direct_sum", "slocc", "product_pair", "flat"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_extension_of_an_edge_state_is_an_edge_state(kind, side, data):
    """A step on a core given by its edges gives the matrix of the same
    step on the core's matrix form (or the same refusal), and hands on
    edges that sum to it: the core's edges lifted, as lift_decomposition
    lifts them, then the remainder's parts, each of positive weight."""
    name = data.draw(st.sampled_from(sorted(EDGE_CORES)))
    core = EDGE_CORES[name]()
    step = _drawn_step(data, core, name, kind, side)
    bare = qs.BipartiteState._raw(*core.dims, core.matrix, core.label)
    want, refused = _outcome(ex.apply_step, bare, step)
    got, got_refused = _outcome(ex.apply_step, core, step)
    assert got_refused == refused
    event(f"{kind} {side}: {'refused' if refused else 'extended'}")
    if refused:
        return
    assert want.edges is None and got.matrix == want.matrix
    assert qs.BipartiteState(*got.dims, label="sum", edges=got.edges).matrix == want.matrix
    lifted, parts = got.edges[:len(core.edges)], got.edges[len(core.edges):]
    assert [e.name for e in lifted] == [e.name for e in core.edges]
    assert all(e.weight > 0 for e in parts)
    perp = (got.dim_a if side == "A" else got.dim_b) - 1
    assert [e.name for e in parts] == [f"{side}{perp}_{t}" for t in range(len(parts))]
    vectors, remainder = ex.lift_decomposition(got, side, perp, [e.vec for e in core.edges],
                                               [e.weight for e in core.edges])
    assert vectors == [(e.vec, e.weight) for e in lifted]
    assert remainder == em.weighted_gram([e.vec for e in parts], [e.weight for e in parts],
                                         got.matrix.rows)


# -- product-pair extensions ----------------------------------------------------------

def test_product_pair_parallel_rejected():
    pipe = co.rho_4x5()
    sw = qs.swap_subsystems(pipe.stage1)
    beta = em.basis_vector(4, 2)
    with pytest.raises(PreconditionViolation, match="parallel"):
        ex.product_pair_extension(sw, em.basis_vector(3, 0), beta, beta, side="A")


def test_product_pair_range_precondition():
    pipe = co.rho_4x5()
    sw = qs.swap_subsystems(pipe.stage1)
    # |alpha beta> with beta = |1>_A is not in the range
    with pytest.raises(PreconditionViolation, match="range"):
        ex.product_pair_extension(sw, em.basis_vector(3, 0), em.basis_vector(4, 1),
                                  em.basis_vector(4, 3), side="A")


def test_product_pair_local_rank_precondition():
    # a core with rank(<alpha|rho|alpha>) = 2 is rejected
    rng = random.Random(3)
    v1 = em.kron_vec(em.basis_vector(2, 0), em.vector([1, 0, 0]))
    v2 = em.kron_vec(em.basis_vector(2, 0), em.vector([0, 1, 0]))
    acc = em.ExactMatrix.outer(v1, v1) + em.ExactMatrix.outer(v2, v2)
    core = qs.BipartiteState(2, 3, acc, label="rank2")
    with pytest.raises(PreconditionViolation, match="rank"):
        ex.product_pair_extension(core, em.basis_vector(2, 0), em.vector([1, 0, 0]),
                                  em.vector([0, 1, 0]), side="A")


def test_product_pair_pipeline_steps_are_ppt_and_nontrivial():
    pipe = co.rho_4x5()
    stage2 = ex.product_pair_extension(pipe.stage1, em.basis_vector(3, 0),
                                       em.basis_vector(4, 2), em.basis_vector(4, 3),
                                       side="B")
    assert stage2.matrix == pipe.stage2.matrix
    final = ex.product_pair_extension(pipe.stage2, em.basis_vector(4, 2),
                                      em.basis_vector(4, 0), em.basis_vector(4, 3),
                                      side="B")
    assert final.matrix == pipe.final.matrix
    for core, st in ((pipe.stage1, stage2), (pipe.stage2, final)):
        assert em.psd_check(st.partial_transpose("A")).is_psd
        assert not _is_trivial_coupling(core, st, "B")


FULL_RANK_CORES = {  # every product vector is in both ranges, so most draws build
    "phased": _phased_full_rank,
    "stage1-plus-identity": lambda: qs.BipartiteState(
        4, 3, co.rho_4x5().stage1.matrix + em.ExactMatrix.identity(12), label="stage1+1"),
}


@pytest.mark.parametrize("name", sorted(FULL_RANK_CORES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_product_pair_coupling_is_never_trivial(name, data):
    """Once its preconditions pass, a product pair's coupling lies outside
    the span of the SLOCC couplings on its side (the proof is in the
    docstring of ``product_pair_extension``, which therefore does not check
    it).  A refused draw fails a precondition, never the PPT check."""
    core = FULL_RANK_CORES[name]()
    side = data.draw(st.sampled_from("AB"), label="side")
    here, other = core.dims if side == "A" else core.dims[::-1]
    vec = lambda size: tuple(data.draw(st.lists(gaussian_rationals, min_size=size, max_size=size)))
    alpha, beta, gamma = vec(here), vec(other), vec(other)
    ext, exc = _outcome(ex.product_pair_extension, core, alpha, beta, gamma, side)
    event("built" if ext is not None else "refused")
    if ext is None:
        assert exc[0] is PreconditionViolation
        return
    assert not _is_trivial_coupling(core, ext, side)


@pytest.mark.parametrize("name", sorted(FULL_RANK_CORES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_pair_of_a_ppt_core_is_ppt(name, data):
    """On a PPT core a product pair that passes its preconditions is PSD and
    its partial transposes on A and on B are PSD, on either side, although
    only its core's partial transpose on its side is factored when it is
    built: the argument in ``product_pair_extension``'s docstring, checked
    by LDL* of the built extension's partial transposes."""
    core = FULL_RANK_CORES[name]()
    side = data.draw(st.sampled_from("AB"), label="side")
    here, other = core.dims if side == "A" else core.dims[::-1]
    vec = lambda size: tuple(data.draw(st.lists(gaussian_rationals, min_size=size, max_size=size)))
    ext, exc = _outcome(ex.product_pair_extension, core, vec(here), vec(other), vec(other), side)
    event("built" if ext is not None else "refused")
    if ext is None:
        assert exc[0] is PreconditionViolation
        return
    assert em.psd_check(ext.matrix).is_psd
    assert all(em.psd_check(ext.partial_transpose(t)).is_psd for t in "AB")


def _npt_full_rank():
    """``1 + 3 |Phi><Phi|`` on 3x3 with ``|Phi> = sum |ii>``: full rank, and
    NPT, since its partial transpose ``1 + 3 F`` (``F`` the swap) has the
    eigenvalue -2 on the antisymmetric subspace."""
    phi = tuple(em.ONE if i in (0, 4, 8) else em.ZERO for i in range(9))
    return qs.BipartiteState(3, 3, em.ExactMatrix.identity(9) +
                             em.ExactMatrix.outer(phi, phi).scale(3), label="npt")


@pytest.mark.parametrize("beta, gamma", [(0, 1), (1, 0)],
                         ids=["extension-not-psd", "extension-psd"])
def test_product_pair_of_an_npt_core_fails_its_ppt_check(beta, gamma):
    """On an NPT core that meets every precondition the LDL* of the core's
    partial transpose refuses the product pair, whether the extension is
    PSD or not: with ``gamma = |1>`` the coefficient ``<ag|(rho^T)^{-1}|ag>``
    is -1/8, so the extension is not PSD; with ``gamma = |0>`` it is PSD,
    but its partial transpose contains the core's, which is not."""
    core = _npt_full_rank()
    with pytest.raises(NotPPT, match="assembled extension fails the exact PPT check"):
        ex.product_pair_extension(core, em.basis_vector(3, 0), em.basis_vector(3, beta),
                                  em.basis_vector(3, gamma), "A")


def _is_trivial_coupling(core, ext, side):
    """Whether the coupling of ``ext``, the extension of ``core`` at the
    last level of ``side``, is in the span of the SLOCC couplings by
    ``|i>`` on that side, all flattened row by row."""
    here = core.dim_a if side == "A" else core.dim_b
    flat = lambda c: [x for r in range(c.rows) for x in c.row(r)]
    trivial = [flat(ex.split_blocks(ex.slocc_extension(core, em.basis_vector(here, i), side),
                                    side, here).coupling) for i in range(here)]
    chi = flat(ex.split_blocks(ext, side, here).coupling)
    return em.in_subspace(em.Subspace(len(chi), trivial), tuple(chi))


def test_product_pair_edge_block_minimal_form():
    pipe = co.rho_4x5()
    ext = ex.product_pair_extension(pipe.stage1, em.basis_vector(3, 0),
                                    em.basis_vector(4, 2), em.basis_vector(4, 3),
                                    side="B")
    blocks = ex.split_blocks(ext, "B", 3)
    # rho_e = s1 |gamma><gamma| + s2 |beta><beta| with s1 = s2 = 1/3 here
    expect = em.diag([0, 0, Fraction(1, 3), Fraction(1, 3)])
    assert blocks.edge == expect


# -- lifting ----------------------------------------------------------------------------

def test_lift_zero_coupling_keeps_vectors():
    rng = random.Random(4)
    core = random_psd_state(rng, 2, 2, nvec=2)
    edge = em.diag([1, 1])
    blocks = ex.ExtensionBlocks(core, em.zeros(4, 2), edge, "A", 2)
    st = ex.assemble_extension(blocks)
    vecs = _decomposition_of(core.matrix)
    lifted, remainder = ex.lift_decomposition(st, "A", 2, [v for v, _ in vecs],
                                              [w for _, w in vecs])
    for (v0, _), (v1, _) in zip(vecs, lifted):
        assert v1[:4] == v0 and em.is_zero_vector(v1[4:])


def _decomposition_of(M):
    res = em.psd_check(M)
    return [(col, Fraction(d)) for (_, d), col in zip(res.pivots, res.columns)]


def test_lift_single_pure_core():
    v = em.vector([1, 0, 0, 1])
    core = qs.BipartiteState(2, 2, em.ExactMatrix.outer(v, v), label="pure")
    R = em.ExactMatrix([[1, 0], [0, 1], [1, 1], [0, 0]])
    chi = core.matrix.matmul(R)
    st = ex.flat_extension(core, chi, "A")
    lifted, remainder = ex.lift_decomposition(st, "A", 2, [v], [Fraction(1)])
    assert len(lifted) == 1
    assert em.is_zero(remainder)
    assert qs.schmidt_rank(lifted[0][0], 3, 2) <= qs.schmidt_rank(v, 2, 2) + 1


def test_lift_mismatched_core_rejected():
    rng = random.Random(5)
    core = random_psd_state(rng, 2, 2)
    edge = em.ExactMatrix.identity(2)
    blocks = ex.ExtensionBlocks(core, em.zeros(4, 2), edge, "A", 2)
    st = ex.assemble_extension(blocks)
    with pytest.raises(DecompositionMismatch):
        ex.lift_decomposition(st, "A", 2, [em.vector([1, 0, 0, 0])], [Fraction(1)])


def test_lift_needs_one_weight_per_core_vector():
    pipe = co.rho_4x5()
    vecs = [e.vec for e in pipe.stage1.edges]
    weights = [e.weight for e in pipe.stage1.edges]
    with pytest.raises(DimensionMismatch, match="one weight per core vector"):
        ex.lift_decomposition(pipe.stage2, "B", 3, vecs, weights[:-1])


def test_lift_through_recorded_pipeline():
    pipe = co.rho_4x5()
    lifted, remainder = ex.lift_decomposition(
        pipe.stage2, "B", 3,
        [e.vec for e in pipe.stage1.edges], [e.weight for e in pipe.stage1.edges])
    for (v1, _), e in zip(lifted, pipe.stage1.edges):
        sr0 = qs.schmidt_rank(e.vec, 4, 3)
        assert qs.schmidt_rank(v1, 4, 4) <= sr0 + 1


def test_lift_checks_the_core_through_the_extension_once(spy):
    """lift_decomposition runs one Gram sum, of the lifted edges against the
    extension, and that check refuses a wrong core vector or weight."""
    pipe = co.rho_4x5()
    vecs = [e.vec for e in pipe.stage1.edges]
    weights = [e.weight for e in pipe.stage1.edges]
    calls = spy(em, "weighted_gram")
    ex.lift_decomposition(pipe.stage2, "B", 3, vecs, weights)
    assert len(calls) == 1
    for wrong_vecs, wrong_weights in (([vecs[1]] + vecs[1:], weights),
                                      (vecs, [2 * weights[0]] + weights[1:])):
        with pytest.raises(DecompositionMismatch):
            ex.lift_decomposition(pipe.stage2, "B", 3, wrong_vecs, wrong_weights)


# -- extremality ----------------------------------------------------------------------------

def _assert_lift_splits(ext, side, perp, rank_ones):
    """``lift_decomposition`` of the core's LDL* splits ``ext``: the lifted
    vectors sum to the flat extension, and the remainder's LDL* gives
    ``rank_ones`` terms, which sit on the new level in the frame of the
    blocks and, with the lifted vectors, reassemble ``ext``."""
    blocks = ex.split_blocks(ext, side, perp)
    core = _decomposition_of(blocks.core.matrix)
    lifted, remainder = ex.lift_decomposition(ext, side, perp, [v for v, _ in core],
                                              [w for _, w in core])
    parts = _decomposition_of(remainder)
    assert len(parts) == rank_ones
    size = ext.matrix.rows
    flat_edge = blocks.edge - ex.schur_complement(blocks)
    flat = ex.assemble_extension(blocks._replace(edge=flat_edge)).matrix
    assert em.weighted_gram([v for v, _ in lifted], [w for _, w in lifted], size) == flat
    _, new_idx = ex.level_indices(ext.dim_a, ext.dim_b, side, perp)
    for v, _ in parts:
        assert all(not x for i, x in enumerate(v) if i not in new_idx)
    assert flat + em.weighted_gram([v for v, _ in parts], [w for _, w in parts], size) == \
        ext.matrix


def test_extremality_psd_flat_and_perturbed():
    rng = random.Random(6)
    core = random_psd_state(rng, 2, 2)
    R = em.ExactMatrix([[rnd_scalar(rng) for _ in range(2)] for _ in range(4)])
    chi = core.matrix.matmul(R)
    flat = ex.flat_extension(core, chi, "A")
    blocks = ex.split_blocks(flat, "A", 2)
    assert ex.extremality_check_psd(blocks) == (True, "flat extension")
    bumped = ex.ExtensionBlocks(blocks.core, blocks.coupling,
                                blocks.edge + em.diag([1, 0]), "A", 2)
    assert ex.extremality_check_psd(bumped) == (False, "nonzero Schur complement")
    _assert_lift_splits(ex.assemble_extension(bumped), "A", 2, 1)


@pytest.mark.parametrize("stage, side", [("final", "B"), ("stage1", "A")])
def test_extremality_psd_parts_in_the_frame_of_the_blocks(stage, side):
    st = getattr(co.rho_4x5(), stage)
    perp = (st.dim_a if side == "A" else st.dim_b) - 1
    blocks = ex.split_blocks(st, side, perp)
    assert ex.extremality_check_psd(blocks) == (False, "nonzero Schur complement")
    _assert_lift_splits(st, side, perp, em.rank(ex.schur_complement(blocks)))


def test_extremality_psd_zero_core_with_an_edge_of_rank_two():
    """A zero core with an edge of rank above one is not extremal; its split
    is the edge's two rank-one LDL* parts, placed on the new level."""
    core = qs.BipartiteState(1, 2, em.zeros(2, 2), label="0")
    edge = em.ExactMatrix([[2, 1], [1, 2]])
    blocks = ex.ExtensionBlocks(core, em.zeros(2, 2), edge, "A", 1)
    assert ex.extremality_check_psd(blocks) == (False, "edge block of rank above one")
    _assert_lift_splits(ex.assemble_extension(blocks), "A", 1, 2)


def test_extremality_ppt_refuses_an_npt_extension():
    """A direct sum on an NPT core is PSD but not PPT."""
    blocks = ex.ExtensionBlocks(_bell_core(), em.zeros(4, 2),
                                em.ExactMatrix.identity(2), "A", 2)
    with pytest.raises(NotPPT, match="extension is not PPT"):
        ex.extremality_check_ppt(blocks)


def test_extremality_psd_rank_one_edge_with_zero_core():
    core = qs.BipartiteState(1, 2, em.zeros(2, 2), label="0")
    v = em.vector([1, 1])
    blocks = ex.ExtensionBlocks(core, em.zeros(2, 2),
                                em.ExactMatrix.outer(v, v), "A", 1)
    assert ex.extremality_check_psd(blocks).extremal


def test_extremality_ppt_counterexample_not_certified():
    # |phi+><phi+| + (|01><01| + |10><10|)/2, scaled by 2 for exactness:
    # satisfies the trivial range intersection yet decomposes
    M = em.ExactMatrix([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    tau = qs.BipartiteState(2, 2, M, label="bell-plus-products")
    verdict = ex.extremality_check_ppt(ex.split_blocks(tau, "A", 1))
    assert verdict.triv_intersection_ok
    assert verdict.perturbation_dimension == 1
    assert verdict.verdict == "NotCertified"


def test_extremality_ppt_direct_sum_overlap_not_certified():
    core = qs.BipartiteState(1, 2, em.ExactMatrix.identity(2), label="c")
    blocks = ex.ExtensionBlocks(core, em.zeros(2, 2),
                                em.ExactMatrix.identity(2), "A", 1)
    verdict = ex.extremality_check_ppt(blocks)
    assert not verdict.triv_intersection_ok
    assert verdict.verdict == "NotCertified"


def test_extremality_ppt_product_pair_regression():
    pipe = co.rho_4x5()
    ext = ex.product_pair_extension(pipe.stage1, em.basis_vector(3, 0),
                                    em.basis_vector(4, 2), em.basis_vector(4, 3),
                                    side="B")
    verdict = ex.extremality_check_ppt(ex.split_blocks(ext, "B", 3))
    # frozen regression: trivial range intersection holds, one perturbation direction
    assert verdict.triv_intersection_ok
    assert verdict.perturbation_dimension == 1
    assert verdict.verdict == "NotCertified"


_FROZEN_PPT = [  # stage, side, split level, (trivial range intersection, perturbation dim)
    ("stage1", "A", 3, (False, 2)), ("stage1", "B", 2, (False, 4)),
    ("stage2", "A", 3, (False, 2)), ("stage2", "B", 3, (True, 1)),
    ("stage1", "A", 2, (True, 2)), ("stage2", "A", 2, (True, 1)), ("final", "B", 2, (True, 1)),
]


@pytest.mark.parametrize("stage, side, perp, expected", _FROZEN_PPT,
                         ids=[f"{stage}-{side}-expected{i}"
                              for i, (stage, side, _, _) in enumerate(_FROZEN_PPT)])
def test_extremality_ppt_pipeline_stages_frozen(stage, side, perp, expected):
    """Frozen values, kept under a complex local unitary that mixes levels 0
    and 1 on both sides and fixes the split level.  The rows at level 2 split
    off a level that is not the last."""
    st = getattr(co.rho_4x5(), stage)
    c, s = em.as_scalar(Fraction(3, 5)), em.GaussianRational(0, Fraction(4, 5))

    def mix(d):  # [[c, s], [s, c]] on levels 0 and 1, the identity elsewhere
        rows = em.ExactMatrix.identity(d).tolists()
        rows[0][:2], rows[1][:2] = [c, s], [s, c]
        return em.ExactMatrix(rows)

    op = kron(mix(st.dim_a), mix(st.dim_b))
    rotated = qs.BipartiteState(*st.dims, op.matmul(st.matrix).matmul(em.adjoint(op)), label="rot")
    for state in (st, rotated):
        verdict = ex.extremality_check_ppt(ex.split_blocks(state, side, perp))
        assert (verdict.triv_intersection_ok, verdict.perturbation_dimension) == expected
        assert verdict.verdict == "NotCertified"


def _schur_ranges(blocks):
    """The ranges of the edge Schur complements of an extension and of its
    partial transpose on the extended side, in the extension's own frame."""
    side, perp = blocks.side, blocks.perp_index
    ext = ex.assemble_extension(blocks)
    pt = qs.BipartiteState._raw(*ext.dims, ext.partial_transpose(side), "pt")
    return [em.column_space(ex.schur_complement(ex.split_blocks(s, side, perp)))
            for s in (ext, pt)]


def test_extremality_ppt_intersection_matches_the_oracle():
    """The direct-sum decision of ``extremality_check_ppt`` says the two edge
    Schur complements' ranges meet only in 0 exactly when the stacked-kernel
    intersection of the ranges is 0, on the frozen pipeline splits and on
    splits of seeded separable states of 2x2 to 3x3 on either side."""
    rng = random.Random(13)
    pipe = co.rho_4x5()
    cases = [ex.split_blocks(getattr(pipe, stage), side, perp)
             for stage, side, perp, _ in _FROZEN_PPT]
    for _ in range(30):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        vecs = [em.kron_vec(tuple(rnd_scalar(rng) for _ in range(m)),
                            tuple(rnd_scalar(rng) for _ in range(n)))
                for _ in range(rng.randint(1, 4))]
        st = qs.BipartiteState(m, n, em.weighted_gram(vecs, [1] * len(vecs), m * n), label="sep")
        side = rng.choice("AB")
        cases.append(ex.split_blocks(st, side, rng.randrange(m if side == "A" else n)))
    seen = set()
    for blocks in cases:
        r1, r2 = _schur_ranges(blocks)
        triv = ex.extremality_check_ppt(blocks).triv_intersection_ok
        assert triv == (intersection_via_stacked_kernel(r1, r2).dim == 0)
        seen.add(triv)
    assert seen == {True, False}


def test_extremality_ppt_slocc_extension_certified():
    st = ex.slocc_extension(co.rho_3x3(), em.basis_vector(3, 0), "A")
    verdict = ex.extremality_check_ppt(ex.split_blocks(st, "A", 3))
    assert verdict.verdict == "Extremal"


# -- witness peel ------------------------------------------------------------------------------

def test_witness_peel_block_diagonal():
    rng = random.Random(7)
    Wc = em.ExactMatrix([[1, em.I_UNIT], [-em.I_UNIT, 2]])  # on 1x2 core of a 2x2 split
    We = em.diag([1, 2])
    W = ex.assemble_matrix(Wc, em.zeros(2, 2), We, (1, 2), "A", 1)
    peeled, psd_part = ex.witness_schur_peel(W, (2, 2), "A", 1)
    assert peeled == Wc
    assert em.psd_check(psd_part).is_psd
    back_core, back_chi, back_edge, _ = ex.split_matrix(psd_part, 2, 2, "A", 1)
    assert em.is_zero(back_core) and em.is_zero(back_chi) and back_edge == We


def test_witness_peel_invertible_edge_identity():
    rng = random.Random(8)
    for _ in range(10):
        We_root = em.ExactMatrix([[rnd_scalar(rng) for _ in range(2)] for _ in range(2)])
        We = We_root.matmul(em.adjoint(We_root)) + em.ExactMatrix.identity(2)
        chi = em.ExactMatrix([[rnd_scalar(rng) for _ in range(2)] for _ in range(2)])
        A = em.ExactMatrix([[rnd_scalar(rng) for _ in range(2)] for _ in range(2)])
        Wc = A + em.adjoint(A)
        W = ex.assemble_matrix(Wc, chi, We, (1, 2), "A", 1)
        peeled, psd_part = ex.witness_schur_peel(W, (2, 2), "A", 1)
        assert em.psd_check(psd_part).is_psd


def test_witness_peel_refuses_a_non_hermitian_witness():
    """One entry of the core block off its Hermitian place: the blocks would
    peel (identity edge, zero coupling), but the witness is refused."""
    W = em.ExactMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotHermitian, match="witness must be Hermitian"):
        ex.witness_schur_peel(W, (2, 2), "A", 1)


def test_witness_peel_range_violation():
    Wc = em.ExactMatrix.identity(2)
    chi = em.ExactMatrix([[1, 0], [0, 1]])
    We = em.diag([1, 0])  # R(chi*) not inside R(We)
    W = ex.assemble_matrix(Wc, chi, We, (1, 2), "A", 1)
    with pytest.raises(RangeViolation):
        ex.witness_schur_peel(W, (2, 2), "A", 1)


def test_extension_space_complex_covariance_and_completions():
    """Complex local rotations preserve the solution dimension, and every
    basis coupling admits an exactly-PPT completion (the semantic ground
    truth of the constraint system, exercising the conjugation conventions)."""
    A = em.ExactMatrix([[1, em.I_UNIT, 0],
                        [0, 1, em.GaussianRational(0, Fraction(1, 2))],
                        [0, 0, 1]])
    B = em.ExactMatrix([[1, 0, em.GaussianRational(1, -1)],
                        [0, 1, 0],
                        [0, em.GaussianRational(0, -1), 1]])
    assert em.rank(A) == 3 and em.rank(B) == 3
    op = kron(A, B)
    expectations = [(co.tiles_complement(), 3), (co.rho_3x3(), 7)]
    for base, dim in expectations:
        mat = op.matmul(base.matrix).matmul(em.adjoint(op))
        rot = qs.BipartiteState(3, 3, mat, label=f"{base.label}-rotated")
        assert em.psd_check(rot.partial_transpose("A")).is_psd
        space = ex.ppt_extension_space(rot)
        assert space.dimension == dim
        zero_edge = em.zeros(3, 3)
        for w in space.solution_space.basis:
            chi = em.ExactMatrix([[w[ab * 3 + c] for c in range(3)] for ab in range(9)])
            # the partial transpose's coupling, read off the transposed operator
            pt0 = qs.partial_transpose_matrix(
                ex.assemble_matrix(rot.matrix, chi, zero_edge, (3, 3), "A", 3), 4, 3, "A")
            rho_ta, X, _, _ = ex.split_matrix(pt0, 4, 3, "A", 3)
            assert rho_ta == rot.partial_transpose("A")
            K1 = em.solve_on_range_matrix(rot.matrix, chi)
            K2 = em.solve_on_range_matrix(rho_ta, X)
            edge = em.adjoint(chi).matmul(K1) + em.adjoint(X).matmul(K2)
            ext = ex.assemble_extension(ex.ExtensionBlocks(rot, chi, edge, "A", 3))
            pt = qs.partial_transpose_matrix(ext.matrix, 4, 3, "A")
            assert em.psd_check(pt).is_psd
