"""Exact scalar, matrix, and subspace layer."""

import contextlib
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptlab import exactmat as em
from pptlab import numlab as nl
from pptlab.errors import DimensionMismatch, NotHermitian, RangeViolation

from oracles import intersection_via_stacked_kernel, kron


def rnd_scalar(rng, span=3, den=3):
    return em.GaussianRational(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                               Fraction(rng.randint(-span, span), rng.randint(1, den)))


def rnd_matrix(rng, rows, cols, **kw):
    return em.ExactMatrix([[rnd_scalar(rng, **kw) for _ in range(cols)] for _ in range(rows)])


def rnd_hermitian(rng, n, **kw):
    A = rnd_matrix(rng, n, n, **kw)
    return A + em.adjoint(A)


# -- scalars ------------------------------------------------------------------

def test_scalar_field_axioms():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rnd_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
    z = rnd_scalar(rng)
    assert z.conj().conj() == z


def test_scalar_canonical_and_hash():
    z = em.GaussianRational(Fraction(2, 4), Fraction(0, 5))
    assert z.re == Fraction(1, 2) and z.im == 0
    assert z == Fraction(1, 2)
    assert hash(em.GaussianRational(3)) == hash(3)


def test_abs2_real_nonnegative():
    rng = random.Random(1)
    for _ in range(50):
        z = rnd_scalar(rng)
        n2 = z.abs2()
        assert n2 >= 0
        w = z * z.conj()
        assert w.im == 0 and w.re == n2


def test_scalar_serialization_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        z = rnd_scalar(rng, span=7, den=9)
        assert em.parse_scalar(em.format_scalar(z)) == z
    assert em.format_scalar(em.GaussianRational(Fraction(1, 2))) == "1/2"
    assert em.format_scalar(em.GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4 i"
    assert em.parse_scalar("3") == em.GaussianRational(3)


@given(st.fractions(), st.fractions())
def test_parse_scalar_inverts_format_scalar(re, im):
    z = em.GaussianRational(re, im)
    assert em.parse_scalar(em.format_scalar(z)) == z


def test_parse_scalar_exponent_notation():
    assert em.parse_scalar("1+2e-3 i") == em.GaussianRational(1, Fraction(2, 1000))
    assert em.parse_scalar("1e-3-2E+2 i") == em.GaussianRational(Fraction(1, 1000), -200)
    assert em.parse_scalar("-2e-3 i") == em.GaussianRational(0, Fraction(-2, 1000))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        em.ONE / em.ZERO


def test_zeros_refuses_columns_without_rows():
    """An ``ExactMatrix`` with no rows has no columns, so ``zeros`` refuses
    ``0 x n`` for ``n > 0`` rather than return a ``0 x 0`` matrix."""
    assert [em.zeros(*shape).shape for shape in ((0, 0), (3, 0), (2, 3))] == \
        [(0, 0), (3, 0), (2, 3)]
    with pytest.raises(DimensionMismatch, match="no 0x3 matrix"):
        em.zeros(0, 3)


# -- rank and kernel ------------------------------------------------------------

def test_rank_zero_matrix():
    r, kern = em.rank_and_kernel(em.zeros(3, 3))
    assert r == 0 and kern.dim == 3


def test_rank_kernel_dimension_sum():
    rng = random.Random(3)
    for _ in range(30):
        M = rnd_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, kern = em.rank_and_kernel(M)
        assert r + kern.dim == M.cols
        for v in kern.basis:
            assert em.is_zero_vector(M.matvec(v))


def test_rank_invariant_under_adjoint_and_conjugate():
    rng = random.Random(4)
    for _ in range(20):
        M = rnd_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        r = em.rank(M)
        assert r == em.rank(em.adjoint(M)) == em.rank(em.conjugate(M))


# -- psd_check ------------------------------------------------------------------

def test_psd_identity():
    assert em.psd_check(em.ExactMatrix.identity(2)).is_psd


def test_psd_symmetric_indefinite_example():
    M = em.ExactMatrix([[1, 2], [2, 1]])
    res = em.psd_check(M)
    assert not res.is_psd
    v = res.witness
    val = em.vdot(v, M.matvec(v))
    assert val.im == 0 and val.re < 0 and val.re == res.witness_value
    # the textbook witness evaluates to -2
    w = em.vector([1, -1])
    assert em.vdot(w, M.matvec(w)) == -2


def test_psd_requires_hermitian():
    with pytest.raises(NotHermitian):
        em.psd_check(em.ExactMatrix([[0, 1], [0, 0]]))


def test_is_hermitian_matches_the_entrywise_definition():
    """``psd_check``'s Hermitian test on integer rows agrees with ``M[i][j]
    == conj(M[j][i])`` on Gaussian-rational matrices, Hermitian or with one
    entry changed: it raises ``NotHermitian`` exactly when they differ."""
    rng = random.Random(11)
    with pytest.raises(NotHermitian):
        em.psd_check(em.ExactMatrix([[1, 2, 3], [2, 1, 0]]))
    assert em.psd_check(em.ExactMatrix([])).is_psd
    for _ in range(60):
        n = rng.randint(1, 5)
        M = rnd_hermitian(rng, n, den=7)
        rows = [list(M.row(i)) for i in range(n)]
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rows[i][j] + rnd_scalar(rng, den=3)
        M = em.ExactMatrix(rows)
        entrywise = all(rows[i][j] == rows[j][i].conj() for i in range(n) for j in range(n))
        if entrywise:
            em.psd_check(M)
        else:
            with pytest.raises(NotHermitian):
                em.psd_check(M)


def test_psd_gram_reconstruction():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        B = rnd_matrix(rng, n, rng.randint(1, n))
        G = B.matmul(em.adjoint(B))
        res = em.psd_check(G)
        assert res.is_psd
        assert em.weighted_gram(res.columns, [d for _, d in res.pivots], n) == G
        assert all(d > 0 for _, d in res.pivots)


def test_psd_zero_pivot_with_coupling_detected():
    # [[0, 1], [1, 1]] has a zero diagonal coupled off-diagonally
    M = em.ExactMatrix([[0, 1], [1, 1]])
    res = em.psd_check(M)
    assert not res.is_psd
    assert em.vdot(res.witness, M.matvec(res.witness)).re < 0


def test_psd_float_cross_validation():
    """Exact verdicts agree with floating-point spectra on random matrices."""
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            B = rnd_matrix(rng, n, rng.randint(1, n), span=5, den=5)
            M = B.matmul(em.adjoint(B))
        else:
            M = rnd_hermitian(rng, n, span=5, den=5)
        verdict = em.psd_check(M).is_psd
        eigmin = float(np.linalg.eigvalsh(nl.complex_matrix(M)).min()) if n else 0.0
        assert verdict == (eigmin >= -1e-8)


# -- projectors -------------------------------------------------------------------

def test_projector_axis_and_diagonal():
    P = em.orth_projector(em.Subspace(2, [em.basis_vector(2, 0)]))
    assert P == em.diag([1, 0])
    P2 = em.orth_projector(em.Subspace(2, [em.vector([1, 1])]))
    assert all(P2.entry(i, j) == Fraction(1, 2) for i in range(2) for j in range(2))


def test_projector_properties_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        S = em.Subspace(n, [tuple(rnd_scalar(rng) for _ in range(n)) for _ in range(k)])
        P = em.orth_projector(S)
        assert P.matmul(P) == P
        assert em.adjoint(P) == P
        assert em.trace(P) == S.dim
        for b in S.basis:
            assert P.matvec(b) == b


def test_kernel_plus_corange_projectors_sum_to_identity():
    rng = random.Random(8)
    for _ in range(15):
        M = rnd_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        _, kern = em.rank_and_kernel(M)
        corange = em.column_space(em.adjoint(M))
        P = em.orth_projector(kern) + em.orth_projector(corange)
        assert P == em.ExactMatrix.identity(M.cols)


# -- solve_on_range_matrix ----------------------------------------------------------

def test_solve_identity_and_diagonal():
    B = em.ExactMatrix([[3, 1], [Fraction(-1, 2), 0]])
    assert em.solve_on_range_matrix(em.ExactMatrix.identity(2), B) == B
    A = em.diag([1, 0])
    B = em.ExactMatrix([[2, 0], [0, 0]])
    assert em.solve_on_range_matrix(A, B) == B
    with pytest.raises(RangeViolation):
        em.solve_on_range_matrix(A, em.ExactMatrix([[0], [1]]))


def test_solve_reproduces_rhs_and_minimal_norm():
    """``A X = B`` on random systems; on rank-deficient Hermitian PSD ``A``
    the particular solution gives the pseudoinverse's ``Y* X`` for every
    ``Y`` with columns in R(A), which is all its callers read."""
    rng = random.Random(9)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = rnd_matrix(rng, rows, cols)
        B = A.matmul(rnd_matrix(rng, cols, rng.randint(1, 3)))
        assert A.matmul(em.solve_on_range_matrix(A, B)) == B
    for _ in range(25):
        n = rng.randint(2, 4)
        G = rnd_matrix(rng, n, rng.randint(1, n - 1))
        A = G.matmul(em.adjoint(G))         # rank below n
        R = rnd_matrix(rng, n, rng.randint(1, 3))
        Y = A.matmul(rnd_matrix(rng, n, rng.randint(1, 3)))
        X = em.solve_on_range_matrix(A, A.matmul(R))
        assert A.matmul(X) == A.matmul(R)
        assert em.adjoint(Y).matmul(X) == em.adjoint(Y).matmul(R)


# -- subspaces -----------------------------------------------------------------------

def test_subspace_canonical_equality():
    U = em.Subspace(3, [em.vector([1, 1, 0]), em.vector([0, 0, 1])])
    V = em.Subspace(3, [em.vector([2, 2, 2]), em.vector([0, 0, -5])])
    assert U == V
    assert em.in_subspace(U, em.vector([3, 3, 7]))
    assert not em.in_subspace(U, em.vector([1, 0, 0]))


def test_intersection_examples():
    """The stacked-kernel intersection that the extension tests compare
    against: known intersections, and at least ``U.dim + V.dim - n``
    dimensions on random pairs."""
    full = em.Subspace(2, [em.basis_vector(2, 0), em.basis_vector(2, 1)])
    assert intersection_via_stacked_kernel(full, full) == full
    U = em.Subspace(2, [em.basis_vector(2, 0)])
    V = em.Subspace(2, [em.basis_vector(2, 1)])
    assert intersection_via_stacked_kernel(U, V).dim == 0
    U = em.Subspace(3, [em.basis_vector(3, 0), em.basis_vector(3, 1)])
    V = em.Subspace(3, [em.basis_vector(3, 1), em.basis_vector(3, 2)])
    assert intersection_via_stacked_kernel(U, V).basis == (em.basis_vector(3, 1),)
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 4)
        U = em.Subspace(n, [tuple(rnd_scalar(rng) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        V = em.Subspace(n, [tuple(rnd_scalar(rng) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        assert intersection_via_stacked_kernel(U, V).dim >= U.dim + V.dim - n


def test_annihilator_rows_cut_out_the_subspace():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 5)
        S = em.Subspace(n, [tuple(rnd_scalar(rng) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        rows = em.annihilator(S)
        assert len(rows) == n - S.dim
        for r in rows:
            for b in S.basis:
                assert sum((x * y for x, y in zip(r, b)), em.ZERO) == 0
        if rows:
            assert em.rank_and_kernel(em.ExactMatrix(rows))[1] == S
        else:
            assert S.dim == n


def test_matrix_kron_and_outer():
    a = em.ExactMatrix([[1, 2], [3, 4]])
    i2 = em.ExactMatrix.identity(2)
    k = kron(a, i2)
    assert k.entry(0, 0) == 1 and k.entry(1, 1) == 1 and k.entry(0, 2) == 2
    u = em.vector([1, em.I_UNIT])
    P = em.ExactMatrix.outer(u, u)
    assert P == em.adjoint(P)
    assert P.entry(0, 1) == em.GaussianRational(0, -1)


gaussian_rationals = st.builds(
    lambda a, b, c, d: em.GaussianRational(Fraction(a, b), Fraction(c, d)),
    st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4), st.integers(1, 3))


@st.composite
def gram_terms(draw):
    dim = draw(st.integers(0, 5))
    count = draw(st.integers(0, 4))
    vecs = [tuple(draw(st.lists(gaussian_rationals, min_size=dim, max_size=dim)))
            for _ in range(count)]
    weights = draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                            min_size=count, max_size=count))
    return vecs, weights, dim


@settings(max_examples=150, deadline=None)
@given(gram_terms())
def test_weighted_gram_matches_dense_outer_sum(terms):
    vecs, weights, dim = terms
    reference = em.zeros(dim, dim)
    for v, w in zip(vecs, weights):
        reference = reference + em.ExactMatrix.outer(v, v).scale(w)
    assert em.weighted_gram(vecs, weights, dim) == reference


def test_weighted_gram_rejects_mismatched_inputs():
    v = em.vector([1, 2, 0])
    with pytest.raises(DimensionMismatch):
        em.weighted_gram([v], [1], 4)
    with pytest.raises(DimensionMismatch):
        em.weighted_gram([v, v], [1], 3)
    with pytest.raises(DimensionMismatch):
        em.weighted_gram([v], [1, 1], 3)


def test_projector_onto_rho3x3_range_has_trace_five():
    from pptlab import constructions as co

    P = em.orth_projector(em.column_space(co.rho_3x3().matrix))
    assert em.trace(P) == 5  # trace of a projector equals the rank


# -- the integer kernel: properties of RREF and LDL* ----------------------------

def _big_fractions(bits):
    """Rationals with numerators and denominators of up to ``bits`` bits,
    zero included, so that rows need scaling and elimination meets long ints."""
    return st.builds(Fraction, st.integers(-(1 << bits), 1 << bits),
                     st.integers(1, 1 << bits))


@st.composite
def gaussian_rows(draw, max_rows=5, max_cols=6):
    """Rows of Gaussian rationals, some of them combinations of the others
    (rank-deficient), with entries of up to 1100 bits in some draws."""
    bits = draw(st.sampled_from((2, 8, 1100)))
    complex_entries = draw(st.booleans())
    ncols = draw(st.integers(1, max_cols))
    part = st.one_of(st.just(Fraction(0)), _big_fractions(bits))

    def scalar():
        return em.GaussianRational(draw(part), draw(part) if complex_entries else 0)

    rows = [tuple(scalar() for _ in range(ncols)) for _ in range(draw(st.integers(1, max_rows)))]
    for _ in range(draw(st.integers(0, 2))):     # dependent rows
        a, b = scalar(), scalar()
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append(tuple(a * x + b * y for x, y in zip(rows[i], rows[j])))
    return rows


def _to_sympy(z):
    import sympy
    return sympy.Rational(z.re.numerator, z.re.denominator) \
        + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)


def _from_sympy(x):
    import sympy
    re, im = sympy.expand(x).as_real_imag()
    return em.GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


@settings(max_examples=30, deadline=None)
@given(gaussian_rows())
def test_rref_matches_sympy(rows):
    """The canonical basis is sympy's reduced row echelon form, pivots included."""
    import sympy
    ncols = len(rows[0])
    with _sympy_long_ints():
        ref, pivots = sympy.Matrix([[_to_sympy(z) for z in row] for row in rows]).rref()
    want = tuple(tuple(_from_sympy(ref[i, j]) for j in range(ncols)) for i in range(len(pivots)))
    S = em.Subspace(ncols, rows)
    assert S.basis == want
    assert [next(j for j, x in enumerate(b) if x) for b in S.basis] == list(pivots)
    rank, kern = em.rank_and_kernel(em.ExactMatrix(rows))
    assert rank == len(pivots) and kern.dim == ncols - rank
    for v in kern.basis:
        assert em.is_zero_vector(em.ExactMatrix(rows).matvec(v))


@contextlib.contextmanager
def _sympy_long_ints():
    """Lift Python's int-to-text digit limit while sympy runs: converting a
    rational matrix to the integers, sympy formats each rejected entry into
    its ``CoercionFailed`` message, and ``str`` of a long entry raises
    ``ValueError`` before sympy can fall back to the rationals."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _sympy_subspace(vectors, n):
    """The canonical subspace of sympy vectors, through sympy's own RREF."""
    import sympy
    if not vectors:
        return em.Subspace(n, ())
    with _sympy_long_ints():
        ref, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return em._canonical_subspace(n, [tuple(_from_sympy(ref[i, j]) for j in range(n))
                                      for i in range(len(pivots))])


@settings(max_examples=40, deadline=None)
@given(gaussian_rows(), st.data())
def test_elimination_entry_points_match_sympy(rows, data):
    """``rank``, ``rank_and_kernel`` and ``column_space`` of
    complex, rank-deficient matrices with zero rows and long denominators
    equal sympy's rank, null space and column space; every kernel vector
    annihilates every row."""
    import sympy
    rows = list(rows)
    for _ in range(data.draw(st.integers(0, 2))):
        rows.insert(data.draw(st.integers(0, len(rows))), (em.ZERO,) * len(rows[0]))
    m, n = len(rows), len(rows[0])
    M = em.ExactMatrix(rows)
    S = sympy.Matrix([[_to_sympy(z) for z in row] for row in rows])
    with _sympy_long_ints():
        s_rank, s_null, s_cols = S.rank(), S.nullspace(), S.columnspace()
    rank, kern = em.rank_and_kernel(M)
    assert em.rank(M) == rank == s_rank
    assert kern == _sympy_subspace(s_null, n)
    for v in kern.basis:
        assert em.is_zero_vector(M.matvec(v))
    assert em.column_space(M) == _sympy_subspace(s_cols, m)


@settings(max_examples=60, deadline=None)
@given(gaussian_rows(), st.data())
def test_rref_invariant_under_row_operations_and_scaling(rows, data):
    """Row swaps, row scalings and row additions leave the canonical basis alone."""
    S = em.Subspace(len(rows[0]), rows)
    work = list(rows)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(work) - 1))
        j = data.draw(st.integers(0, len(work) - 1))
        c = em.GaussianRational(data.draw(_big_fractions(40).filter(bool)),
                                data.draw(_big_fractions(40)))
        op = data.draw(st.sampled_from(("swap", "scale", "add")))
        if op == "swap":
            work[i], work[j] = work[j], work[i]
        elif op == "scale":
            work[i] = tuple(c * x for x in work[i])
        elif i != j:
            work[i] = tuple(x + c * y for x, y in zip(work[i], work[j]))
    assert em.Subspace(len(rows[0]), work) == S


@settings(max_examples=60, deadline=None)
@given(gaussian_rows(max_rows=5, max_cols=5), st.booleans())
def test_psd_check_pivots_or_witness(rows, gram):
    """PSD: positive pivots, unit columns and an exact reconstruction.  Not
    PSD: a witness with ``<v|M|v> = witness_value < 0``."""
    B = em.ExactMatrix(rows)
    M = em.adjoint(B).matmul(B)
    M = M if gram else M - em.ExactMatrix.identity(B.cols)
    res = em.psd_check(M)
    if gram:
        assert res.is_psd
    if res.is_psd:
        assert all(d > 0 for _, d in res.pivots)
        assert all(col[i] == 1 for (i, _), col in zip(res.pivots, res.columns))
        assert em.weighted_gram(res.columns, [d for _, d in res.pivots], M.rows) == M
    else:
        value = em.vdot(res.witness, M.matvec(res.witness))
        assert value.im == 0 and value.re == res.witness_value < 0


def test_psd_check_zero_diagonal_witness_on_scaled_entries():
    """A zero diagonal with a coupling, on entries with denominators: the
    witness value is exact in the original scale."""
    M = em.ExactMatrix([[Fraction(1, 3), 0, Fraction(1, 6)],
                        [0, 0, em.GaussianRational(Fraction(2, 7), Fraction(-1, 5))],
                        [Fraction(1, 6), em.GaussianRational(Fraction(2, 7), Fraction(1, 5)), 0]])
    res = em.psd_check(M)
    assert not res.is_psd
    value = em.vdot(res.witness, M.matvec(res.witness))
    assert value.im == 0 and value.re == res.witness_value < 0


@st.composite
def long_gram_terms(draw):
    """Vectors with parts of up to 1100 bits, real or complex, and rational
    weights as long, zero entries and zero weights included, as in a
    replayed LDL* factorization."""
    part = _big_fractions(draw(st.sampled_from((2, 64, 1100))))
    scalar = st.one_of(st.just(em.ZERO), st.builds(em.GaussianRational, part),
                       st.builds(em.GaussianRational, part, part))
    dim = draw(st.integers(0, 5))
    count = draw(st.integers(0, 4))
    vecs = [tuple(draw(st.lists(scalar, min_size=dim, max_size=dim))) for _ in range(count)]
    weights = draw(st.lists(part, min_size=count, max_size=count))
    return vecs, weights, dim


@settings(max_examples=80, deadline=None)
@given(long_gram_terms())
def test_weighted_gram_on_long_entries_matches_dense_outer_sum(terms):
    """The integer-kernel Gram sum equals the dense outer-product reference on
    entries whose denominators differ from vector to vector."""
    vecs, weights, dim = terms
    reference = em.zeros(dim, dim)
    for v, w in zip(vecs, weights):
        reference = reference + em.ExactMatrix.outer(v, v).scale(w)
    assert em.weighted_gram(vecs, weights, dim) == reference
