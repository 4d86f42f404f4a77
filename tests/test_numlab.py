"""Floating-point sampling laboratory."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pptlab import cli
from pptlab import constructions as co
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import numlab as nl
from pptlab import qstates as qs
from pptlab import serialize as se
from pptlab.errors import (ConvergenceFailure, DimensionMismatch, NotPsd, PreconditionViolation,
                           RankAmbiguity)

from oracles import linear_form_matrix


def test_random_hermitian_deterministic_and_hermitian():
    a = nl.random_hermitian(5, 42)
    b = nl.random_hermitian(5, 42)
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.conj().T)  # exactly, by construction
    assert nl.random_hermitian(1, 0).shape == (1, 1)
    with pytest.raises(DimensionMismatch):
        nl.random_hermitian(0, 0)


@pytest.mark.parametrize("seed", [-5, -1, True, False, 5.0, "5", np.int64(5), None])
def test_a_seed_that_is_no_int_of_at_least_0_is_refused(seed, monkeypatch):
    """``random.Random`` folds -5 onto 5 and hashes a str, float or None
    seed; both entry points refuse such a seed, naming it, before sampling."""
    monkeypatch.setattr(nl, "gauss_newton_lockstep", None)  # no survey row is sampled
    with pytest.raises(PreconditionViolation, match=f"^seed {re.escape(repr(seed))} is not an int"):
        nl.random_hermitian(3, seed)
    with pytest.raises(PreconditionViolation, match=f"^seed {re.escape(repr(seed))} is not an int"):
        nl.unextendibility_survey([(3, 3)], [(4, 4)], samples=1, seed=seed)


def test_random_hermitian_moments():
    samples = np.stack([nl.random_hermitian(3, seed) for seed in range(10_000)])
    means = samples.mean(axis=0)
    # entry means vanish within 5 sigma / sqrt(N); diagonal variance 1,
    # off-diagonal real part variance 1/2
    assert np.all(np.abs(means) < 5 / np.sqrt(10_000) * 1.1)
    # each variance within 5 standard errors: a normal part of variance v
    # has a sample variance with standard error v sqrt(2 / (N - 1))
    off = ~np.eye(3, dtype=bool)
    for part, want in ((samples.real, np.where(off, 0.5, 1.0)), (samples.imag[:, off], 0.5)):
        assert np.all(np.abs(part.var(axis=0, ddof=1) - want)
                      < 5 * want * np.sqrt(2 / (10_000 - 1)))
    assert not samples.imag[:, ~off].any()  # a real diagonal


def test_eig_matches_exact_characteristic_roots():
    """Eigenvalues agree with exact-layer PSD structure on rational matrices."""
    import random
    rng = random.Random(11)
    for _ in range(10):
        B = em.ExactMatrix([[em.GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(3)] for _ in range(3)])
        G = B.matmul(em.adjoint(B))
        w = np.linalg.eigvalsh(nl.complex_matrix(G))
        res = em.psd_check(G)
        assert res.is_psd
        assert np.all(w >= -1e-9)
        assert np.sum(np.abs(w) > 1e-9) == len(res.pivots)


def test_gauss_newton_full_birank_immediate():
    st = nl.gauss_newton_birank(2, 2, 4, 4, seed=3)
    assert st.iterations == 0
    assert st.residual == 0.0


def _assert_sample_or_failure(out, m, n):
    """``out`` is a :class:`ConvergenceFailure` or a trace-one sample with no
    eigenvalue below ``-DEFAULT_TOL``, on either side."""
    if isinstance(out, ConvergenceFailure):
        return
    assert abs(np.trace(out.matrix).real - 1) <= 1e-9
    for x in (out.matrix, nl.partial_transpose_np(out.matrix, m, n)):
        assert np.linalg.eigvalsh(x).min() >= -nl.DEFAULT_TOL


@pytest.mark.parametrize("m, n, p, q", [(2, 2, 2, 1), (3, 3, 3, 3)])
def test_no_sample_collapses_to_zero(m, n, p, q):
    """Every trial point is scaled to trace one, so a step towards 0 cannot
    shrink every eigenvalue at once into a "converged" zero matrix."""
    for out in nl.gauss_newton_lockstep(m, n, p, q, range(3)):
        _assert_sample_or_failure(out, m, n)


@pytest.mark.parametrize("m, n, p, q, seeds, side", [
    (3, 3, 9, 9, range(10), None),
    (3, 3, 8, 9, range(10), None),
    (3, 3, 9, 4, [0], "the state"),
    (3, 3, 4, 9, [0, 1], "its partial transpose")])
def test_an_undriven_side_must_be_psd(m, n, p, q, seeds, side):
    """At p = mn (or q = mn) nothing drives the eigenvalues of that side: it
    starts positive definite, and a sample that leaves it with a negative
    eigenvalue is a failure that names the side."""
    outs = nl.gauss_newton_lockstep(m, n, p, q, seeds)
    for out in outs:
        _assert_sample_or_failure(out, m, n)
    if side is None:
        assert all(isinstance(out, nl.FloatState) for out in outs)
    else:
        assert all(isinstance(out, ConvergenceFailure) and
                   str(out).startswith(f"birank ({p},{q}) drives no eigenvalue of {side}, "
                                       "which has eigenvalue -") for out in outs)


def test_gauss_newton_3x3_rank44():
    st = nl.gauss_newton_birank(3, 3, 4, 4, seed=0)
    assert st.residual < 1e-9
    w1 = np.linalg.eigvalsh(st.matrix)
    w2 = np.linalg.eigvalsh(nl.partial_transpose_np(st.matrix, 3, 3))
    assert w1.min() > -1e-10 and w2.min() > -1e-10
    assert np.sum(np.abs(w1) > 1e-7) == 4
    assert np.sum(np.abs(w2) > 1e-7) == 4


def test_gauss_newton_2x4_target():
    ok = 0
    for seed in range(10):
        try:
            st = nl.gauss_newton_birank(2, 4, 7, 8, seed=seed)
        except ConvergenceFailure:
            continue
        assert st.residual < 1e-9
        ok += 1
    assert ok >= 9


def test_gauss_newton_determinism():
    a = nl.gauss_newton_birank(3, 3, 5, 6, seed=9)
    b = nl.gauss_newton_birank(3, 3, 5, 6, seed=9)
    assert np.array_equal(a.matrix, b.matrix)


def test_numeric_extension_dimension_oracle_agreement():
    cases = [
        co.rho_3x3(),
        co.rho_family(2),
        co.tiles_complement(),
        qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm"),
    ]
    for st in cases:
        exact = ex.ppt_extension_space(st).dimension
        numeric = nl.numeric_extension_dimension(nl.from_exact(st))
        assert numeric == exact, st.label


def test_numeric_extension_dimension_sampled():
    st = nl.gauss_newton_birank(3, 3, 4, 4, seed=12)
    assert nl.numeric_extension_dimension(st) == 3


def test_rank_ambiguity_detection():
    # an eigenvalue of 1e-7 sits on the rank tolerance, so the rank is ambiguous
    st = nl.FloatState(2, 2, np.diag([0.5, 0.3, 0.2, 1e-7]).astype(complex), (4, 4), 0.0, 0)
    with pytest.raises(RankAmbiguity):
        nl.numeric_extension_dimension(st)


def test_a_singular_value_on_the_rank_tolerance_is_ambiguous(monkeypatch):
    """rho3x3's range projectors are clear of the tolerance; one singular
    value of the stacked annihilator moved onto it makes the dimension
    ambiguous rather than counted."""
    svd = np.linalg.svd

    def one_on_the_tolerance(a, **kwargs):
        sv = svd(a, **kwargs)
        sv[-1] = nl.DEFAULT_SVD_TOL
        return sv

    monkeypatch.setattr(np.linalg, "svd", one_on_the_tolerance)
    with pytest.raises(RankAmbiguity, match="singular values"):
        nl.numeric_extension_dimension(nl.from_exact(co.rho_3x3()))


def test_rationalize_round_trip():
    converged = []
    for seed in range(10):
        try:
            converged.append(nl.gauss_newton_birank(3, 3, 4, 4, seed=200 + seed))
        except ConvergenceFailure:
            continue
    assert converged
    for st in converged:
        exact = nl.rationalize_to_birank(st)
        assert em.psd_check(exact.matrix).is_psd
        assert em.psd_check(exact.partial_transpose("B")).is_psd


def test_a_rounding_whose_partial_transpose_is_not_psd_raises():
    """The Bell state's partial transpose has eigenvalue -1/2, far below what
    the rounding shift lifts, so rounding it at birank (1, 4) raises NotPsd."""
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    with pytest.raises(NotPsd, match="partial transpose of the rounded state is not PSD"):
        nl.rationalize_to_birank(nl.FloatState(2, 2, bell, (1, 4), 0.0, 0))


def test_rounded_4x4_sample_certifies_with_small_pivots(tmp_path):
    """4x4 birank (7,7), seed 634511: rounded with denominators up to 10**7
    its LDL* pivots reached ~63k bits, past the 4300-digit limit of writing
    an int as text, so `ppt-check` could not write its certificate.  On the
    dyadic grid they stay near 1.2k bits."""
    st = nl.gauss_newton_birank(4, 4, 7, 7, seed=634511)
    exact = nl.rationalize_to_birank(st)
    for mat in (exact.matrix, exact.partial_transpose("B")):
        res = em.psd_check(mat)
        assert res.is_psd
        bits = max(abs(d.numerator).bit_length() + d.denominator.bit_length()
                   for _, d in res.pivots)
        assert bits < 2000
    state_path, cert = tmp_path / "rounded.json", tmp_path / "ppt.json"
    state_path.write_text(json.dumps(se.state_to_json(exact)))
    assert cli.run(["ppt-check", "--state", str(state_path), "--out", str(cert)]) == 0
    assert json.loads(cert.read_text())["verdict"] == "PPT"
    assert cli.run(["verify", str(cert)]) == 0


@pytest.mark.parametrize("m, n, p, q, seed, digest", [
    (3, 3, 4, 4, 200, "359196fbb9f50b7eaf884207f28f91c0145e75938a76ff083523e230dc00f2b7"),
    (4, 4, 7, 7, 634511, "0656126b600d81a1121f1713156dcf0313b052f38d6261f8c99d7a94e95485a5"),
], ids=["3x3-44-200", "4x4-77-634511"])
def test_rounded_samples_pinned(m, n, p, q, seed, digest):
    """The rounded state of a fixed sample is pinned by the SHA-256 of its
    JSON: the exact Gram part and shift must not change a bit.  (The float
    samples come from numpy's LAPACK; a build that moves an entry across a
    point of the 2^-24 grid changes a digest too.  The samples' bits also
    depend on the BLAS thread count, one OpenBLAS thread against two, but
    both digests hold under either.)"""
    exact = nl.rationalize_to_birank(nl.gauss_newton_birank(m, n, p, q, seed=seed))
    text = json.dumps(se.state_to_json(exact))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_survey_empty():
    assert nl.unextendibility_survey([(2, 2)], [(4, 4)], samples=0, seed=0)[0].converged == 0


def test_survey_rank44_and_rank56():
    reports = nl.unextendibility_survey([(3, 3)], [(4, 4), (5, 6)], samples=5, seed=31)
    by_birank = {r.birank: r for r in reports}
    r44 = by_birank[(4, 4)]
    assert r44.converged == 5
    assert set(r44.extension_dims) == {3}
    r56 = by_birank[(5, 6)]
    assert r56.bound == 3
    assert all(d >= 6 for d in r56.extension_dims)
    assert not r56.deviations
    table = nl.survey_table(reports)
    assert "3x" in table and "4, 4" in str(table)


def test_survey_counts_samples_whose_birank_collapsed():
    """Seed 777 at 3x4 (5,6) converges to a sample of numerical ranks (5,5):
    the survey keeps it in every count and reports it as a rank mismatch."""
    report, = nl.unextendibility_survey([(3, 4)], [(5, 6)], samples=1, seed=777)
    assert (report.converged, report.extension_dims, report.deviations) == (1, {3: 1}, [])
    assert report.rank_mismatch == [777]
    assert (report.to_json()["rank_mismatch"], report.to_json()["rank_mismatch_seeds"]) == (1, [777])
    assert nl.survey_table([report]).splitlines()[-1].split()[-1] == "1"


def test_survey_counts_an_ambiguous_sample_in_no_dimension(monkeypatch):
    """A converged sample whose rank is ambiguous counts as converged and as
    ambiguous, and in no extension dimension (here the second of five)."""
    measure, calls = nl.numeric_extension_dimension, []

    def second_ambiguous(state, **kwargs):
        calls.append(state)
        if len(calls) == 2:
            raise RankAmbiguity("forced")
        return measure(state, **kwargs)

    monkeypatch.setattr(nl, "numeric_extension_dimension", second_ambiguous)
    report, = nl.unextendibility_survey([(3, 3)], [(4, 4)], samples=5, seed=0)
    assert (report.converged, report.ambiguous, report.extension_dims) == (5, 1, {3: 4})


def test_survey_table_right_aligns_the_dims_column():
    """Each row's ``MxN`` ends in the column where the header's ``dims``
    ends, one and two digits a side alike (not ``3x   3``)."""
    report, = nl.unextendibility_survey([(3, 3)], [(4, 4)], samples=1, seed=5)
    dims = [(3, 3), (10, 3), (3, 10), (36, 36)]
    lines = nl.survey_table([report._replace(dims=d) for d in dims]).splitlines()
    ends = [len(line) - len(line.lstrip()) + len(line.split()[0]) for line in lines[:1] + lines[2:]]
    assert ends == [6] * 5
    assert [line.split()[0] for line in lines[2:]] == ["3x3", "10x3", "3x10", "36x36"]


def test_survey_of_full_birank_samples_reports_no_mismatch():
    report, = nl.unextendibility_survey([(3, 3)], [(4, 4)], samples=3, seed=5)
    assert report.converged == 3 and report.rank_mismatch == []
    assert report.to_json()["rank_mismatch"] == 0


def test_eigenvalues_match_exact_characteristic_polynomial():
    """Numeric eigenvalues are roots of the exactly computed characteristic
    polynomial of random rational symmetric matrices, homogenized as the
    3x3 minor ``det(x I - y A)`` of a matrix of linear forms."""
    import random
    from fractions import Fraction
    from pptlab import algcert as ac

    rng = random.Random(17)
    ring = ac.PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    for _ in range(10):
        entries = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                   for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                entries[j][i] = entries[i][j]
        sym = linear_form_matrix(ring, [[x.scale(1 if i == j else 0) - y.scale(entries[i][j])
                                         for j in range(3)] for i in range(3)])
        [charpoly] = ac.minor_ideal(sym, 3, ())  # det(xI - yA) is monic in x^3 already
        M = np.array([[float(v) for v in row] for row in entries])
        w = np.linalg.eigvalsh(M)
        scale = max(1.0, np.abs(w).max()) ** 3
        for lam in w:
            val = sum(float(c) * lam ** m[0] for m, c in charpoly.terms.items())
            assert abs(val) <= 1e-9 * scale


def _birank_jacobian_loop(x, eig, m, n, kp, kq):
    """Reference: the Jacobian assembled one row at a time."""
    def grad_to_params(g):
        iu = np.triu_indices(g.shape[0], 1)
        return np.concatenate([np.real(np.diag(g)), 2 * np.real(g[iu]), 2 * np.imag(g[iu])])

    rows, vals = [], []
    for vecs, kk, transpose in ((eig[0], kp, False), (eig[1], kq, True)):
        K = vecs[:, :kk]
        target = nl.partial_transpose_np(x, m, n) if transpose else x
        B = K.conj().T @ target @ K
        for i in range(kk):
            g = np.outer(K[:, i], K[:, i].conj())
            rows.append(grad_to_params(nl.partial_transpose_np(g, m, n) if transpose else g))
            vals.append(B[i, i].real)
            for j in range(i + 1, kk):
                g_re = (np.outer(K[:, j], K[:, i].conj()) + np.outer(K[:, i], K[:, j].conj())) / 2
                g_im = (np.outer(K[:, j], K[:, i].conj()) - np.outer(K[:, i], K[:, j].conj())) / 2j
                for g2, val in ((g_re, B[i, j].real), (g_im, B[i, j].imag)):
                    rows.append(grad_to_params(
                        nl.partial_transpose_np(g2, m, n) if transpose else g2))
                    vals.append(val)
    return np.array(rows), np.array(vals)


@pytest.mark.parametrize("m, n, p, q", [(3, 3, 4, 4), (3, 4, 5, 6), (4, 4, 7, 7), (2, 3, 6, 4)])
def test_batched_jacobian_is_bit_identical_to_the_row_loop(m, n, p, q):
    """The stacked Jacobian does the same IEEE operations as the per-row
    loop, so every entry, and with it every Gauss-Newton step, is equal."""
    size = m * n
    x = np.eye(size, dtype=complex) / size + 0.1 * nl.random_hermitian(size, 5)
    eig = (np.linalg.eigh(x)[1], np.linalg.eigh(nl.partial_transpose_np(x, m, n))[1])
    jac, vals = nl._birank_jacobian(x, eig, m, n, size - p, size - q)
    ref_jac, ref_vals = _birank_jacobian_loop(x, eig, m, n, size - p, size - q)
    assert jac.shape == ((size - p) ** 2 + (size - q) ** 2, size * size)
    assert np.array_equal(jac, ref_jac)
    assert np.array_equal(vals, ref_vals)


def _recorded_steps(monkeypatch, cases):
    """Every ``(jac, rhs)`` the sampler solves along the paths of ``cases``
    (``(m, n, p, q, seed)``), and how many of them went to ``lstsq``."""
    steps, fallbacks = [], []
    solve, lstsq = nl._min_norm_steps, np.linalg.lstsq

    def recording(jac, rhs):
        steps.extend(zip(jac, rhs))
        return solve(jac, rhs)

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(nl, "_min_norm_steps", recording)
    monkeypatch.setattr(np.linalg, "lstsq", counting)
    for m, n, p, q, seed in cases:
        nl.gauss_newton_birank(m, n, p, q, seed=seed)
    monkeypatch.undo()
    return steps, len(fallbacks)


def test_min_norm_step_matches_lstsq_on_sampler_iterates(monkeypatch):
    """On every Jacobian of real 3x3, 3x4 and 4x4 sampler paths, the
    normal-equation step is lstsq's minimum-norm step to 1e-9 relative.  The
    3x4 seeds 1000 and 1003 converge linearly to rank-collapsed samples, where
    J grows ill-conditioned; most steps still skip lstsq."""
    cases = [(3, 3, 4, 4, 1000), (3, 3, 4, 4, 1014), (3, 4, 5, 6, 1000), (3, 4, 5, 6, 1001),
             (3, 4, 5, 6, 1003), (4, 4, 7, 7, 500)]
    steps, fallbacks = _recorded_steps(monkeypatch, cases)
    assert fallbacks < len(steps) / 2
    for jac, rhs in steps:
        ref = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        step, = nl._min_norm_steps(jac[None], rhs[None])
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)


def test_rank_deficient_jacobian_takes_the_lstsq_fallback(monkeypatch):
    """A duplicated row makes J J^T singular: the step is lstsq's."""
    steps, _ = _recorded_steps(monkeypatch, [(3, 4, 5, 6, 1000)])
    jac, rhs = steps[0]
    jac, rhs = np.vstack([jac, jac[3]]), np.append(rhs, rhs[3] + 1e-3)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    step, = nl._min_norm_steps(jac[None], rhs[None])
    assert calls == [1]
    assert np.array_equal(step, lstsq(jac, rhs, rcond=None)[0])


# converged flag, numerical ranks and numeric extension dimension per seed,
# as the sampler produced them when every step came from lstsq
SAMPLER_PINS = [
    ((3, 3, 4, 4), range(1000, 1020), [(4, 4)] * 20, 3),
    ((3, 4, 5, 6), range(1000, 1006), [(5, 5), (5, 6), (5, 6), (5, 5), (5, 5), (5, 5)], 3),
    ((4, 4, 7, 7), range(500, 505), [(7, 7)] * 5, 4),
]


@pytest.mark.parametrize("shape, seeds, ranks, dimension", SAMPLER_PINS,
                         ids=["3x3-44", "3x4-56", "4x4-77"])
def test_sampler_outcomes_are_pinned(shape, seeds, ranks, dimension):
    got = []
    for seed in seeds:
        st = nl.gauss_newton_birank(*shape, seed=seed)   # raises unless converged
        dim, birank = nl.numeric_extension_dimension(st, return_report=True)
        got.append((birank, dim))
    assert got == [(r, dimension) for r in ranks]


def _same_sample(a, b):
    """Bit for bit: the matrix, the residual and the iteration count."""
    return (a.matrix.tobytes() == b.matrix.tobytes() and a.residual.hex() == b.residual.hex()
            and a.iterations == b.iterations)


@pytest.mark.parametrize("shape, seeds", [((3, 3, 4, 4), range(1000, 1020)),
                                          ((3, 4, 5, 6), range(1000, 1006))],
                         ids=["3x3-44x20", "3x4-56x6"])
def test_lockstep_samples_equal_one_seed_at_a_time(monkeypatch, shape, seeds):
    """The survey's shapes, sampled as one lockstep batch, give every seed
    the sample that ``gauss_newton_birank`` gives it alone, bit for bit.
    Both batches take the ``lstsq`` fallback on some steps."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    batch = nl.gauss_newton_lockstep(*shape, seeds)
    assert calls
    assert all(_same_sample(got, nl.gauss_newton_birank(*shape, seed=seed))
               for seed, got in zip(seeds, batch))


def test_samples_past_the_iteration_limit_leave_the_lockstep(monkeypatch):
    """With the limit at 20 iterations, four of the 3x4 (5,6) seeds
    1000-1005 fail (each with the error it raises alone) and leave the
    batch; the two others converge to the samples they converge to alone."""
    monkeypatch.setattr(nl, "DEFAULT_MAX_ITER", 20)
    seeds = range(1000, 1006)
    batch = nl.gauss_newton_lockstep(3, 4, 5, 6, seeds)
    assert [isinstance(got, ConvergenceFailure) for got in batch] == [
        True, True, False, True, False, True]
    for seed, got in zip(seeds, batch):
        if isinstance(got, ConvergenceFailure):
            with pytest.raises(ConvergenceFailure, match=f"^{re.escape(str(got))}$"):
                nl.gauss_newton_birank(3, 4, 5, 6, seed=seed)
            assert str(got).endswith("after 20 iterations")
        else:
            assert _same_sample(got, nl.gauss_newton_birank(3, 4, 5, 6, seed=seed))


def test_one_singular_gram_matrix_changes_no_other_step(monkeypatch):
    """A zero Jacobian row makes one Gram matrix of the stack exactly
    singular, which fails the stacked solve: that sample's step is
    lstsq's, and every other step equals its own batch of one."""
    steps, _ = _recorded_steps(monkeypatch, [(3, 4, 5, 6, 1000)])
    jacs = np.stack([jac for jac, _ in steps[:3]])
    rhs = np.stack([r for _, r in steps[:3]])
    jacs[1, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jacs @ jacs.swapaxes(-1, -2), rhs[..., None])
    got = nl._min_norm_steps(jacs, rhs)
    assert np.array_equal(got[1], np.linalg.lstsq(jacs[1], rhs[1], rcond=None)[0])
    for s in (0, 2):
        alone, = nl._min_norm_steps(jacs[s:s + 1], rhs[s:s + 1])
        assert got[s].tobytes() == alone.tobytes()


@pytest.mark.parametrize("code", [
    "import pptlab.numlab",
    "from pptlab import cli; cli.run(['survey', '--dims', '3x3', '--birank', '4,4', "
    "'--samples', '2', '--json'])",
    "from pptlab import cli; cli.run(['sample', '--dims', '3x3', '--birank', '4,4', '--json'])",
], ids=["import", "survey", "sample"])
def test_the_float_layer_loads_without_the_exact_one(code):
    """numlab, and the survey and sample verbs, load no exact module."""
    check = code + ("\nimport json, sys"
                    "\nprint(json.dumps([m for m in sys.modules if m.startswith('pptlab.')]))")
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         check=True).stdout.splitlines()[-1]
    loaded = set(json.loads(out))
    assert "pptlab.numlab" in loaded
    assert not loaded & {"pptlab.exactmat", "pptlab.qstates", "pptlab.serialize"}


@pytest.mark.parametrize("argv, dims", [
    (["sample", "--dims", "200x200", "--birank", "4,4"], "200x200"),
    (["survey", "--dims", "3x3 200x200", "--birank", "4,4", "--samples", "2"], "200x200"),
    (["sample", "--dims=-2x-2", "--birank", "1,1"], "-2x-2"),
], ids=["sample", "survey", "negative"])
def test_a_sample_past_the_level_bound_exits_2_allocating_nothing(argv, dims, capsys):
    """``numlab.MAX_LEVELS`` is checked before anything is allocated (numpy
    reports its buffers to tracemalloc): a 200x200 sample ended in numpy's
    ``_ArrayMemoryError`` (23.8 GiB), and -2x-2 in a reshape traceback."""
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (2, f"{argv[0]}: DimensionMismatch: dimensions "
                                                  f"{dims} are not 1 to 36 levels in all\n")
    assert peak < 1 << 20


def test_a_survey_checks_every_row_before_it_samples(monkeypatch):
    monkeypatch.setattr(nl, "gauss_newton_lockstep",
                        lambda *args: pytest.fail("a row was sampled before the check"))
    with pytest.raises(DimensionMismatch, match="dimensions 200x200 are not"):
        nl.unextendibility_survey([(3, 3), (200, 200)], [(4, 4)], samples=2, seed=0)


def test_the_level_bound_admits_6x6():
    assert nl.MAX_LEVELS == 36
    assert nl._levels(6, 6) == 36 and nl._levels(1, 36) == 36
    for m, n in ((6, 7), (0, 3), (37, 1)):
        with pytest.raises(DimensionMismatch, match=f"dimensions {m}x{n} are not"):
            nl.gauss_newton_lockstep(m, n, 1, 1, [0])


def _survey_json_and_peak(capsys, argv) -> tuple:
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return capsys.readouterr().out, peak


def test_a_survey_batches_its_samples_by_their_memory(monkeypatch, capsys):
    """A survey row runs the lockstep in batches that fit
    ``SURVEY_BATCH_BYTES``: a 6x6 (12,12) sample stacks 22.6 MB of Gram
    matrix and Jacobian, so it runs in batches of one.  Batches of one 5x5
    (10,10) sample (4.0 MB) keep the peak near one sample's, while the output
    is byte-identical to one batch of all the samples."""
    batches = []
    with monkeypatch.context() as patch:
        patch.setattr(nl, "gauss_newton_lockstep", lambda m, n, p, q, seeds: batches.append(
            (m, n, list(seeds))) or [ConvergenceFailure("not run")] * len(seeds))
        for dims, birank, samples in (((3, 3), (4, 4), 20), ((3, 4), (5, 6), 6),
                                      ((6, 6), (12, 12), 3), ((2, 2), (4, 4), 5)):
            nl.unextendibility_survey([dims], [birank], samples, seed=7)
    # the benchmark's survey rows stay one batch each; a full birank has no
    # Jacobian rows
    assert batches == [(3, 3, list(range(7, 27))), (3, 4, list(range(7, 13))),
                       (6, 6, [7]), (6, 6, [8]), (6, 6, [9]), (2, 2, list(range(7, 12)))]
    argv = ["survey", "--dims", "5x5", "--birank", "10,10", "--samples", "2", "--seed", "0",
            "--json"]
    monkeypatch.setattr(nl, "SURVEY_BATCH_BYTES", 1 << 40)
    together, together_peak = _survey_json_and_peak(capsys, argv)
    monkeypatch.setattr(nl, "SURVEY_BATCH_BYTES", 0)
    alone, alone_peak = _survey_json_and_peak(capsys, argv)
    assert alone == together and json.loads(alone)["reports"][0]["converged"] == 2
    assert alone_peak < 0.8 * together_peak, (alone_peak, together_peak)


def test_a_survey_batch_counts_the_arrays_each_running_sample_holds(monkeypatch):
    """A running sample also holds a dozen complex ``(mn)^2`` arrays: its
    point, partial transpose, eigenvectors, parameters, step and trials.  At
    full birank it has no Jacobian rows, and a 6x6 (36,36) survey used to run
    all its samples in one batch (335 MB peak at 3,000 samples); it now
    splits, while criterion 8's row and the benchmark's rows stay one batch."""
    lengths = []
    monkeypatch.setattr(nl, "gauss_newton_lockstep", lambda m, n, p, q, seeds: lengths.append(
        len(seeds)) or [ConvergenceFailure("not run")] * len(seeds))
    nl.unextendibility_survey([(6, 6)], [(36, 36)], 1500, seed=0)
    assert len(lengths) > 1 and sum(lengths) == 1500
    assert max(lengths) * 12 * 16 * 36 ** 2 <= nl.SURVEY_BATCH_BYTES
    lengths.clear()
    for dims, birank, samples in (((3, 3), (4, 4), 100), ((3, 3), (4, 4), 20),
                                  ((3, 4), (5, 6), 6)):
        nl.unextendibility_survey([dims], [birank], samples, seed=0)
    assert lengths == [100, 20, 6]


@pytest.mark.parametrize("argv, message", [
    (["sample", "--dims", "3x3x3", "--birank", "4,4"], "--dims '3x3x3' is not of the form MxN"),
    (["sample", "--dims", "3x3", "--birank", "4,4,4"], "--birank '4,4,4' is not of the form p,q"),
    (["survey", "--dims", "3x3 3", "--birank", "4,4"], "--dims '3' is not of the form MxN"),
    (["survey", "--dims", "3x3", "--birank", "4,a"], "--birank '4,a' is not of the form p,q"),
], ids=["sample-dims", "sample-birank", "survey-dims", "survey-birank"])
def test_a_malformed_pair_exits_2_naming_its_form(argv, message, capsys):
    """``3x3x3`` and ``4,4,4`` exited 2 with ``ValueError: too many values to
    unpack (expected 2)``."""
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{argv[0]}: {message}, e.g. ") and err.count("\n") == 1


def _run(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)``; a ``SystemExit``
    counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _pair_text(separators, largest: int):
    """A ``--dims`` or ``--birank`` value: two ints up to ``largest`` joined
    by one of ``separators``, or zero to three parts so joined, each such an
    int or a token that is no int or gives a huge size.  With ``largest`` 3
    a ``--dims`` has at most 9 levels, so a valid sample takes milliseconds."""
    small = st.integers(-1, largest).map(str)
    part = small | st.sampled_from(["", " ", "a", "1.5", "1e1", "+2", " 2 ", "x", ",", "999"])
    return st.builds(str.join, st.sampled_from(separators),
                     st.lists(small, min_size=2, max_size=2) | st.lists(part, max_size=3))


@settings(max_examples=80, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(verb=st.sampled_from(["sample", "survey"]),
       dims=st.lists(_pair_text(["x", "X"], 3), min_size=1, max_size=2),
       biranks=st.lists(_pair_text([","], 9), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 70) | st.integers(-2, -1),
       samples=st.integers(1, 2) | st.integers(-1, 0))
def test_the_numeric_verbs_are_total_on_their_options(verb, dims, biranks, seed, samples):
    """Whatever ``--dims``, ``--birank``, ``--seed`` and ``--samples`` hold,
    ``sample`` and ``survey`` (in process, at most 9 levels and 2 samples)
    exit 0 with output, 1 (a sample that does not converge) or 2 with one
    line on stderr, naming the verb, and nothing on stdout."""
    argv = [verb, f"--dims={dims[0] if verb == 'sample' else ' '.join(dims)}",
            f"--birank={biranks[0] if verb == 'sample' else ' '.join(biranks)}",
            f"--seed={seed}"] + ([f"--samples={samples}"] if verb == "survey" else [])
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    if code == 0:
        assert out and err == "", (argv, err)
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith(f"{verb}: "), \
            (argv, code, out, err)
