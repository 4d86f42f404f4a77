"""Floating-point laboratory: random birank-constrained PPT states.

Samples random PPT states with a prescribed birank by driving the smallest
eigenvalues of a random Hermitian matrix and of its partial transpose to
zero with a damped Gauss-Newton iteration, then measures extension-space
dimensions numerically.  A sample has trace one and no eigenvalue below
``-DEFAULT_TOL``, of it or of its partial transpose; its driven ones are
within :data:`DEFAULT_TOL` of zero.  A birank ``(p, q)`` whose ``(mn - p)^2
+ (mn - q)^2`` conditions outnumber the ``(mn)^2`` real parameters of a
Hermitian point is overdetermined (every such target probed converged only
to rank-one product states) and raises :class:`DimensionMismatch` before any
sampling.  Everything here is double precision; the exact layer is the
oracle these routines are validated against.

The calibration is fixed: residual tolerance :data:`DEFAULT_TOL` (1e-10),
at most :data:`DEFAULT_MAX_ITER` (200) iterations with step halving on a
residual increase, and rank tolerance :data:`DEFAULT_SVD_TOL` (1e-7).  The
values were chosen empirically, no caller sets them, and each survey
reports them under ``calibration``.  Each Gauss-Newton step is the
minimum-norm solution of the linearized system, taken from the normal
equations of ``J J^T`` with one refinement step (``J`` has no more rows
than columns); ``lstsq`` (an SVD) is the fallback when ``J J^T`` is
singular or the refinement shows the solve too inaccurate.  A survey draws
a row's seeds in lockstep batches (:func:`gauss_newton_lockstep`), each
sample bit-identical to its own run under the same BLAS thread count: one
OpenBLAS thread and two can give a sample different bits.

Only :func:`from_exact` and :func:`rationalize_to_birank` cross into the
exact layer, and they import it when they run: sampling, surveys and the
counting bound (:func:`pptlab.extension_count_bound`) load no exact module.
"""

from __future__ import annotations

import functools
import math
import statistics
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import extension_count_bound
from .errors import ConvergenceFailure, DimensionMismatch, NotPsd, RankAmbiguity

if TYPE_CHECKING:
    from . import qstates as qs

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_SVD_TOL = 1e-7
_START_NOISE = 0.1
# a normal-equation Gauss-Newton step whose refinement moves it by more than
# this fraction of its norm is replaced by lstsq's; the steps kept agree with
# lstsq's to about 1e-10 relative on the sampler's iterates
_REFINE_LIMIT = 1e-6
# exact rounding of samples snaps factor entries to multiples of 2**-ROUNDING_BITS
# and adds ROUNDING_SHIFT times the identity
ROUNDING_BITS = 24
ROUNDING_SHIFT = Fraction(1, 2 ** 16)
# the most levels (m * n) of a sample, whose Jacobian has up to (mn)^4 entries: one seed
# of `pptlab sample --birank 12,12` at 6x6 (1152 x 1296) took 23 s at 89 MB peak, and
# 7x7 (15,15) (2312 x 2401) ~0.4 s per iteration at 217 MB (2 vCPU)
MAX_LEVELS = 36
# the bytes one lockstep batch of a survey row holds, per sample its Gram matrix, Jacobian and
# 12 complex (mn)^2 arrays: 68 KB at 3x3 (4,4), 249 KB at 6x6 (36,36), 4.0 MB at 5x5 (10,10)
# and 22.8 MB at 6x6 (12,12), which runs alone
SURVEY_BATCH_BYTES = 2 ** 24


class FloatState(NamedTuple):
    """Double-precision Hermitian state with its targeted birank."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    birank_target: tuple
    residual: float
    iterations: int


def random_hermitian(n: int, seed) -> np.ndarray:
    """Random Hermitian matrix: complex normal off-diagonals, real normal
    diagonal.  Deterministic per seed."""
    if n < 1:
        raise DimensionMismatch("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def partial_transpose_np(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on side B of ``x``, or of each matrix of a stack ``x``."""
    return x.reshape(x.shape[:-2] + (m, n, m, n)).swapaxes(-3, -1).reshape(x.shape)


# -- Hermitian real parametrization -----------------------------------------

@functools.lru_cache(maxsize=None)
def _upper(n: int) -> tuple:
    """``np.triu_indices(n, 1)``, built once per ``n``."""
    return np.triu_indices(n, 1)


def _params_to_herm(p: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrix of the real parameters ``p``, or the stack of
    those of each row of ``p``: the diagonal, then the upper triangle's real
    and imaginary parts, the order of :func:`_birank_jacobian`'s columns."""
    iu = _upper(n)
    k = len(iu[0])
    h = np.zeros(p.shape[:-1] + (n, n), dtype=complex)
    h[..., np.arange(n), np.arange(n)] = p[..., :n]
    h[..., iu[0], iu[1]] = p[..., n:n + k] + 1j * p[..., n + k:]
    return h + np.triu(h, 1).conj().swapaxes(-1, -2)


@functools.lru_cache(maxsize=None)
def _entry_positions(m: int, n: int, transpose: bool) -> tuple:
    """Row and column indices into ``G`` of the diagonal, then the upper
    triangle, of ``G`` or, when ``transpose``, of its partial transpose on
    B: entry ``(a1 b1, a2 b2)`` of ``G^Tb`` is entry ``(a1 b2, a2 b1)`` of ``G``."""
    size = m * n
    iu = _upper(size)
    rows = np.concatenate([np.arange(size), iu[0]])
    cols = np.concatenate([np.arange(size), iu[1]])
    if transpose:
        rows, cols = rows - rows % n + cols % n, cols - cols % n + rows % n
    return rows, cols


@functools.lru_cache(maxsize=None)
def _block_rows(kk: int) -> tuple:
    """``(i, j)`` of the pairs ``j > i`` in row-major order, and the row of
    ``(K* X K)_ii``, of ``Re (K* X K)_ij`` and of ``Im (K* X K)_ij`` within
    one block of :func:`_birank_jacobian`."""
    i, j = _upper(kk)
    start = np.concatenate([[0], np.cumsum(2 * (kk - np.arange(kk)) - 1)])[:-1]
    re = start[i] + 2 * (j - i) - 1
    return i, j, start, re, re + 1


def _birank_jacobian(x: np.ndarray, eig, m: int, n: int, kp: int, kq: int):
    """Gauss-Newton rows and residual values for the compressed blocks.

    For each block (``K`` the ``kk`` target eigenvectors of ``X``, then of
    ``X^Tb``), the rows in order are: for each ``i`` the diagonal entry
    ``(K* X K)_ii``, then for each ``j > i`` its real and imaginary parts.
    A row is the parameter gradient of that entry: for ``d lambda = tr(G dX)``
    with Hermitian ``G``, the diagonal of ``G`` gives the diagonal
    derivatives and ``2 Re / 2 Im`` of its upper triangle the off-diagonal
    ones, with ``G`` pulled back through the partial transpose for the
    second block.  All pairs of a block come from one gather: only the
    diagonal and upper-triangle entries of each ``G`` are formed, read
    through the partial transpose where it applies, and each entry is the
    same IEEE expression (``K_j K_i*``, ``K_i K_j*``, their half sum and
    their difference over ``2i``) as for a single outer product.
    """
    size = m * n
    im = size + len(_upper(size)[0])  # first column of the imaginary parts
    jac = np.empty(x.shape[:-2] + (kp * kp + kq * kq, size * size))
    vals = np.empty(jac.shape[:-1])
    lo = 0
    for vecs, kk, transpose in ((eig[0], kp, False), (eig[1], kq, True)):
        if not kk:
            continue
        K = vecs[..., :kk]
        target = partial_transpose_np(x, m, n) if transpose else x
        B = K.conj().swapaxes(-1, -2) @ target @ K
        rows, cols = _entry_positions(m, n, transpose)
        # [..., i, :] = K_i at the rows, K_i* at the cols
        left, right = K[..., rows, :].swapaxes(-1, -2), K[..., cols, :].conj().swapaxes(-1, -2)
        i, j, diag, re, imag = _block_rows(kk)
        ji, ij = left[..., j, :] * right[..., i, :], left[..., i, :] * right[..., j, :]
        for at, g in ((diag, left * right), (re, (ji + ij) / 2), (imag, (ji - ij) / 2j)):
            at = lo + at
            jac[..., at, :size] = g[..., :size].real
            jac[..., at, size:im] = 2 * g[..., size:].real
            jac[..., at, im:] = 2 * g[..., size:].imag
        vals[..., lo + diag] = B.diagonal(axis1=-2, axis2=-1).real
        vals[..., lo + re] = B[..., i, j].real
        vals[..., lo + imag] = B[..., i, j].imag
        lo += kk * kk
    return jac, vals


def _min_norm_steps(jac: np.ndarray, rhs: np.ndarray) -> list:
    """Per sample of the stacks ``jac`` and ``rhs``, the minimum-norm
    solution of ``jac @ step = rhs``: ``jac^T (jac jac^T)^{-1} rhs`` when
    ``jac`` has full row rank, else ``lstsq``'s (an SVD).  :func:`_levels`
    refuses a target with more rows than columns, so no ``jac`` here has them.

    The LU solve of the Gram matrix has an error that grows with its
    condition number, the square of ``jac``'s, so one step of iterative
    refinement follows.  A sample's step is ``lstsq``'s when its Gram matrix
    is singular or the refinement moves its step by more than
    ``_REFINE_LIMIT`` of its norm (the solve was too inaccurate).  One
    singular Gram matrix fails the stacked solve, and then each sample is
    solved alone.
    """
    jac_t = jac.swapaxes(-1, -2)
    gram = jac @ jac_t
    try:
        step = jac_t @ np.linalg.solve(gram, rhs[..., None])
        fix = jac_t @ np.linalg.solve(gram, rhs[..., None] - jac @ step)
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return [np.linalg.lstsq(jac[0], rhs[0], rcond=None)[0]]
        return [out for s in range(len(jac))
                for out in _min_norm_steps(jac[s:s + 1], rhs[s:s + 1])]
    return [a + b if np.linalg.norm(b) <= _REFINE_LIMIT * np.linalg.norm(a)
            else np.linalg.lstsq(j, r, rcond=None)[0]
            for j, r, a, b in zip(jac, rhs, step[..., 0], fix[..., 0])]


def gauss_newton_birank(m: int, n: int, p: int, q: int, seed) -> FloatState:
    """Sample a random PPT state of birank ``(p, q)``: the lockstep batch
    (:func:`gauss_newton_lockstep`) of one ``seed``.

    The convergence residual stacks the ``mn - p`` smallest eigenvalues of
    ``X`` with the ``mn - q`` smallest eigenvalues of ``X^Tb`` into a single
    vector driven to zero.  The Gauss-Newton step additionally zeroes the
    off-diagonal entries of the compressed blocks ``K* X K`` on the target
    eigenspaces: because the target eigenvalues coalesce at zero, per-
    eigenvalue gradients alone stall at linear rate, while the block rows
    (pairwise outer products of eigenvectors, with the partial-transpose
    pullback for the second block) restore quadratic convergence.  The step
    is the minimum-norm solution of the linearized system, from the normal
    equations ``J^T (J J^T)^{-1} (-values)``, or from ``lstsq`` when ``J J^T``
    is singular or too ill-conditioned for them (:func:`_min_norm_steps`).
    Steps are halved while the max eigenvalue residual increases, for at
    most :data:`DEFAULT_MAX_ITER` steps, until the residual is below
    :data:`DEFAULT_TOL`; past that it raises :class:`ConvergenceFailure`.
    The sample has trace one (each trial point is divided by its trace) and
    no eigenvalue below ``-DEFAULT_TOL`` on either side.  A side with none
    driven (``p`` or ``q`` = mn) starts with none below ``1/(2mn)``, and is
    checked at convergence: one below ``-DEFAULT_TOL`` raises it.
    """
    out, = gauss_newton_lockstep(m, n, p, q, [seed])
    if isinstance(out, ConvergenceFailure):
        raise out
    return out


def _levels(m: int, n: int, biranks=()) -> int:
    """``m * n``, checked to be 1 to :data:`MAX_LEVELS`, and each birank
    ``(p, q)`` of ``biranks`` 1 to ``mn`` and not overdetermined (see the
    module docstring), before anything is allocated."""
    size = m * n
    if not (m >= 1 and n >= 1 and size <= MAX_LEVELS):
        raise DimensionMismatch(f"dimensions {m}x{n} are not 1 to {MAX_LEVELS} levels in all")
    for p, q in biranks:
        if not (1 <= p <= size and 1 <= q <= size):
            raise DimensionMismatch("birank outside the valid range")
        conditions = (size - p) ** 2 + (size - q) ** 2
        if conditions > size ** 2:
            raise DimensionMismatch(f"birank ({p},{q}) of {m}x{n} is overdetermined: "
                                    f"{conditions} conditions on {size ** 2} parameters")
    return size


def gauss_newton_lockstep(m: int, n: int, p: int, q: int, seeds) -> list:
    """The Gauss-Newton birank samples of :func:`gauss_newton_birank`, one
    per seed of ``seeds``, run in lockstep: per seed its :class:`FloatState`,
    or the :class:`ConvergenceFailure` it would raise.

    Each iteration stacks the samples still running: their Jacobians, Gram
    matrices, LU solves and refinements, and the eigendecompositions at their
    full steps.  The iterate is each sample's Hermitian point: the steps turn
    into Hermitian directions once per iteration, and the ``lstsq`` fallback
    and the halving of a sample's one direction stay per sample.  A sample
    leaves the batch when it converges or reaches :data:`DEFAULT_MAX_ITER`
    iterations.  Every sample equals its batch of one bit for bit: a stacked
    product, solve or eigendecomposition runs, per matrix, the BLAS or LAPACK
    call of the single one, under the same BLAS thread count.
    """
    size = _levels(m, n, [(p, q)])
    kp, kq = size - p, size - q

    def points(xs):
        """Per matrix of the stack ``xs``: it, its residual, the eigenvectors
        of it and of its partial transpose, and their lowest eigenvalues."""
        w1, v1 = np.linalg.eigh(xs)
        w2, v2 = np.linalg.eigh(partial_transpose_np(xs, m, n))
        return [(x, np.concatenate([a[:kp], b[:kq]]), (va, vb), (a[0], b[0]))
                for x, a, b, va, vb in zip(xs, w1, w2, v1, v2)]

    def trials(xs):
        """The points of the stack ``xs``, each over its trace; a point of
        trace 0 has none, so its residual is infinite."""
        tr = np.trace(xs, axis1=-2, axis2=-1).real
        pts = points(xs / np.where(tr, tr, 1)[:, None, None])
        return [(x, r if t else np.full_like(r, np.inf), *rest) for t, (x, r, *rest) in zip(tr, pts)]

    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = np.eye(size, dtype=complex) / size + _START_NOISE * random_hermitian(size, rng)
        x = x / np.trace(x).real
        # a side with nothing to drive (p or q = mn) starts with no eigenvalue below 1/(2mn)
        low = min([np.linalg.eigvalsh(y)[0] for y, k in
                   ((x, kp), (partial_transpose_np(x, m, n), kq)) if not k], default=1.0)
        shift = max(0.0, 1 / size - 2 * low)
        starts.append((x + shift * np.eye(size)) / (1 + shift * size) if shift else x)
    current = points(np.stack(starts)) if starts else []
    out = [None] * len(current)
    running = range(len(current))
    for it in range(DEFAULT_MAX_ITER + 1):
        left = []
        for s in running:
            x, r, _, lowest = current[s]
            res = float(np.max(np.abs(r))) if r.size else 0.0
            if res < DEFAULT_TOL:  # a NaN residual keeps iterating
                # only a side with no eigenvalue to drive (p or q = mn) can be negative here
                w, name = min(zip(lowest, ("the state", "its partial transpose")))
                out[s] = FloatState(m, n, x, (p, q), res, it) if w >= -DEFAULT_TOL else \
                    ConvergenceFailure(f"birank ({p},{q}) drives no eigenvalue of {name}, which "
                                       f"has eigenvalue {w:.3e} below -{DEFAULT_TOL:.1e}")
            elif it == DEFAULT_MAX_ITER:
                out[s] = ConvergenceFailure(f"residual {res:.3e} above {DEFAULT_TOL:.1e} "
                                            f"after {DEFAULT_MAX_ITER} iterations")
            else:
                left.append(s)
        running = left
        if not running:
            break
        xs = np.stack([current[s][0] for s in running])
        eig = tuple(np.stack([current[s][2][b] for s in running]) for b in (0, 1))
        jac, vals = _birank_jacobian(xs, eig, m, n, kp, kq)
        directions = _params_to_herm(np.stack(_min_norm_steps(jac, -vals)), size)
        # every sample tries its full step; one whose residual does not drop
        # halves it, alone, down to a scale below 1e-9
        for s, x, d, new in zip(running, xs, directions, trials(xs + directions)):
            base = np.max(np.abs(current[s][1]))
            scale = 1.0
            while not (np.max(np.abs(new[1])) < base or scale < 1e-9):
                scale *= 0.5
                new, = trials((x + scale * d)[None])
            current[s] = new
    return out


# -- numerical extension dimension -------------------------------------------

# a value within a decade of DEFAULT_SVD_TOL makes a rank ambiguous
_AMBIGUOUS = (DEFAULT_SVD_TOL / np.sqrt(10), DEFAULT_SVD_TOL * np.sqrt(10))


def _range_projector(mat: np.ndarray):
    w, v = np.linalg.eigh(mat)
    mags = np.abs(w)
    lo, hi = _AMBIGUOUS
    if np.any((mags >= lo) & (mags <= hi)):
        raise RankAmbiguity(
            f"eigenvalue magnitude within a decade of the rank tolerance {DEFAULT_SVD_TOL:.1e}")
    keep = mags > DEFAULT_SVD_TOL
    vv = v[:, keep]
    return vv @ vv.conj().T, int(keep.sum())


def numeric_extension_dimension(state: FloatState, return_report: bool = False):
    """Dimension of the PPT coupling solution space, from float range bases.

    Mirrors the exact solver: stacks the annihilator rows ``(1 - P) (x) 1``
    of the numerical range of ``rho`` on (A,B) and those of the range of
    ``rho^Tb`` on (A,B'), and counts the singular values below
    :data:`DEFAULT_SVD_TOL`; ``return_report`` returns ``(dimension,
    (rank rho, rank rho^Tb))``.  Raises :class:`RankAmbiguity` when singular
    values cluster within a decade of the threshold.
    """
    m, n = state.dim_a, state.dim_b
    rho = np.asarray(state.matrix, dtype=complex)
    P, p = _range_projector(rho)
    Q, q = _range_projector(partial_transpose_np(rho, m, n))
    N = m * n * n
    P1 = np.kron(np.eye(m * n) - P, np.eye(n))
    swap = np.arange(N).reshape(m, n, n).swapaxes(1, 2).ravel()  # B <-> B' on (A,B,B')
    P2 = np.kron(np.eye(m * n) - Q, np.eye(n))[:, swap]
    sv = np.linalg.svd(np.vstack([P1, P2]), compute_uv=False)
    lo, hi = _AMBIGUOUS
    if np.any((sv >= lo) & (sv <= hi)):
        raise RankAmbiguity("singular values within a decade of the rank tolerance")
    dim = int(np.sum(sv < DEFAULT_SVD_TOL))
    return (dim, (p, q)) if return_report else dim


def complex_matrix(M) -> np.ndarray:
    """The exact matrix ``M`` as a complex array."""
    return np.array([[complex(float(x.re), float(x.im)) for x in row] for row in M.tolists()],
                    dtype=complex)


def from_exact(state: qs.BipartiteState) -> FloatState:
    """Cast an exact state to floats, trace-normalized."""
    from . import qstates as qs

    mat = complex_matrix(state.matrix)
    mat = mat / np.trace(mat).real
    p, q = qs.birank(state)
    return FloatState(state.dim_a, state.dim_b, mat, (p, q), 0.0, 0)


# -- exact rounding of sampled states -----------------------------------------

def rationalize_to_birank(state: FloatState):
    """Round a converged sample to a nearby exactly-PPT rational state.

    Rank-truncates the sample to its target rank, rounds the factor columns
    entrywise to the nearest multiple of ``2**-ROUNDING_BITS`` (error at
    most ``2**-25``), and adds :data:`ROUNDING_SHIFT` times the identity.
    Every entry of the Gram part then has a denominator dividing ``2**48``,
    which keeps the exact LDL* pivots small.  The shift commutes with partial
    transposition and dominates the rounding perturbation of the near-zero
    eigenvalues, so the result passes the exact PPT verification while
    staying within about the shift of the sample in operator norm.  Both
    positivity checks run exactly; :class:`~pptlab.errors.NotPsd` signals a
    failed rounding.
    """
    from . import exactmat as em
    from . import qstates as qs

    m, n = state.dim_a, state.dim_b
    size = m * n
    p, _ = state.birank_target
    x = np.asarray(state.matrix, dtype=complex)
    w, v = np.linalg.eigh(x)
    cols = [tuple(em.GaussianRational(_dyadic(float(z.real)), _dyadic(float(z.imag)))
                  for z in np.sqrt(w[i]) * v[:, i])
            for i in range(size - p, size) if w[i] > 0]
    gram = em.weighted_gram(cols, [1] * len(cols), size)
    sigma = gram + em.ExactMatrix.identity(size).scale(ROUNDING_SHIFT)
    exact = qs.BipartiteState(m, n, sigma, label="rounded-sample")
    if not em.psd_check(exact.partial_transpose("B")).is_psd:
        raise NotPsd("partial transpose of the rounded state is not PSD")
    return exact


def _dyadic(x: float) -> Fraction:
    """The multiple of ``2**-ROUNDING_BITS`` nearest to ``x`` (exact for a float)."""
    return Fraction(round(math.ldexp(x, ROUNDING_BITS)), 1 << ROUNDING_BITS)


# -- survey -------------------------------------------------------------------

class SurveyReport(NamedTuple):
    """Per-(dims, birank) sampling summary.

    ``rank_mismatch`` lists the seeds of converged samples whose numerical
    ranks differ from the target birank: their birank collapsed, so they
    sample a different stratum than the one the row counts.
    """

    dims: tuple
    birank: tuple
    samples: int
    converged: int
    residual_max: float
    residual_median: float
    extension_dims: dict          # dimension -> count
    ambiguous: int
    bound: int
    expected_dimension: int       # m + max(bound, 0)
    deviations: list
    calibration: dict
    rank_mismatch: list

    def to_json(self) -> dict:
        """The fields in order, with the mismatched seeds counted under
        ``rank_mismatch`` and listed under ``rank_mismatch_seeds``, and
        ``null`` residuals (JSON has no NaN) for a row with none converged."""
        residuals = {} if self.converged else {"residual_max": None, "residual_median": None}
        return {**self._asdict(), **residuals, "dims": list(self.dims), "birank": list(self.birank),
                "extension_dims": {str(k): v for k, v in sorted(self.extension_dims.items())},
                "rank_mismatch": len(self.rank_mismatch), "rank_mismatch_seeds": self.rank_mismatch}


def unextendibility_survey(dims_list, biranks, samples: int, seed: int) -> list:
    """Sample fixed-birank states and histogram their extension dimensions.

    For each (dims, birank) pair, samples are drawn with consecutive seeds;
    every converged sample's numerical extension dimension is compared to
    ``m + max(bound, 0)`` and deviations are flagged.  Samples whose
    numerical ranks are not ``(p, q)`` are counted, with their seeds, in
    ``rank_mismatch``; they stay in every other count.  A birank outside
    ``1..mn`` or with an overdetermined Newton system, or dimensions past
    :data:`MAX_LEVELS`, raise :class:`DimensionMismatch` before any sampling.
    """
    for m, n in dims_list:
        _levels(m, n, biranks)
    reports = []
    calibration = {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER, "svd_tol": DEFAULT_SVD_TOL,
                   "note": "defaults are empirical calibration choices"}
    for (m, n) in dims_list:
        for (p, q) in biranks:
            residuals = []          # one per converged sample
            dims_hist: dict = {}
            ambiguous = 0
            deviations = []
            mismatched = []
            bound = extension_count_bound(m, n, p, q)
            expected = m + max(bound, 0)
            for sample_seed, st in _survey_samples(m, n, p, q, range(seed, seed + samples)):
                if isinstance(st, ConvergenceFailure):
                    continue
                residuals.append(st.residual)
                try:
                    d, ranks = numeric_extension_dimension(st, return_report=True)
                except RankAmbiguity:
                    ambiguous += 1
                    continue
                if ranks != (p, q):
                    mismatched.append(sample_seed)
                dims_hist[d] = dims_hist.get(d, 0) + 1
                if d != expected:
                    deviations.append({"seed": sample_seed, "dimension": d, "expected": expected})
            reports.append(SurveyReport(
                dims=(m, n), birank=(p, q), samples=samples, converged=len(residuals),
                residual_max=float(max(residuals)) if residuals else float("nan"),
                # statistics.median: numpy's would import numpy.ma, 17 ms per process
                residual_median=statistics.median(residuals) if residuals else float("nan"),
                extension_dims=dims_hist, ambiguous=ambiguous, bound=bound,
                expected_dimension=expected, deviations=deviations,
                calibration=calibration, rank_mismatch=mismatched))
    return reports


def _survey_samples(m: int, n: int, p: int, q: int, seeds: range):
    """``(seed, sample)`` per seed, from lockstep runs over consecutive batches
    within :data:`SURVEY_BATCH_BYTES`; a sample equals its batch of one bit for bit."""
    rows = (m * n - p) ** 2 + (m * n - q) ** 2  # a sample stacks rows^2 + rows (mn)^2 doubles
    batch = max(1, SURVEY_BATCH_BYTES // (8 * rows * (rows + (m * n) ** 2) + 192 * (m * n) ** 2))
    for part in (seeds[lo:lo + batch] for lo in range(0, len(seeds), batch)):
        yield from zip(part, gauss_newton_lockstep(m, n, p, q, part))


def survey_table(reports) -> str:
    """Aligned-column text rendering of survey reports."""
    header = f"{'dims':>6} {'birank':>8} {'conv':>9} {'res_max':>10} {'ext dims':>18} {'bound':>6} {'flags':>6} {'rk!=':>5}"
    lines = [header, "-" * len(header)]
    for r in reports:
        hist = ",".join(f"{k}:{v}" for k, v in sorted(r.extension_dims.items()))
        lines.append(
            f"{'x'.join(map(str, r.dims)):>6} {str(r.birank):>8} {r.converged:>4}/{r.samples:<4} "
            f"{r.residual_max:>10.2e} {hist:>18} {r.bound:>6} {len(r.deviations):>6} "
            f"{len(r.rank_mismatch):>5}")
    return "\n".join(lines)
