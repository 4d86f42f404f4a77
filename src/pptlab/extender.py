"""Local extensions of bipartite states and their exact analysis.

A (1,0)-extension adjoins one level ``|perp>`` to side A of a core state
``rho_c`` and has the block form

    rho = [[rho_c, chi], [chi*, rho_e]],

where ``chi`` couples the new level into the core and ``rho_e`` lives on
``|perp> (x) C^n``.  :func:`level_indices` is the one map from the core and
the new level into the extended product basis, on either side: every
construction (direct-sum, SLOCC, product-pair and flat extensions) takes
the extended side as a parameter and places its new level with it, as do
block splitting, decomposition lifts and the witness peel.  The linear
constraints a PPT extension places on ``chi`` are solved exactly in the
tripartite Choi-dual picture, where the coupling becomes a vector
``|chi>`` in A (x) B (x) B' and partial transposition acts as the swap of
B and B'.  That picture is written for side A, so only the Choi analyses
(:func:`ppt_extension_space` and :func:`extremality_check_ppt`) read a
side-B extension through :func:`qstates.swap_subsystems`.

An extension is checked PSD once, when assembled (a product pair by the
LDL* of its partial transpose, which proves it PSD too); its core,
relabellings and projections are unchecked, and its lifted edges are
checked only by their sum.  An extension is PSD-extremal exactly when it
is flat (:func:`extremality_check_psd`); :func:`lift_decomposition` alone
splits a nonflat one into its flat part and rank-one terms on the new level.
Coupling matrices are stored with rows indexed by the core product basis
and columns indexed by the local space of the new block (B-side space of
dimension n when extending A, A-side space of dimension m when extending B).

The candidate edge-state check (:func:`edge_state_check`) lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, NamedTuple, Sequence

from . import exactmat as em
from . import extension_count_bound
from . import qstates as qs
from .errors import (
    BoundsViolation,
    DecompositionMismatch,
    DimensionMismatch,
    NotHermitian,
    NotPPT,
    PreconditionViolation,
    RangeViolation,
)
from . import replay as rp
from .replay import matrix_from_json

Side = Literal["A", "B"]


# ---------------------------------------------------------------------------
# block form
# ---------------------------------------------------------------------------

class ExtensionBlocks(NamedTuple("ExtensionBlocks", [
        ("core", qs.BipartiteState), ("coupling", em.ExactMatrix), ("edge", em.ExactMatrix),
        ("side", Side), ("perp_index", int)])):
    """Block data of a single-level local extension, checked at construction."""

    __slots__ = ()

    def __new__(cls, core: qs.BipartiteState, coupling: em.ExactMatrix, edge: em.ExactMatrix,
                side: Side, perp_index: int):
        m, n = core.dims
        new_local = n if side == "A" else m
        if coupling.shape != (m * n, new_local):
            raise DimensionMismatch("coupling block has the wrong shape")
        if edge.shape != (new_local, new_local):
            raise DimensionMismatch("edge block has the wrong shape")
        ext_local = (m if side == "A" else n) + 1
        if not (0 <= perp_index < ext_local):
            raise BoundsViolation("perp_index outside the extended local space")
        return super().__new__(cls, core, coupling, edge, side, perp_index)

    def _replace(self, **changes) -> "ExtensionBlocks":
        # the named tuple's own _replace would skip the checks in __new__
        return ExtensionBlocks(**{**self._asdict(), **changes})


def level_indices(m_ext: int, n_ext: int, side: Side, perp_index: int):
    """Place a core and one adjoined level in an ``m_ext x n_ext`` product basis.

    Returns ``(core_idx, new_idx)``: ``core_idx[i]`` is the extended flat
    index of the core's basis vector ``i`` (the core is the system without
    level ``perp_index`` of ``side``), and ``new_idx[j]`` that of the
    adjoined level paired with basis vector ``j`` of the other side.
    """
    if not 0 <= perp_index < (m_ext if side == "A" else n_ext):
        raise BoundsViolation(f"perp_index outside side {side}")
    if side == "A":
        keep = [a for a in range(m_ext) if a != perp_index]
        core_idx = [a * n_ext + b for a in keep for b in range(n_ext)]
        new_idx = [perp_index * n_ext + b for b in range(n_ext)]
    else:
        keep = [b for b in range(n_ext) if b != perp_index]
        core_idx = [a * n_ext + b for a in range(m_ext) for b in keep]
        new_idx = [a * n_ext + perp_index for a in range(m_ext)]
    return core_idx, new_idx


def split_matrix(M: em.ExactMatrix, m: int, n: int, side: Side, perp_index: int):
    """Split an operator on an ``m x n`` system at one local level.

    Returns ``(core, coupling, edge, core_dims)`` where ``core`` excludes
    the level ``perp_index`` of the chosen side, which must have another.
    """
    if M.shape != (m * n, m * n):
        raise DimensionMismatch("operator size does not match dimensions")
    if (m if side == "A" else n) < 2:
        raise BoundsViolation(f"side {side} has one level: splitting it off leaves no core")
    core_idx, new_idx = level_indices(m, n, side, perp_index)
    core_dims = (m - 1, n) if side == "A" else (m, n - 1)
    core = em.ExactMatrix([[M.entry(r, c) for c in core_idx] for r in core_idx])
    chi = em.ExactMatrix([[M.entry(r, c) for c in new_idx] for r in core_idx])
    edge = em.ExactMatrix([[M.entry(r, c) for c in new_idx] for r in new_idx])
    return core, chi, edge, core_dims


def assemble_matrix(core: em.ExactMatrix, chi: em.ExactMatrix, edge: em.ExactMatrix,
                    core_dims: tuple, side: Side, perp_index: int) -> em.ExactMatrix:
    """Inverse of :func:`split_matrix`."""
    m, n = core_dims
    m_ext, n_ext = (m + 1, n) if side == "A" else (m, n + 1)
    core_idx, new_idx = level_indices(m_ext, n_ext, side, perp_index)
    size = m_ext * n_ext
    out = [[em.ZERO] * size for _ in range(size)]
    for i, r in enumerate(core_idx):
        for j, c in enumerate(core_idx):
            out[r][c] = core.entry(i, j)
        for j, c in enumerate(new_idx):
            out[r][c] = chi.entry(i, j)
            out[c][r] = chi.entry(i, j).conj()
    for i, r in enumerate(new_idx):
        for j, c in enumerate(new_idx):
            out[r][c] = edge.entry(i, j)
    return em.ExactMatrix(out)


def split_blocks(s: qs.BipartiteState, side: Side, perp_index: int) -> ExtensionBlocks:
    """Exact block extraction; :func:`assemble_extension` inverts it bit-exactly."""
    core_m, chi, edge, core_dims = split_matrix(s.matrix, s.dim_a, s.dim_b, side, perp_index)
    core = qs.BipartiteState._raw(*core_dims, core_m, f"{s.label}|core")
    return ExtensionBlocks(core, chi, edge, side, perp_index)


def assemble_extension(blocks: ExtensionBlocks, label: str = "") -> qs.BipartiteState:
    m, n = blocks.core.dims
    M = assemble_matrix(blocks.core.matrix, blocks.coupling, blocks.edge,
                        (m, n), blocks.side, blocks.perp_index)
    m_ext, n_ext = (m + 1, n) if blocks.side == "A" else (m, n + 1)
    return qs.BipartiteState(m_ext, n_ext, M, label=label or "extension")


# ---------------------------------------------------------------------------
# Schur complements
# ---------------------------------------------------------------------------

def _flat_edge(rho_c: em.ExactMatrix, chi: em.ExactMatrix):
    """``(K, chi* K)`` with ``K = rho_c^{-1} chi`` solved on the range.

    This is the one range solve of the extension layer: flat extensions,
    Schur complements (of an extension and of its partial transpose), the
    product-pair edge, decomposition lifts and the witness peel-off all
    call it.  ``K`` is a particular solution; ``chi* K``, the edge block of
    the flat extension, is the same for every solution and in every frame,
    and so is ``v* K`` for every ``v`` in R(rho_c).  A range violation
    signals that no edge block makes the assembled operator PSD.
    """
    K = em.solve_on_range_matrix(rho_c, chi)
    return K, em.adjoint(chi).matmul(K)


def schur_complement(blocks: ExtensionBlocks) -> em.ExactMatrix:
    """Edge Schur complement ``rho_e - chi* rho_c^{-1} chi``."""
    return blocks.edge - _flat_edge(blocks.core.matrix, blocks.coupling)[1]


# ---------------------------------------------------------------------------
# the PPT constraint system (Choi dual form)
# ---------------------------------------------------------------------------

def coupling_choi_vector(chi: em.ExactMatrix, m: int, n: int) -> em.Vector:
    """Vectorize an A-side coupling into the tripartite index ``(a, b, c)``:
    the rows ``(a, b)`` of ``chi`` laid end to end."""
    if chi.shape != (m * n, n):
        raise DimensionMismatch("coupling of unexpected shape")
    return tuple(x for ab in range(m * n) for x in chi.row(ab))


class ExtensionSpace(NamedTuple):
    """Solution space of the PPT coupling constraints for a fixed core.

    ``dimension`` counts complex dimensions of the chi-space (the edge block
    is not a degree of freedom: a valid edge exists for every solution).
    ``trivial_dimension`` is that of the span of the side-A SLOCC couplings.
    ``bound`` is the counting lower bound ``(p+q-mn)n - m`` on the number of
    nontrivial extensions; it may be negative.  ``solution_space`` holds the
    couplings' Choi vectors (:func:`coupling_choi_vector`).
    """

    trivial_dimension: int
    bound: int
    solution_space: em.Subspace

    @property
    def dimension(self) -> int:
        """The dimension of :attr:`solution_space`."""
        return self.solution_space.dim


def _product_columns(core: qs.BipartiteState, phi: em.Vector, side: Side) -> em.ExactMatrix:
    """The product vectors ``|phi>|j>`` (side A) or ``|j>|phi>`` (side B) of
    the core's basis, one column per basis vector ``j`` of the other side.

    With ``X`` this matrix, ``rho X`` is the coupling of the SLOCC extension
    by ``phi`` on ``side`` and ``X* rho X``, the local operator
    ``<phi|rho|phi>``, is its edge.
    """
    m, n = core.dims
    if len(phi) != (m if side == "A" else n):
        raise DimensionMismatch("phi must live on the extended side")
    if side == "A":
        return em.ExactMatrix([[x if b == j else em.ZERO for j in range(n)]
                               for x in phi for b in range(n)])
    return em.ExactMatrix([[x if a == j else em.ZERO for j in range(m)]
                           for a in range(m) for x in phi])


def slocc_coupling(core: qs.BipartiteState, phi: em.Vector) -> em.ExactMatrix:
    """Coupling of the trivial side-A extension generated by ``1 + |perp><phi|``."""
    return core.matrix.matmul(_product_columns(core, phi, "A"))


def ppt_extension_space(core: qs.BipartiteState) -> ExtensionSpace:
    """Solve the side-A PPT coupling constraints exactly.

    A coupling's Choi vector must lie in R(rho_c) (x) C^n over (A,B) and in
    the conjugated R(rho_c^Ta) over (A,B'); the solutions are the null space
    of both ranges' annihilator rows, stacked (:func:`_choi_null_space`).
    Side-B extensions are analyzed on the swapped core.
    """
    m, n = core.dims
    rho_ta = core.partial_transpose("A")
    if not em.psd_check(rho_ta).is_psd:
        raise NotPPT("core state is not PPT")
    range_ab = em.column_space(core.matrix)
    range_ac = em.column_space(em.conjugate(rho_ta))
    sol = _choi_null_space(m, n, range_ab, range_ac)
    # Choi vector i: the SLOCC coupling by |i>, columns i*n .. i*n + n-1 of the core
    rows = core.matrix.tolists()
    trivial = [[x for row in rows for x in row[i * n:(i + 1) * n]] for i in range(m)]
    return ExtensionSpace(em.rank(em.ExactMatrix(trivial)),
                          extension_count_bound(m, n, range_ab.dim, range_ac.dim), sol)


def _choi_null_space(m: int, n: int, range_ab: em.Subspace, range_ac: em.Subspace,
                     range_c: em.Subspace | None = None,
                     range_b: em.Subspace | None = None) -> em.Subspace:
    """Vectors ``w`` on the Choi index ``(a, b, c)`` whose slices lie in every
    given range: ``w[., ., c]`` in ``range_ab``, ``w[., b, .]`` in ``range_ac``,
    ``w[a, b, .]`` in ``range_c`` and ``w[a, ., c]`` in ``range_b``.

    Each range's annihilator rows are scaled to Gaussian integers once and
    embedded once per value of the spectator index; the solutions are the
    kernel of all of them, read off one integer elimination.
    """
    cells = [(a, b, c) for a in range(m) for b in range(n) for c in range(n)]
    N = len(cells)

    def spread(x, members):  # the integer row x of a range, placed on one slice
        return [x[members[w]] if w in members else 0 for w in range(N)]

    rows = []
    for space, place in ((range_ab, lambda a, b, c: (a * n + b, c)),
                         (range_ac, lambda a, b, c: (a * n + c, b)),
                         (range_c, lambda a, b, c: (c, (a, b))),
                         (range_b, lambda a, b, c: (b, (a, c)))):
        if space is None:
            continue
        slices = {}  # spectator -> {Choi index: index into the range}
        for w, cell in enumerate(cells):
            j, spectator = place(*cell)
            slices.setdefault(spectator, {})[w] = j
        rows += [(spread(re, members), im and spread(im, members))
                 for re, im in em._int_rows(em.annihilator(space))
                 for members in slices.values()]
    return em._int_kernel(rows, N)[1]


# ---------------------------------------------------------------------------
# concrete extensions
# ---------------------------------------------------------------------------

def slocc_extension(core: qs.BipartiteState, phi: em.Vector, side: Side,
                    label: str = "") -> qs.BipartiteState:
    """Trivial extension ``(S (x) 1) rho (S (x) 1)*`` with ``S = 1 + |perp><phi|``
    (``1 (x) S`` on side B): the flat extension of the coupling ``rho X``,
    with ``X`` the product columns of ``phi`` (:func:`_product_columns`).
    Its edge ``X* rho X`` is the flat edge ``(rho X)* rho^{-1} (rho X)``.

    The new level is appended as the last local index.  The output is PPT
    iff the core is, and no decomposition vector gains Schmidt rank.
    """
    return flat_extension(core, core.matrix.matmul(_product_columns(core, phi, side)), side,
                          label or f"slocc({core.label})")


def product_pair_extension(core: qs.BipartiteState, alpha: em.Vector, beta: em.Vector,
                           gamma: em.Vector, side: Side, label: str = "") -> qs.BipartiteState:
    """Nontrivial PPT extension with coupling ``|alpha beta><gamma|``.

    ``alpha`` lives on the extended side, ``beta`` and ``gamma`` on the other
    side, and ``|alpha beta>`` is their product in the A-then-B order.  With
    ``T`` the partial transpose on ``side``, the preconditions, checked
    exactly in this order: ``beta`` and ``gamma`` not parallel,
    ``|alpha beta>`` in R(rho_c), ``|conj(alpha) gamma>`` in R(rho_c^T), and
    ``rank(<alpha|rho_c|alpha>) > 2``.  Past the first, ``beta`` and
    ``gamma`` are nonzero, so the two range conditions are decided by the
    range solves of the edge block, which takes the minimal-rank form

        rho_e = <ab|rho_c^{-1}|ab> |gamma><gamma| + <ag|(rho^T)^{-1}|ag> |beta><beta|.

    Write ``s1`` and ``s2`` for the two coefficients.  The extension is the
    flat extension of ``rho_c`` by ``chi`` plus ``s2 |beta><beta|`` on the
    new level, so it is PSD exactly when ``s2 >= 0``.  Its partial transpose
    on ``side`` is the flat extension of ``rho^T`` by ``|conj(alpha)
    gamma><beta|`` plus ``s1 |gamma><gamma|``, and ``s1 >= 0`` because
    ``rho_c`` is PSD, so it is PSD exactly when ``rho^T`` is.  A PSD
    ``rho^T`` makes ``s2 >= 0``.  One exact LDL* of the partial transpose
    therefore proves the extension PPT, and the extension is built without
    a check of its own.  It fails, with :class:`NotPPT`, exactly when
    the core is NPT: the core is not required to be PPT, and on an NPT core
    the extension may be PSD or not.

    The extension is not checked against the trivial SLOCC couplings
    ``rho X_phi`` of ``side`` (:func:`_product_columns`), which the checks
    exclude: if ``|ab><g| = rho X_phi``, then ``X_phi* |ab><g| = <phi|a>
    |b><g|`` equals the PSD ``X_phi* rho X_phi``, so either ``b`` is
    parallel to ``g`` (refused), or ``rho X_phi`` and so the coupling are
    zero (refused by the local rank).
    """
    m, n = core.dims
    here, other = (m, n) if side == "A" else (n, m)
    if len(alpha) != here or len(beta) != other or len(gamma) != other:
        raise DimensionMismatch("alpha on the extended side, beta/gamma on the other side")
    pair = em.kron_vec if side == "A" else (lambda x, y: em.kron_vec(y, x))
    rho = core.matrix
    rho_t = core.partial_transpose(side)
    bg = em.vdot(beta, gamma)
    if bg.abs2() == em.vdot(beta, beta).re * em.vdot(gamma, gamma).re:
        raise PreconditionViolation("beta and gamma are parallel")
    ab = pair(alpha, beta)
    ag = pair(em.vec_conj(alpha), gamma)
    chi = em.ExactMatrix.outer(ab, gamma)

    def flat_edge(M, coupling, outside):  # of the extension, then of its partial transpose
        try:
            return _flat_edge(M, coupling)[1]
        except RangeViolation:
            raise PreconditionViolation(outside) from None

    edge = flat_edge(rho, chi, "product vector |alpha beta> is not in the range of rho_c") + \
        flat_edge(rho_t, em.ExactMatrix.outer(ag, beta),
                  "partial conjugate not in the transposed range of rho_c")
    X = _product_columns(core, alpha, side)
    r_loc = em.rank(em.adjoint(X).matmul(rho.matmul(X)))
    if r_loc <= 2:
        raise PreconditionViolation(
            f"rank(<alpha|rho_c|alpha>) = {r_loc} is not > 2 (boundary cases are rejected)")
    dims = (m + 1, n) if side == "A" else (m, n + 1)
    ext = qs.BipartiteState._raw(*dims, assemble_matrix(rho, chi, edge, (m, n), side, here),
                                 label or "extension")
    if not em.psd_check(ext.partial_transpose(side)).is_psd:  # also proves ext PSD
        raise NotPPT("assembled extension fails the exact PPT check")
    return ext


def flat_extension(core: qs.BipartiteState, chi: em.ExactMatrix, side: Side,
                   label: str = "") -> qs.BipartiteState:
    """Extension with the unique edge block making the Schur complement zero.

    ``chi`` has rows indexed by the core product basis and one column per
    basis vector of the other side; the new level is the last local index.
    """
    perp = core.dim_a if side == "A" else core.dim_b
    blocks = ExtensionBlocks(core, chi, _flat_edge(core.matrix, chi)[1], side, perp)
    return assemble_extension(blocks, label=label or f"flat({core.label})")


# ---------------------------------------------------------------------------
# decomposition lifting
# ---------------------------------------------------------------------------

def lift_decomposition(ext: qs.BipartiteState, side: Side, perp_index: int,
                       core_vectors: Sequence[em.Vector],
                       weights: Sequence[Fraction] | None = None):
    """Lift a conic decomposition of the core through an extension.

    Given ``sum_i w_i |v_i><v_i| = rho_c`` exactly, produces lifted vectors
    ``(v_i ; chi* rho_c^{-1} v_i)`` and the separable remainder
    ``rho_{e\\c} (x) |perp><perp|`` such that the weighted sum reproduces the
    extension bit-exactly.  Each lift raises the Schmidt rank by at most 1.
    That sum is the one check; on the core block it is the given decomposition.

    Returns ``(lifted, remainder)`` where ``lifted`` is a list of
    ``(vector, weight)`` pairs on the extended space and ``remainder`` is the
    embedded remainder matrix.
    """
    if weights is None:
        weights = [Fraction(1)] * len(core_vectors)
    if len(weights) != len(core_vectors):
        raise DimensionMismatch("one weight per core vector")
    blocks = split_blocks(ext, side, perp_index)
    m, n = blocks.core.dims
    K, flat_edge = _flat_edge(blocks.core.matrix, blocks.coupling)
    Kadj = em.adjoint(K)
    m_ext, n_ext = ext.dims
    core_idx, new_idx = level_indices(m_ext, n_ext, side, perp_index)
    lifted = []
    for v, w in zip(core_vectors, weights):
        out = [em.ZERO] * (m_ext * n_ext)
        for r, x in zip(core_idx, v):
            out[r] = x
        for r, t in zip(new_idx, Kadj.matvec(v)):
            out[r] = t
        lifted.append((tuple(out), w))
    remainder_edge = blocks.edge - flat_edge
    zero_core = em.zeros(m * n, m * n)
    zero_chi = em.zeros(m * n, remainder_edge.rows)
    remainder = assemble_matrix(zero_core, zero_chi, remainder_edge, (m, n), side, perp_index)
    total = remainder + em.weighted_gram([v for v, _ in lifted], [w for _, w in lifted],
                                         m_ext * n_ext)
    if total != ext.matrix:
        raise DecompositionMismatch("lifted vectors and remainder do not reproduce the extension")
    return lifted, remainder


# ---------------------------------------------------------------------------
# extension steps and pipelines
# ---------------------------------------------------------------------------

def _direct_sum_extension(core: qs.BipartiteState, edge: em.ExactMatrix, side: Side,
                          label: str) -> qs.BipartiteState:
    """Extension with zero coupling: the new level carries ``edge`` alone."""
    chi = em.zeros(core.dim_a * core.dim_b, edge.rows)
    perp = core.dim_a if side == "A" else core.dim_b
    return assemble_extension(ExtensionBlocks(core, chi, edge, side, perp), label=label)


# step kind -> (parameter keys, constructor(core, *parameters, side, label))
_STEP_KINDS = {
    "direct_sum": (("edge",), _direct_sum_extension),
    "slocc": (("phi",), slocc_extension),
    "product_pair": (("alpha", "beta", "gamma"), product_pair_extension),
    "flat": (("chi",), flat_extension),
}


def step_keys(kind: str) -> tuple:
    """The parameter keys of a step kind, as named in the step JSON."""
    if kind not in _STEP_KINDS:
        raise BoundsViolation(f"unknown step kind {kind!r}")
    return _STEP_KINDS[kind][0]


def step_from_json(data: dict, label: str) -> qs.ExtensionStep:
    """Parse one extension step: ``kind``, ``side`` (default "A"), the
    kind's parameters and the optional ``names`` of the remainder's rank-one
    parts, and no other key (:func:`replay._fields`).  ``edge`` and ``chi``
    are matrices, the other parameters lists of every entry (a step names
    no dimensions), and each entry a rational string; a malformed
    parameter's ``ValueError`` names it."""
    kind = data.get("kind")
    keys = step_keys(kind)
    _, *values, side, names = rp._fields(data, f"{kind} step", ("kind", *keys),
                                         {"side": "A", "names": None})
    parameters = {key: _step_parameter(key, value) for key, value in zip(keys, values)}
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(x, str) for x in names)):
        raise ValueError("step names must be a list of strings")
    return qs.ExtensionStep(kind, side, parameters, label,
                            None if names is None else tuple(names))


def _step_parameter(key: str, value):
    """The step parameter ``key`` read as its key declares it."""
    try:
        if key in ("edge", "chi"):
            if not isinstance(value, dict):
                raise TypeError("not a {rows, cols, entries} matrix")
            return matrix_from_json(value)
        if not isinstance(value, list):
            raise TypeError("not a list of rational strings")
        return tuple(em.parse_scalar(x) for x in value)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"step parameter {key!r}: {type(exc).__name__}: {exc}") from None


def apply_step(core: qs.BipartiteState, step: qs.ExtensionStep) -> qs.BipartiteState:
    """Apply one :class:`qstates.ExtensionStep` to ``core``; the new level
    is the last local index of ``step.side``."""
    keys = step_keys(step.kind)
    if step.side not in ("A", "B"):
        raise BoundsViolation(f"side must be 'A' or 'B', not {step.side!r}")
    kernel = _STEP_KINDS[step.kind][1]
    return kernel(core, *(step.parameters[key] for key in keys), step.side, step.label)


def run_pipeline(core: qs.BipartiteState, steps: Sequence[qs.ExtensionStep]) -> list:
    """Apply ``steps`` in order and return the state after each one.

    When ``core`` carries edges, each step lifts them through the extension
    (:func:`lift_decomposition`) and adds the remainder's LDL* rank-one
    parts under the step's ``names`` (``<side><level>_<t>`` when None); a
    step on a state without edges takes no ``names``.
    """
    states = []
    for step in steps:
        if core.edges is None and step.names is not None:
            raise PreconditionViolation(f"{step.label}: a state without edges takes no names")
        ext = apply_step(core, step)
        if core.edges is not None:
            perp = (ext.dim_a if step.side == "A" else ext.dim_b) - 1
            lifted, remainder = lift_decomposition(ext, step.side, perp,
                                                   [e.vec for e in core.edges],
                                                   [e.weight for e in core.edges])
            res = em.psd_check(remainder)
            names = step.names
            if names is None:
                names = tuple(f"{step.side}{perp}_{t}" for t in range(len(res.pivots)))
            if len(res.pivots) != len(names):
                raise DecompositionMismatch(f"{step.label}: remainder has {len(res.pivots)} "
                                            f"rank-one parts, {len(names)} names")
            # lift_decomposition checked that these edges sum to ext.matrix
            edges = [qs.NamedVector(e.name, v, w) for e, (v, w) in zip(core.edges, lifted)]
            edges += [qs.NamedVector(name, col, Fraction(d))
                      for name, (_, d), col in zip(names, res.pivots, res.columns)]
            ext = qs.BipartiteState._raw(*ext.dims, ext.matrix, ext.label, tuple(edges))
        states.append(ext)
        core = ext
    return states


# ---------------------------------------------------------------------------
# edge states
# ---------------------------------------------------------------------------

class EdgeVerdict(NamedTuple):
    """Range-criterion edge check, limited to the supplied candidates."""

    is_edge_for_candidates: bool
    details: tuple                # one per candidate, in order


def edge_state_check(s: qs.BipartiteState, candidates: Sequence[em.Vector]) -> EdgeVerdict:
    """Check whether any candidate product vector blocks the edge property.

    A state is an edge state when no product vector ``|a b>`` in its range
    has its partial conjugate ``|a b*>`` in the range of the partial
    transpose.  Only the finite candidate list is examined, and the verdict
    says so.
    """
    m, n = s.dims
    range_rho = em.column_space(s.matrix)
    range_pt = em.column_space(s.partial_transpose("B"))
    details = []
    blocked = False
    for v in candidates:
        if qs.schmidt_rank(v, m, n) != 1:
            raise DimensionMismatch("candidates must be product vectors")
        in_range = em.in_subspace(range_rho, v)
        conj_v = _partial_conjugate(v, m, n)
        pt_in_range = em.in_subspace(range_pt, conj_v) if in_range else False
        details.append({"in_range": in_range, "pt_in_corange": pt_in_range})
        if in_range and pt_in_range:
            blocked = True
    return EdgeVerdict(not blocked, tuple(details))


def _partial_conjugate(v: em.Vector, m: int, n: int) -> em.Vector:
    """``|a b> -> |a b*>`` for a product vector: conjugate the B factor.

    For a rank-one matricization ``u w^T`` the partially conjugated vector
    has matricization ``u w*^T``; entrywise this is well defined for
    product vectors only, where it equals the conjugate up to the global
    phase of ``u``.  Exactness keeps this closed over Gaussian rationals.
    """
    # the first nonzero entry v[i0, j0] factors v as col (x) row / v[i0, j0], with
    # col = v[., j0] and row = v[i0, .]; conjugate the B factor (the row)
    i0, j0 = divmod(next(p for p, x in enumerate(v) if x), n)
    scale = (em.ONE / v[i0 * n + j0]).conj()
    return tuple(v[i * n + j0] * v[i0 * n + j].conj() * scale for i in range(m) for j in range(n))


# ---------------------------------------------------------------------------
# extremality
# ---------------------------------------------------------------------------

class PsdExtremality(NamedTuple):
    extremal: bool
    reason: str


def extremality_check_psd(blocks: ExtensionBlocks) -> PsdExtremality:
    """Extremality in the cone of PSD local extensions.

    An extension is extremal exactly when it is flat: its edge Schur
    complement vanishes, or, over a zero core, its edge has rank at most
    one.  :func:`lift_decomposition` splits a nonflat one: its lifted core
    vectors sum to the flat part, and its remainder's LDL* gives the
    rank-one terms on the new level.
    """
    if em.is_zero(blocks.core.matrix):
        if em.rank(blocks.edge) <= 1:
            return PsdExtremality(True, "rank-one edge with zero core")
        return PsdExtremality(False, "edge block of rank above one")
    if em.is_zero(schur_complement(blocks)):
        return PsdExtremality(True, "flat extension")
    return PsdExtremality(False, "nonzero Schur complement")


# what a PPT-cone verdict of extremality_check_ppt does and does not claim
PPT_EXTREMALITY_NOTE = "sufficient condition only; NotCertified does not assert non-extremality"


class PptExtremality(NamedTuple):
    """Sufficient-condition verdict for extremality in the PPT extension cone.

    ``Extremal`` requires the edge Schur complements of the extension and of
    its partial transpose to have trivially intersecting ranges, and the
    exact perturbation space of couplings compatible with both range
    structures to vanish.  When the conditions fail the verdict is
    ``NotCertified``: the criterion is one-sided (:data:`PPT_EXTREMALITY_NOTE`).
    """

    triv_intersection_ok: bool
    perturbation_dimension: int
    verdict: str


def extremality_check_ppt(blocks: ExtensionBlocks) -> PptExtremality:
    """Runs in the A frame: a side-B extension is analyzed as the side-A
    extension of the swapped core.  The extension and its partial transpose
    split alike, and their edge Schur complements' ranges meet only in 0
    exactly when they form a direct sum: both bases stacked have full rank."""
    ext = assemble_extension(blocks)
    if blocks.side == "B":
        ext = qs.swap_subsystems(ext)
    m, n = ext.dim_a - 1, ext.dim_b
    pt = qs.partial_transpose_matrix(ext.matrix, m + 1, n, "A")
    if not em.psd_check(pt).is_psd:
        raise NotPPT("extension is not PPT")
    core, chi, edge, _ = split_matrix(ext.matrix, m + 1, n, "A", blocks.perp_index)
    core_ta, chi_ta, edge_ta, _ = split_matrix(pt, m + 1, n, "A", blocks.perp_index)
    rho_ec = edge - _flat_edge(core, chi)[1]
    r1, r2 = em.column_space(rho_ec), em.column_space(edge_ta - _flat_edge(core_ta, chi_ta)[1])
    triv = em.rank(em.ExactMatrix(r1.basis + r2.basis)) == r1.dim + r2.dim
    # couplings in R(rho_c) (x) conj R(rho_ec) and in conj R(rho_c^Ta) (x) R(rho_ec^Ta)
    inter = _choi_null_space(m, n, em.column_space(core), em.column_space(em.conjugate(core_ta)),
                             range_c=em.column_space(em.conjugate(rho_ec)), range_b=r2)
    verdict = "Extremal" if triv and inter.dim == 0 else "NotCertified"
    return PptExtremality(triv, inter.dim, verdict)


# ---------------------------------------------------------------------------
# witness peel-off
# ---------------------------------------------------------------------------

def witness_schur_peel(W: em.ExactMatrix, dims: tuple, side: Side, perp_index: int):
    """Peel one local level off a Hermitian witness by a Schur complement.

    Splits ``W`` at the given level and returns ``(W_peeled, psd_part)``
    with ``W_peeled = W_c - chi W_e^{-1} chi*`` and ``psd_part`` the flat
    completion ``[[chi W_e^{-1} chi*, chi], [chi*, W_e]]``; the original
    witness equals the embedded peeled block plus ``psd_part`` bit-exactly.
    Requires ``R(chi*) <= R(W_e)``; the violation of that range condition is
    exactly the obstruction the peel-off detects.
    """
    m, n = dims
    if not W.is_hermitian():
        raise NotHermitian("witness must be Hermitian")
    Wc, chi, We, core_dims = split_matrix(W, m, n, side, perp_index)
    flat_core = _flat_edge(We, em.adjoint(chi))[1]  # chi W_e^{-1} chi*
    W_peeled = Wc - flat_core
    psd_part = assemble_matrix(flat_core, chi, We, core_dims, side, perp_index)
    embedded = assemble_matrix(W_peeled, em.zeros(*chi.shape),
                               em.zeros(*We.shape), core_dims, side, perp_index)
    if embedded + psd_part != W:
        raise DecompositionMismatch("peeled witness and PSD part do not reproduce the witness")
    return W_peeled, psd_part
