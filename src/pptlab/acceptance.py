"""End-to-end acceptance suite.

Each criterion is a function returning a :class:`CriterionResult`; the
pytest module and the ``reproduce`` CLI verb both drive :func:`run_all`.
The randomized criteria (7, 8 and 9) draw from the fixed seeds below, so
every run records the same details and only the timings vary.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import certifier as ce
from . import constructions as co
from . import exactmat as em
from . import extender as ex
from . import extension_count_bound
from . import minors as mi
from . import qstates as qs
from .errors import CriterionFailed, DecompositionMismatch, PreconditionViolation

SURVEY_SEED = 2026  # criterion 8's survey
LIFT_SEED = 7       # criterion 7's random cases
PEEL_SEED = 8       # criterion 9's random cases


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    seconds: float
    limit: float | None
    details: dict

    def line(self) -> str:  # a FAIL line ends with its reason
        status, why = ("PASS", "") if self.passed else ("FAIL", f"  {self.details['error']}")
        budget = f" (limit {self.limit:.0f}s)" if self.limit else ""
        return f"{status}  criterion {self.number}: {self.name}  [{self.seconds:.2f}s{budget}]{why}"


def _check(condition, message: str) -> None:
    """Raise :class:`CriterionFailed` unless ``condition`` holds; unlike
    ``assert`` this check survives ``python -O``."""
    if not condition:
        raise CriterionFailed(message)


def _run(number, name, limit, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        details = fn()
        passed = True
    except CriterionFailed as exc:
        details = {"error": str(exc)}
        passed = False
    dt = time.perf_counter() - t0
    if passed and limit is not None and dt > limit:
        passed = False
        details["error"] = f"runtime {dt:.2f}s exceeds the {limit:.0f}s budget"
    return CriterionResult(number, name, passed, dt, limit, details)


# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """rho3x3 regression: exact PPT, birank, PT decomposition, minor chain,
    edge-state verdict."""

    def body():
        rho = co.rho_3x3()
        _check(em.psd_check(rho.matrix).is_psd, "rho not PSD")
        pt = rho.partial_transpose("B")
        _check(em.psd_check(pt).is_psd, "partial transpose not PSD")
        birank = qs.birank(rho)
        _check(birank == (5, 6), f"birank {birank}")
        fs = [
            (co._sites_vec([(0, 2), (1, 1)], 3, 3, minus=[(2, 0)]), 1),
            (co._sites_vec([(0, 2), (2, 0)], 3, 3), 2),
            (co._sites_vec([(0, 1), (1, 0)], 3, 3), 1),
            (co._sites_vec([(1, 2), (2, 1)], 3, 3), 1),
            (co._sites_vec([(0, 0)], 3, 3), 1),
            (co._sites_vec([(2, 2)], 3, 3), 1),
        ]
        acc = em.weighted_gram([v for v, _ in fs], [w for _, w in fs], 9)
        _check(acc == pt, "PT does not equal the weighted f-decomposition bit-exactly")
        # psi00, the one coordinate the edge e0 = |00> + |11> + |22> overlaps, is tried first
        square = ce.certify_sn_lower(rho, 2, ())
        _check(isinstance(square, ce.LowerBound)
               and (square.witness_variable, square.power) == ("psi00", 2),
               "psi00^2 not in the 2-minor ideal")
        M = _site_matrix(rho)
        mixed = ce.minor_membership(ce.WitnessClosure(M, 2, ()), _monomial(M, "psi01", "psi10"))
        _check(mixed is not None, "psi01*psi10 not in the 2-minor ideal")
        cands = [co._sites_vec([(0, 2)], 3, 3), co._sites_vec([(2, 0)], 3, 3)]
        verdict = ex.edge_state_check(rho, cands)
        _check(verdict.is_edge_for_candidates, "edge-state check failed")
        _check(all(d["in_range"] for d in verdict.details), "a candidate lies outside the range")
        return {"birank": [5, 6], "edge_state": True,
                "minors": {name: [[list(rows), list(cols)] for rows, cols, _ in minors] for
                           name, minors in (("psi00^2", square.minors), ("psi01*psi10", mixed))}}

    return _run(1, "rho3x3 regression", 1.0, body)


def _site_matrix(s: qs.BipartiteState) -> mi.SymbolicRangeMatrix:
    """The range's coordinate matrix of a lower bound's setup, site-named."""
    return mi.lower_bound_setup(s, None, lambda vectors: ce._variables(s, "site", vectors))[0]


def _monomial(M: mi.SymbolicRangeMatrix, *names: str) -> tuple:
    return tuple(names.count(v) for v in M.variables)  # the exponents of the product


# (rows, cols, cofactor variable, coefficient) of cofactor_identity_4x5's minors
IDENTITY_4X5 = (
    ((0, 1, 2), (0, 1, 2), "psi00", Fraction(1)),       # g5
    ((0, 1, 3), (1, 2, 3), "psi00", Fraction(-3)),      # g3 / 3
    ((1, 2, 3), (0, 1, 4), "psi00", Fraction(-3)),      # g4 / 3
    ((0, 1, 3), (0, 1, 3), "psi02", Fraction(-3, 2)),   # g1 / 3
    ((1, 2, 3), (1, 2, 4), "psi20", Fraction(-3, 2)),   # g2 / 3
)


def cofactor_identity_4x5() -> bool:
    """Verify the explicit Nullstellensatz identity for the 4x5 coordinate ideal.

    With the five minors (``x_ij`` is the coordinate ``psi_ij``)

        g1 = x20*(x00^2 - x01*x10),   g2 = x02*(x00^2 + x01*x10),
        g3 = x20*(x01^2 - x00*x02),   g4 = -x02*(x10^2 + x00*x20),
        g5 = x00^3 + x01^2*x20 - x10^2*x02 - x00*x02*x20,

    direct expansion shows

        x00*(g5 - g3 - g4) - (x02*g1 + x20*g2)/2 = x00^4,

    so x00^4 lies in the ideal generated by the g_i.  :data:`IDENTITY_4X5`
    states it as the determinants it names; those on row 3 (whose entries
    in columns 3 and 4 are ``x20/3`` and ``x02/3``) are ``g_i / 3``.  The
    check ``verify`` runs, :func:`minors.minor_identity_holds`, expands them.
    """
    M = _site_matrix(co.rho_4x5().final)
    return mi.minor_identity_holds(M, _monomial(M, *["psi00"] * 4),
                                   [(rows, cols) for rows, cols, _, _ in IDENTITY_4X5],
                                   [{_monomial(M, v): c} for _, _, v, c in IDENTITY_4X5])


def criterion_2() -> CriterionResult:
    """The 4x5 pipeline: three recorded steps, exact PPT, lower bound with
    N=4, cofactor identity, upper bound 3, combined SN = 3."""

    def body():
        pipe = co.rho_4x5()
        kinds = [s.kind for s in pipe.steps]
        _check(kinds == ["direct_sum", "product_pair", "product_pair"], f"steps {kinds}")
        final = pipe.final
        _check(final.dims == (4, 5), f"final dims {final.dims}")
        _check(em.psd_check(final.partial_transpose("A")).is_psd, "final state not PPT")
        lower, upper = ce.certify_sn(final)
        if not isinstance(lower, ce.LowerBound):
            raise CriterionFailed(f"lower bound inconclusive: {lower}")
        _check(lower.power == 4, f"observed N = {lower.power}")
        _check(cofactor_identity_4x5(), "cofactor identity failed")
        _check(lower.value == upper.value == 3, f"lower {lower.value}, upper {upper.value}")
        return {"lower": lower.value, "power": lower.power, "upper": upper.value,
                "schmidt_number": 3}

    return _run(2, "4x5 extension pipeline, SN = 3", 10.0, body)


def _product(a: tuple, b: tuple, weight: Fraction) -> tuple:
    return em.kron_vec(em.vector(a), em.vector(b)), weight


# (vector, weight) of the product edges a (x) b whose Gram sum is rho_4x5()'s
# stage 2 with B's level 0 projected out; B's levels 1-3 are renumbered 0-2
PRODUCTS_4X3 = tuple(_product((t, 1, t.conj(), 0), (1, t, 0), Fraction(1, 4))
                     for t in (em.ONE, -em.ONE, em.I_UNIT, -em.I_UNIT)) + (
    _product((1, 0, 0, 0), (0, 1, 0), Fraction(2)),
    _product((0, 0, 1, 0), (0, 0, 1), Fraction(1, 3)),
    _product((0, 0, 0, 1), (0, 1, 0), Fraction(3)),
    _product((0, 0, 0, 1), (0, 0, 1), Fraction(1, 3)),
)


def criterion_3() -> CriterionResult:
    """Intermediate 4x4 state: its projection off B's level 0 is the exact
    Gram sum of the product edges :data:`PRODUCTS_4X3`, so it has SN <= 1,
    and the paper's peel-off bound SN(rho) <= SN(projection) + 1 gives
    SN(stage 2) <= 2."""

    def body():
        products = qs.BipartiteState(4, 3, label="stage2|products", edges=[
            qs.NamedVector(f"p{i}", v, w) for i, (v, w) in enumerate(PRODUCTS_4X3)])
        projection = qs.project_local_block(co.rho_4x5().stage2, [0, 1, 2, 3], [1, 2, 3])
        _check(products.matrix == projection.matrix,
               "the product edges do not sum to the projection")
        bound = ce.sn_upper_from_decomposition(products).value
        _check(bound == 1, f"an edge of the projection has Schmidt rank {bound}")
        return {"products": len(PRODUCTS_4X3), "projection_sn_upper": bound,
                "sn_upper": bound + 1}

    return _run(3, "stage-2 projection separable, SN <= 2", 1.0, body)


def criterion_4() -> CriterionResult:
    """Scaling family: exact PPT, SR <= 2 transpose decomposition, minimal
    antidiagonal weights, SN = k for k in {2, 3, 4, 5}."""
    ks = (2, 3, 4, 5)

    def body():
        details = {}
        for k in ks:
            st = co.rho_family(k)
            dim = 2 * k - 1
            pt = st.partial_transpose("A")
            _check(em.psd_check(pt).is_psd, f"k={k} not PPT")
            dec = co.family_pt_decomposition(k)
            acc = em.weighted_gram([e.vec for e in dec], [e.weight for e in dec], dim * dim)
            _check(acc == pt, f"k={k}: transpose decomposition not bit-exact")
            _check(max(qs.schmidt_rank(e.vec, dim, dim) for e in dec) <= 2,
                   f"k={k}: a decomposition vector has Schmidt rank above 2")
            omega = co.family_kernel_vector(k)
            _check(not any(pt.matvec(omega)), f"k={k}: Omega not in the kernel")
            deltas = [e for e in st.edges if e.name.startswith("delta")]
            _check(deltas and all(em.vdot(omega, e.vec) for e in deltas),
                   f"k={k}: Omega overlaps vanish")
            lower, upper = ce.certify_sn(st, k, exclude_deltas=True)
            _check(isinstance(lower, ce.LowerBound), f"k={k} lower bound inconclusive")
            _check(lower.power == k, f"k={k}: observed power {lower.power}")
            _check(upper.value == k, f"k={k}: upper bound {upper.value}")
            details[f"k{k}"] = {"power": lower.power, "sn": k, "minors": len(lower.minors)}
        return details

    return _run(4, f"scaling family SN = k (k = {', '.join(map(str, ks))})", 600.0, body)


def criterion_5() -> CriterionResult:
    """Tiles-complement: kernel products by substitution, extension space of
    dimension exactly 3 (trivial extensions only)."""

    def body():
        tiles = co.tiles_complement()
        for v in co.tiles_kernel_products():
            _check(not any(tiles.matrix.matvec(v)), "kernel substitution failed")
        _check(qs.birank(tiles) == (4, 4), "birank is not (4, 4)")
        space = ex.ppt_extension_space(tiles)
        _check(space.dimension == 3, f"extension dimension {space.dimension}")
        _check(space.trivial_dimension == 3, f"trivial dimension {space.trivial_dimension}")
        return {"birank": [4, 4], "dimension": 3, "trivial": 3}

    return _run(5, "Tiles-complement unextendibility (dimension 3)", 5.0, body)


def criterion_6() -> CriterionResult:
    """Counting-bound consistency over the corpus; the two pipeline couplings
    solve the linear constraint system and are nontrivial.

    Nontriviality is not checked: a coupling ``|ab><g|`` equal to a SLOCC
    coupling ``rho X_phi`` would make ``<phi|a> |b><g|`` the PSD
    ``X_phi* rho X_phi``, so ``b`` would be parallel to ``g`` or the
    coupling zero, and ``product_pair_extension`` refuses both.
    """

    def body():
        pipe = co.rho_4x5()
        corpus = {
            "rho3x3": co.rho_3x3(),
            "family-k2": co.rho_family(2),
            "tiles": co.tiles_complement(),
            "mixed-2x2": qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm"),
            "stage1-swapped": qs.swap_subsystems(pipe.stage1),
            "stage2-swapped": qs.swap_subsystems(pipe.stage2),
        }
        summary = {}
        spaces = {}
        for name, st in corpus.items():
            space = ex.ppt_extension_space(st)
            spaces[name] = space
            m = st.dim_a
            _check(space.dimension >= m, f"{name}: dim {space.dimension} < m")
            if space.bound > 0:
                _check(space.dimension >= space.bound + m,
                       f"{name}: dim {space.dimension} < bound {space.bound} + m")
            summary[name] = {"dimension": space.dimension, "bound": space.bound,
                             "trivial": space.trivial_dimension}
        _check(spaces["rho3x3"].bound == 3, f"rho3x3 bound {spaces['rho3x3'].bound}")
        _check(extension_count_bound(3, 3, 5, 6) == 3, "count bound (3, 3, 5, 6) is not 3")
        _check(extension_count_bound(3, 3, 4, 4) == -6, "count bound (3, 3, 4, 4) is not -6")
        _check(extension_count_bound(2, 4, 8, 8) == 30, "count bound (2, 4, 8, 8) is not 30")

        # the two side-B pipeline couplings, in the swapped frame, are nontrivial solutions
        for name, ext in (("stage1-swapped", pipe.stage2), ("stage2-swapped", pipe.final)):
            m, n = corpus[name].dims
            coupling = ex.split_blocks(qs.swap_subsystems(ext), "A", m).coupling
            _check(em.in_subspace(spaces[name].solution_space,
                                  ex.coupling_choi_vector(coupling, m, n)),
                   f"{name}: coupling not a solution")
            summary[name]["pipeline_coupling"] = "nontrivial solution"
        return summary

    return _run(6, "counting-bound consistency and pipeline couplings", 5.0, body)


def criterion_7() -> CriterionResult:
    """50 randomized decomposition lifts reconstruct bit-exactly with all
    Schmidt-rank increments at most 1."""

    def body():
        rng = random.Random(LIFT_SEED)
        cases = 0
        while cases < 50:
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            nvec = rng.randint(1, 4)
            vecs = [_random_vector(rng, m * n) for _ in range(nvec)]
            if all(em.is_zero_vector(v) for v in vecs):
                continue
            core = qs.BipartiteState(m, n, label="random-core", edges=[
                qs.NamedVector(f"v{i}", v, Fraction(1)) for i, v in enumerate(vecs)])
            core_mat = core.matrix
            R = em.ExactMatrix([[_random_scalar(rng) for _ in range(n)]
                                for _ in range(m * n)])
            chi = core_mat.matmul(R)
            gcols = rng.randint(1, 2)
            G = em.ExactMatrix([[_random_scalar(rng) for _ in range(gcols)]
                                for _ in range(n)])
            edge = ex._flat_edge(core_mat, chi)[1] + G.matmul(em.adjoint(G))
            blocks = ex.ExtensionBlocks(core, chi, edge, "A", m)
            ext = ex.assemble_extension(blocks)
            try:  # the lift checks its own sum against the extension, bit for bit
                lifted = ex.lift_decomposition(ext, "A", m, vecs,
                                               [e.weight for e in core.edges])[0]
            except DecompositionMismatch as exc:
                raise CriterionFailed(f"reconstruction not bit-exact: {exc}") from exc
            for v0, (v1, _) in zip(vecs, lifted):
                sr0 = qs.schmidt_rank(v0, m, n)
                sr1 = qs.schmidt_rank(v1, m + 1, n)
                _check(sr1 <= sr0 + 1, f"SR increment {sr1 - sr0}")
            cases += 1
        return {"cases": 50, "failures": 0}

    return _run(7, "decomposition lifting property suite (50 cases)", None, body)


def criterion_8() -> CriterionResult:
    """Survey replication: 3x3 birank (4,4), 100 samples: at least 90
    converge below 1e-9 and every converged sample has extension dimension
    3; the numeric dimension agrees with the exact solver on rho3x3 and the
    k=2 family member.  Without numpy it fails, naming the missing package."""

    def body():
        from . import numlab as nl

        try:
            reports = nl.unextendibility_survey([(3, 3)], [(4, 4)], samples=100,
                                                seed=SURVEY_SEED)
        except PreconditionViolation as exc:  # numpy is not installed
            raise CriterionFailed(str(exc)) from exc
        r = reports[0]
        _check(r.converged >= 90, f"only {r.converged}/100 converged")
        _check(r.residual_max < 1e-9, f"residual {r.residual_max}")
        _check(set(r.extension_dims) == {3}, f"dimensions {r.extension_dims}")
        _check(sum(r.extension_dims.values()) + r.ambiguous == r.converged,
               "dimensions and ambiguous samples do not add up to the converged ones")
        _check(not r.deviations, f"deviations {r.deviations}")
        oracle = {}
        for name, st in (("rho3x3", co.rho_3x3()), ("family-k2", co.rho_family(2))):
            exact_dim = ex.ppt_extension_space(st).dimension
            num_dim = nl.numeric_extension_dimension(nl.from_exact(st))
            _check(num_dim == exact_dim, f"{name}: numeric {num_dim} vs exact {exact_dim}")
            oracle[name] = exact_dim
        return {"converged": r.converged, "residual_max": r.residual_max,
                "extension_dims": r.to_json()["extension_dims"], "oracle": oracle}

    return _run(8, "random birank-(4,4) survey, dimension 3 throughout", 120.0, body)


def criterion_9() -> CriterionResult:
    """50 witness peels reconstruct bit-exactly with a PSD completion."""

    def body():
        rng = random.Random(PEEL_SEED)
        for case in range(50):
            m = rng.randint(2, 3)
            n = rng.randint(2, 3)
            side = "A" if rng.random() < 0.5 else "B"
            edge_dim = n if side == "A" else m
            core_cells = (m - 1) * n if side == "A" else m * (n - 1)
            gcols = rng.randint(1, edge_dim)
            G = em.ExactMatrix([[_random_scalar(rng) for _ in range(gcols)]
                                for _ in range(edge_dim)])
            We = G.matmul(em.adjoint(G))
            C = em.ExactMatrix([[_random_scalar(rng) for _ in range(edge_dim)]
                                for _ in range(core_cells)])
            chi = C.matmul(We)
            A = em.ExactMatrix([[_random_scalar(rng) for _ in range(core_cells)]
                                for _ in range(core_cells)])
            Wc = A + em.adjoint(A)
            perp = rng.randrange(m if side == "A" else n)
            core_dims = (m - 1, n) if side == "A" else (m, n - 1)
            W = ex.assemble_matrix(Wc, chi, We, core_dims, side, perp)
            peeled, psd_part = ex.witness_schur_peel(W, (m, n), side, perp)
            _check(em.psd_check(psd_part).is_psd, f"case {case}: completion not PSD")
        return {"cases": 50, "failures": 0}

    return _run(9, "witness Schur peel identity suite (50 cases)", None, body)


def _random_scalar(rng) -> em.GaussianRational:
    return em.GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                               Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _random_vector(rng, size) -> em.Vector:
    return tuple(_random_scalar(rng) for _ in range(size))


def run_all() -> list:
    return [criterion_1(), criterion_2(), criterion_3(), criterion_4(), criterion_5(),
            criterion_6(), criterion_7(), criterion_8(), criterion_9()]


def manifest(results) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "criteria": [{
            "number": r.number, "name": r.name, "passed": r.passed,
            "seconds": round(r.seconds, 3), "limit": r.limit, "details": r.details,
        } for r in results],
    }
