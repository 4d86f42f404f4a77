"""The two workloads: set-up, one pass of requests, and the output oracle.

Every expected value below is a claim of the paper or an invariant of the
construction, fixed here rather than recomputed by the program under test:

* ``certify``: every state is PPT; rho3x3 has Schmidt number at least 2;
  rho4x5 has SN = 3, certified at witness power N = 4; the family member k
  has SN = k; every certificate replays.
* ``extend-survey``, extension part: a SLOCC extension is a local injective
  image of its core, so its extension space on the other side has the
  core's dimension on that side.  Flat extensions are extremal in the PSD
  cone.  The named corpus keeps the dimensions of acceptance criterion 6
  under local relabelling.
* ``extend-survey``, survey part: no 3x3 birank-(4,4) sample deviates from
  extension dimension 3 (acceptance criterion 8); the numeric extension
  dimension matches the exact one on rho3x3 and family:2; every rounded
  sample is exactly PPT and its certificate replays.  The paper makes no
  claim at 3x4, so deviations there are reported, not counted as failures.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab import numlab as nl
from pptlab import qstates as qs
from pptlab import serialize as se
from pptlab.errors import ConvergenceFailure

from harness import Bench, Pass, load_json, verify_ok

# --------------------------------------------------------------------------
# certify: CLI certify-then-replay loops on state files
# --------------------------------------------------------------------------

# (file stem, state reference, certify-sn arguments,
#  expected lower bound, witness power, upper bound; None = not claimed)
CERTIFY = (
    ("rho3x3", "rho3x3", ["--k", "2"], 2, None, None),
    ("rho4x5", "rho4x5", [], 3, 4, 3),
    ("family_2", "family:2", ["--exclude-deltas"], 2, None, 2),
    ("family_3", "family:3", ["--exclude-deltas"], 3, None, 3),
    ("family_4", "family:4", ["--exclude-deltas"], 4, None, 4),
)
# family:5 runs certify-sn and its verify only.  Its PPT chain (9 s) is left
# out to keep the pass short; its 81x81 PSD check and Gram sums already run
# in every request that loads the state.
FAMILY_K5 = (
    ("family_5", "family:5", ["--exclude-deltas", "--method", "linear"], 5, None, 5),
)


class SetupError(RuntimeError):
    pass


def build_states(bench: Bench, refs, subdir):
    """Write each state file with ``pptlab build``; returns stem -> path."""
    os.makedirs(bench.path(subdir), exist_ok=True)
    paths = {}
    for stem, ref in refs:
        path = bench.path(os.path.join(subdir, f"{stem}.json"))
        res = bench.cli(None, None, f"build {ref}", ["build", "--state", ref, "--out", path],
                        trace=False)
        if res.code != 0:
            raise SetupError(f"pptlab build --state {ref}: {res.cause()}")
        paths[stem] = path
    return paths


def _fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


def check_ppt(p: Pass, label, res, cert_path, expected="PPT"):
    if res.code != 0:
        p.outcome(label, False, res.cause())
        return
    cert = load_json(cert_path)
    verdict = cert.get("verdict") if cert else None
    p.cert_bytes += os.path.getsize(cert_path) if cert else 0
    p.outcome(label, verdict == expected, f"verdict {verdict!r}, expected {expected!r}",
              wrong=True)


def check_sn(p: Pass, label, res, cert_path, lower, power, upper):
    if res.code != 0:
        p.outcome(label, False, res.cause())
        return
    payload = load_json(cert_path) or {}
    p.cert_bytes += os.path.getsize(cert_path) if payload else 0
    got_lower = payload.get("lower", {}).get("value")
    got_power = payload.get("lower", {}).get("power")
    got_upper = payload.get("upper", {}).get("value")
    problems = []
    if got_lower != lower:
        problems.append(f"lower bound {got_lower}, expected {lower}")
    if power is not None and got_power != power:
        problems.append(f"witness power {got_power}, expected {power}")
    if upper is not None and got_upper != upper:
        problems.append(f"upper bound {got_upper}, expected {upper}")
    p.outcome(label, not problems, "; ".join(problems), wrong=True)


def verify_request(bench: Bench, p: Pass, label, cert_path):
    if not os.path.exists(cert_path):
        p.outcome(label, False, "no certificate to replay: the request that writes it failed")
        return
    res = bench.cli(p, "verify", label, ["verify", cert_path])
    p.outcome(label, verify_ok(res), res.cause())


def certify_chain(bench: Bench, p: Pass, spec, state_path, rng, with_ppt=True):
    """ppt-check and certify-sn in seeded order, then verify of both."""
    stem, _, sn_args, lower, power, upper = spec
    ppt_cert = _fresh(bench.path(f"ppt_{stem}.json"))
    sn_cert = _fresh(bench.path(f"sn_{stem}.json"))

    def ppt():
        label = f"ppt-check {stem}"
        res = bench.cli(p, "ppt", label, ["ppt-check", "--state", state_path, "--out", ppt_cert])
        check_ppt(p, label, res, ppt_cert)

    def sn():
        label = f"certify-sn {stem}"
        res = bench.cli(p, "sn", label,
                        ["certify-sn", "--state", state_path, "--out", sn_cert] + sn_args)
        check_sn(p, label, res, sn_cert, lower, power, upper)

    producers = [ppt, sn] if with_ppt else [sn]
    rng.shuffle(producers)
    for request in producers:
        request()
    certs = [("ppt", ppt_cert), ("sn", sn_cert)] if with_ppt else [("sn", sn_cert)]
    rng.shuffle(certs)
    for kind, cert in certs:
        verify_request(bench, p, f"verify {kind} {stem}", cert)


class CertifyWorkload:
    def setup(self, bench: Bench, subdir):
        return build_states(bench, [(s[0], s[1]) for s in CERTIFY + FAMILY_K5], subdir)

    def run_pass(self, bench: Bench, p: Pass, paths, rng):
        order = list(CERTIFY + FAMILY_K5)
        rng.shuffle(order)
        for spec in order:
            k5 = spec in FAMILY_K5
            bench.group = "family-k5" if k5 else "certify"
            certify_chain(bench, p, spec, paths[spec[0]], rng, with_ppt=not k5)


# --------------------------------------------------------------------------
# extend-survey, extension part: generic extensions of exact cores, in process
# --------------------------------------------------------------------------

# the side of each core's flat extension (SLOCC extensions use both sides);
# fixed, so that the cost of a pass does not depend on the seed
FLAT_SIDE = {"rho3x3": "A", "tiles": "B", "family_2": "A", "rho4x5_stage1": "B"}
# core -> (dimension of its side-A extension space, of its side-B space)
CORE_SPACES = {
    "rho3x3": (7, 7),
    "tiles": (3, 3),
    "family_2": (6, 6),
    "rho4x5_stage1": (11, 14),
}
CORE_REFS = (("rho3x3", "rho3x3"), ("tiles", "tiles"), ("family_2", "family:2"),
             ("rho4x5_stage1", "rho4x5:stage1"), ("rho4x5_stage2", "rho4x5:stage2"))
# acceptance criterion 6's corpus and its extension-space dimensions
CORPUS = {"rho3x3": 7, "family-k2": 6, "tiles": 3, "mixed-2x2": 8,
          "stage1-swapped": 14, "stage2-swapped": 12}


# Entries of the SLOCC directions: every pass uses the same magnitudes with
# seeded positions and signs, so coefficient sizes, and with them the cost
# of exact elimination, do not vary with the seed.
GENERIC = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))


def generic_vector(rng, size):
    """A dense real direction: unlike the 0/1 named states, every entry is
    nonzero.  (Complex entries triple the solve time.)"""
    values = list(GENERIC[:size])
    rng.shuffle(values)
    return tuple(em.GaussianRational(rng.choice((-1, 1)) * v, 0) for v in values)


def permuted(state, rng):
    """The state under a random local relabelling of both sides.

    A local permutation is a local unitary, so every extension-space
    dimension is unchanged while the input differs from pass to pass.
    """
    m, n = state.dims
    pa, pb = list(range(m)), list(range(n))
    rng.shuffle(pa)
    rng.shuffle(pb)
    index = [pa[a] * n + pb[b] for a in range(m) for b in range(n)]
    size = m * n
    rows = [[em.ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            rows[index[i]][index[j]] = state.matrix.entry(i, j)
    return qs.BipartiteState(m, n, em.ExactMatrix(rows), label=f"perm({state.label})")


def decomposition(state):
    """Conic decomposition of a core: its recorded edges, else its LDL*."""
    if state.edges is not None:
        return [e.vec for e in state.edges], [e.weight for e in state.edges]
    res = em.psd_check(state.matrix)
    return list(res.columns), [Fraction(d) for _, d in res.pivots]


def trivial_coupling(core, phi, side):
    """The coupling of the SLOCC direction ``phi``, in the frame that
    ``flat_extension`` expects for ``side``."""
    if side == "A":
        return ex.slocc_coupling(core, phi)
    m, n = core.dims
    chi_sw = ex.slocc_coupling(qs.swap_subsystems(core), phi)
    return em.ExactMatrix([[chi_sw.entry(b * m + a, c) for c in range(m)]
                           for a in range(m) for b in range(n)])


def reconstructs(ext, lifted, remainder):
    """Exact check that the lifted vectors plus the remainder sum to ``ext``."""
    size = ext.matrix.rows
    for i in range(size):
        for j in range(size):
            acc = remainder.entry(i, j)
            for v, w in lifted:
                if v[i] and v[j]:
                    acc = acc + v[i] * v[j].conj() * w
            if acc != ext.matrix.entry(i, j):
                return False
    return True


def extend_inputs(states):
    """Cores, the named corpus and the cores' decompositions."""
    cores = {name: states[name] for name in CORE_SPACES}
    corpus = {
        "rho3x3": states["rho3x3"],
        "family-k2": states["family_2"],
        "tiles": states["tiles"],
        "mixed-2x2": qs.BipartiteState(2, 2, em.ExactMatrix.identity(4), label="mm"),
        "stage1-swapped": qs.swap_subsystems(states["rho4x5_stage1"]),
        "stage2-swapped": qs.swap_subsystems(states["rho4x5_stage2"]),
    }
    decomps = {name: decomposition(c) for name, c in cores.items()}
    return cores, corpus, decomps


def extend_pass(bench: Bench, p: Pass, inputs, rng):
    """SLOCC extensions of each core on both sides and a flat one, each followed
    by the other side's extension space, a lift and an extremality check;
    then the extension spaces of the relabelled corpus."""
    cores, corpus, decomps = inputs
    with bench.untraced():
        requests = []
        for name in sorted(cores):
            core = cores[name]
            for side in "AB":
                local = core.dim_a if side == "A" else core.dim_b
                phi = generic_vector(rng, local)
                requests.append((f"slocc {name} {side}", name, side, ex.slocc_extension,
                                 (core, phi, side)))
                if side == FLAT_SIDE[name]:
                    phi2 = generic_vector(rng, local)
                    requests.append((f"flat {name} {side}", name, side, ex.flat_extension,
                                     (core, trivial_coupling(core, phi2, side), side)))
        rng.shuffle(requests)
        sparse = [(cname, permuted(st, rng)) for cname, st in sorted(corpus.items())]
        rng.shuffle(sparse)

    for label, name, side, build, args in requests:
        ext, exc = bench.call(p, "extend", label, build, *args)
        p.outcome(label, exc is None, repr(exc))
        if exc is not None:
            for follow in ("space", "lift", "extremal"):
                p.outcome(f"{follow} {label}", False, "extension request failed")
            continue
        perp = ext.dim_a - 1 if side == "A" else ext.dim_b - 1

        def other_side_space(ext=ext, side=side):
            return ex.ppt_extension_space(qs.swap_subsystems(ext) if side == "A" else ext)

        expected = CORE_SPACES[name][1 if side == "A" else 0]
        space, exc = bench.call(p, "space", label, other_side_space)
        got = space.dimension if space is not None else None
        p.outcome(f"space {label}", exc is None and got == expected,
                  repr(exc) if exc else f"dimension {got}, expected {expected}",
                  wrong=exc is None)

        vecs, weights = decomps[name]
        lift, exc = bench.call(p, "lift", label, ex.lift_decomposition,
                               ext, side, perp, vecs, weights)
        if exc is not None:
            p.outcome(f"lift {label}", False, repr(exc))
        else:
            with bench.untraced():
                ok = reconstructs(ext, *lift)
            p.outcome(f"lift {label}", ok, "lift does not reconstruct the extension",
                      wrong=True)

        def extremality(ext=ext, side=side, perp=perp):
            return ex.extremality_check_psd(ex.split_blocks(ext, side, perp))

        verdict, exc = bench.call(p, "extremal", label, extremality)
        p.outcome(f"extremal {label}", exc is None and verdict.extremal,
                  repr(exc) if exc else f"not extremal: {verdict.reason}",
                  wrong=exc is None)

    for cname, st in sparse:
        label = f"space {cname}"
        space, exc = bench.call(p, "space_sparse", label, ex.ppt_extension_space, st)
        got = space.dimension if space is not None else None
        p.outcome(label, exc is None and got == CORPUS[cname],
                  repr(exc) if exc else f"dimension {got}, expected {CORPUS[cname]}",
                  wrong=exc is None)


# --------------------------------------------------------------------------
# extend-survey, survey part: numeric sampling, exact rounding, and CLI
# certification of the rounding
# --------------------------------------------------------------------------

# (dims, birank, samples, whether the paper claims no deviation) for each
# `pptlab survey` request; the claim is acceptance criterion 8's
SURVEYS = ((3, 3, 4, 4, 20, True), (3, 4, 5, 6, 6, False))
# (dims, birank) of the samples rounded per pass
ROUNDED = ((3, 3, 4, 4), (4, 4, 7, 7))
NUMERIC_ORACLE = (("rho3x3", 7), ("family_2", 6))


def survey_pass(bench: Bench, p: Pass, states, rng):
    """Two `pptlab survey` requests, the numeric-versus-exact check, and the
    rounding and CLI certification of one sample per shape."""
    seeds = {}
    for m, n, bp, bq, samples, claimed in SURVEYS:
        seed = rng.randrange(1, 10 ** 6)
        seeds[(m, n)] = (seed, samples)
        label = f"survey {m}x{n} ({bp},{bq})"
        res = bench.cli(p, "survey", label,
                        ["survey", "--dims", f"{m}x{n}", "--birank", f"{bp},{bq}",
                         "--samples", str(samples), "--seed", str(seed), "--json"])
        if res.code != 0:
            p.outcome(label, False, res.cause())
            continue
        try:
            reports = json.loads(res.stdout)["reports"]
        except (ValueError, KeyError):
            p.outcome(label, False, "unreadable survey output", wrong=True)
            continue
        converged = sum(r["converged"] for r in reports)
        deviations = sum(len(r["deviations"]) for r in reports)
        p.samples += converged
        if claimed:
            p.outcome(label, converged > 0 and deviations == 0,
                      f"{converged} converged, {deviations} deviations", wrong=True)
        else:
            p.outcome(label, converged > 0, "no sample converged", wrong=True)
            p.notes += [f"{label}: seed {d['seed']} has extension dimension "
                        f"{d['dimension']}, counting predicts {d['expected']}"
                        for r in reports for d in r["deviations"]]

    for stem, expected in NUMERIC_ORACLE:
        label = f"numeric dimension {stem}"
        got, exc = bench.call(p, "numeric", label,
                              lambda s=states[stem]: nl.numeric_extension_dimension(
                                  nl.from_exact(s)))
        p.outcome(label, exc is None and got == expected,
                  repr(exc) if exc else f"dimension {got}, expected {expected}",
                  wrong=exc is None)

    for m, n, bp, bq in ROUNDED:
        if (m, n) in seeds:
            first, samples = seeds[(m, n)]
            seed = first + rng.randrange(samples)
        else:
            seed = rng.randrange(1, 10 ** 6)
        name = f"{m}x{n}-s{seed}"
        # a sample that does not converge is skipped, as the survey skips it
        for attempt in range(10):
            st, exc = bench.call(p, "sample", f"sample {name}", nl.gauss_newton_birank,
                                 m, n, bp, bq, seed + attempt)
            if not isinstance(exc, ConvergenceFailure):
                break
        label = f"round {name}"
        if exc is not None:
            p.outcome(label, False, repr(exc))
            continue
        exact, exc = bench.call(p, "round", label, nl.rationalize_to_birank, st)
        p.outcome(label, exc is None, repr(exc))
        state_path = bench.path(f"rounded_{m}x{n}.json")
        cert = _fresh(bench.path(f"ppt_rounded_{m}x{n}.json"))
        if exc is not None:
            p.outcome(f"ppt-check {name}", False, "rounding failed")
            p.outcome(f"verify {name}", False, "rounding failed")
            continue
        with bench.untraced(), open(state_path, "w") as fh:
            json.dump(se.state_to_json(exact), fh)
        label = f"ppt-check {name}"
        res = bench.cli(p, "ppt", label, ["ppt-check", "--state", state_path, "--out", cert])
        check_ppt(p, label, res, cert)
        verify_request(bench, p, f"verify {name}", cert)


class ExtendSurveyWorkload:
    def setup(self, bench: Bench, subdir):
        paths = build_states(bench, CORE_REFS, subdir)
        states = {stem: se.state_from_json(se.load(path)) for stem, path in paths.items()}
        return extend_inputs(states), states

    def run_pass(self, bench: Bench, p: Pass, inputs, rng):
        extend, states = inputs
        bench.group = "extend"
        extend_pass(bench, p, extend, rng)
        bench.group = "survey"
        survey_pass(bench, p, states, rng)


WORKLOADS = {
    "extend-survey": ExtendSurveyWorkload(),
    "certify": CertifyWorkload(),
}
