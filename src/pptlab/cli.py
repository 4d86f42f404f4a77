"""Command-line interface.

Reproducible workflows over files; a verb that computes a payload prints
it under ``--json`` and writes it to ``--out`` (``verify`` and ``plot``
print text only).  Exit codes: 0 a verdict was produced, 1 the run was
inconclusive (failed certificate replay, inconclusive certification, failed
acceptance), 2 input error: input that does not parse, or a
:class:`PptlabError` the input causes.  Any other exception is a fault of
the program and surfaces with its traceback.

Each verb imports the modules it runs, inside its ``cmd_*`` function:
``serialize`` (and with it the exact layer) for every verb that reads or
writes a state or certificate, ``algcert`` for ``certify-sn``,
``extender`` for ``extend`` and ``extremal``, and ``numlab`` (numpy) for
``sample`` and ``survey``, which load no exact module.  ``constructions``
loads only for ``build`` and for a named state (``rho3x3``, ``rho4x5``,
``tiles``, ``family:k``), and the replay kernel ``minors`` only to replay
an sn-lower half, so ``verify`` never loads the certifier.  Only
``--verbose`` imports and configures ``logging``.  ``ppt-check`` of a
stored matrix state factors it once: the certificate's LDL* of rho is its
check.

``certify-sn`` runs :func:`algcert.certify_sn` and writes one
``sn-verdict``: the state once, the evidence of the lower and upper bounds,
and the verdict line.  ``verify`` replays the two certificate kinds, ``ppt``
and ``sn-verdict``, and fails one in a retired layout with a request to
re-run the verb that wrote it.

Examples:

    pptlab build --state family:3 --out fam3.json
    pptlab ppt-check --state fam3.json
    pptlab build --state rho4x5 --out rho45.json
    pptlab certify-sn --state rho45.json --k 3 --out cert.json
    pptlab verify cert.json
    pptlab survey --dims 3x3 --birank 4,4 --samples 100 --seed 2026
    pptlab reproduce --json
    pptlab plot --state rho3x3
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import ConvergenceFailure, InternalInconsistency, PptlabError

if TYPE_CHECKING:
    from . import qstates as qs

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2


class InputError(PptlabError):
    """Command-line input that does not parse (exit 2)."""


# what reading a file, JSON text or a number raises on malformed input
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


def _parse(parse, *args):
    """``parse(*args)``, with the exceptions of malformed input raised as
    :class:`InputError`.  Only input parsing goes through here, so the same
    exceptions from the computation itself keep their tracebacks."""
    try:
        return parse(*args)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from exc
    except _PARSE_ERRORS as exc:
        raise InputError(f"{type(exc).__name__}: {exc}") from exc


# named state references: name -> the state, from the constructions module
NAMED_STATES = {
    "rho3x3": lambda co: co.rho_3x3(),
    "rho4x5": lambda co: co.rho_4x5().final,
    "rho4x5:stage1": lambda co: co.rho_4x5().stage1,
    "rho4x5:stage2": lambda co: co.rho_4x5().stage2,
    "tiles": lambda co: co.tiles_complement(),
}


def _named_state(ref: str) -> qs.BipartiteState | None:
    """The state ``ref`` names, or None when ``ref`` is a file."""
    if ref not in NAMED_STATES and not ref.startswith("family:"):
        return None
    from . import constructions as co

    if ref in NAMED_STATES:
        return NAMED_STATES[ref](co)
    return co.rho_family(_parse(int, ref.split(":", 1)[1]))


def _load_state(ref: str) -> qs.BipartiteState:
    """The state ``ref`` names, or the one stored in the file ``ref``."""
    state = _named_state(ref)
    if state is None:
        from . import serialize as se

        state = se.state_from_json(_parse(se.load, ref))
    return state


def _emit(args, payload: dict, text: str) -> None:
    """Write the JSON payload to ``--out`` when given, and print it under
    ``--json``; otherwise print ``text``.  The payload is encoded once."""
    path = args.out
    encoded = json.dumps(payload, indent=2) if path or args.json else None
    if path:
        with open(path, "w") as fh:
            fh.write(encoded + "\n")
    print(encoded if args.json else text)


def cmd_build(args) -> int:
    from . import constructions as co
    from . import serialize as se

    if args.graph:
        g = _parse(se.graph_from_json, _parse(se.load, args.graph))
        state = co.grid_to_state(g, label=args.label or "grid-state")
    elif args.state:
        state = _load_state(args.state)
    else:
        print("build: need --graph or --state", file=sys.stderr)
        return EXIT_INPUT
    payload = se.state_to_json(state)
    _emit(args, payload, text=f"built {state.dim_a}x{state.dim_b} state "
          f"{state.label!r} (trace {state.matrix.trace()})")
    return EXIT_OK


def cmd_ppt_check(args) -> int:
    from . import serialize as se

    state = _named_state(args.state)
    if state is None:  # the certificate's LDL* of rho checks a stored matrix state
        state = se.ppt_state_from_json(_parse(se.load, args.state))
    cert = se.ppt_certificate(state)
    verdict = cert["verdict"]
    _emit(args, cert, text=f"{state.label or 'state'}: {verdict}")
    return EXIT_OK


def cmd_extend(args) -> int:
    from . import extender as ex
    from . import serialize as se

    state = _load_state(args.state)
    data = _parse(json.loads, args.step)
    if not isinstance(data, dict):
        raise InputError("--step must be a JSON object")
    step = _parse(se.step_from_json, data, f"{data.get('kind')}({state.label})")
    out = ex.run_pipeline(state, [step])[0]
    _emit(args, se.state_to_json(out),
          text=f"extended to {out.dim_a}x{out.dim_b} ({step.kind} on side {step.side})")
    return EXIT_OK


def cmd_certify_sn(args) -> int:
    from . import algcert as ac
    from . import serialize as se

    state = _load_state(args.state)
    if not state.edges:
        print("certify-sn: state carries no range decomposition", file=sys.stderr)
        return EXIT_INPUT
    lower, upper = ac.certify_sn(state, args.k, args.exclude_deltas)
    payload = se.sn_verdict_certificate(state, lower, upper)
    if isinstance(lower, ac.LowerBound):
        _emit(args, payload, text=f"{state.label}: {payload['verdict']} "
              f"(lower N={lower.power}, upper max SR={upper.value})")
        return EXIT_OK
    _emit(args, payload, text=payload["verdict"])
    return EXIT_INCONCLUSIVE


def cmd_extremal(args) -> int:
    from . import extender as ex

    state = _load_state(args.state)
    side = args.side
    perp = args.perp if args.perp is not None else \
        (state.dim_a - 1 if side == "A" else state.dim_b - 1)
    blocks = ex.split_blocks(state, side, perp)
    psd_v = ex.extremality_check_psd(blocks)
    payload = {
        "kind": "extremality",
        "side": side,
        "perp_index": perp,
        "psd_cone": {"extremal": psd_v.extremal, "reason": psd_v.reason},
    }
    try:
        ppt_v = ex.extremality_check_ppt(blocks)
        payload["ppt_cone"] = {
            "verdict": ppt_v.verdict,
            "trivial_range_intersection": ppt_v.triv_intersection_ok,
            "perturbation_dimension": ppt_v.perturbation_dimension,
            "note": ex.PPT_EXTREMALITY_NOTE,
        }
    except PptlabError as exc:
        payload["ppt_cone"] = {"error": str(exc)}
    text = (f"PSD cone: {'Extremal' if psd_v.extremal else 'NotExtremal'} ({psd_v.reason}); "
            f"PPT cone: {payload['ppt_cone'].get('verdict', 'n/a')}")
    _emit(args, payload, text=text)
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import numlab as nl

    m, n = _parse(_parse_dims, args.dims)
    p, q = _parse(_parse_birank, args.birank)
    _check_seed(args.seed)
    try:
        st = nl.gauss_newton_birank(m, n, p, q, seed=args.seed)
    except ConvergenceFailure as exc:
        print(f"sample: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload = {
        "kind": "sample",
        "dims": [m, n],
        "birank": [p, q],
        "seed": args.seed,
        "residual": st.residual,
        "iterations": st.iterations,
        "matrix": {"re": [[float(x.real) for x in row] for row in st.matrix],
                   "im": [[float(x.imag) for x in row] for row in st.matrix]},
    }
    _emit(args, payload, text=f"sampled {m}x{n} birank ({p},{q}): residual {st.residual:.2e} "
          f"in {st.iterations} iterations")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generator takes no negative seed
        raise InputError("--seed must be at least 0")


def cmd_survey(args) -> int:
    from . import numlab as nl

    dims = [_parse(_parse_dims, d) for d in args.dims.split()]
    biranks = [_parse(_parse_birank, b) for b in args.birank.split()]
    if args.samples < 1:  # no residual to report, and JSON has no NaN
        raise InputError("--samples must be at least 1")
    _check_seed(args.seed)
    reports = nl.unextendibility_survey(dims, biranks, samples=args.samples, seed=args.seed)
    payload = {"kind": "survey", "reports": [r.to_json() for r in reports]}
    _emit(args, payload, text=nl.survey_table(reports))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import serialize as se

    data = _parse(se.load, args.certificate)
    try:
        se.verify_certificate(data)
    except PptlabError as exc:
        # a certificate that does not parse fails like one whose replay fails
        print(f"verify: FAILED: {exc}")
        return EXIT_INCONCLUSIVE
    print(f"verify: OK ({data.get('kind')})")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from . import acceptance

    results = acceptance.run_all(seed=args.seed)
    payload = acceptance.manifest(results)
    _emit(args, payload, text="\n".join(r.line() for r in results))
    return EXIT_OK if payload["passed"] else EXIT_INCONCLUSIVE


def cmd_plot(args) -> int:
    state = _load_state(args.state)
    if state.edges is None:
        print("plot: state carries no edge decomposition", file=sys.stderr)
        return EXIT_INPUT
    text = render_grid(state)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(state))
        print(f"wrote {args.svg}")
    print(text)
    return EXIT_OK


def render_grid(state: qs.BipartiteState) -> str:
    """ASCII rendering: the site grid plus one line per edge."""
    m, n = state.dims
    lines = [f"{state.label or 'state'}: {m}x{n} grid, {len(state.edges)} edges"]
    used = [[" ." for _ in range(n)] for _ in range(m)]
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    legend = []
    for idx, e in enumerate(state.edges):
        tag = letters[idx % len(letters)]
        sites = []
        for i in range(m):
            for j in range(n):
                x = e.vec[i * n + j]
                if x:
                    sites.append((i, j, x))
                    used[i][j] = f" {tag}" if used[i][j] == " ." else used[i][j][:1] + "*"
        desc = " ".join(f"{'+' if x.re >= 0 and x.im == 0 else ''}{x}|{i}{j}>" for i, j, x in sites)
        legend.append(f"  {tag}: {e.name} (weight {e.weight}) = {desc}")
    for i in range(m):
        lines.append("".join(used[i]))
    lines.extend(legend)
    lines.append("  (* marks sites shared by several edges)")
    return "\n".join(lines)


def render_svg(state: qs.BipartiteState) -> str:
    """Minimal SVG: sites as circles, edges as polylines (display only)."""
    m, n = state.dims
    cell = 60
    pad = 40
    w, h = pad * 2 + (n - 1) * cell, pad * 2 + (m - 1) * cell
    colors = ["#2a6f97", "#c44536", "#6a994e", "#b07d2b", "#7251b5", "#3a7ca5"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for idx, e in enumerate(state.edges):
        sites = [(i, j) for i in range(m) for j in range(n) if e.vec[i * n + j]]
        color = colors[idx % len(colors)]
        negative = any((e.vec[i * n + j].re < 0 or e.vec[i * n + j].im != 0) for i, j in sites)
        dash = ' stroke-dasharray="6,4"' if negative else ""
        pts = " ".join(f"{pad + j * cell},{pad + i * cell}" for i, j in sites)
        if len(sites) > 1:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="3"{dash}/>')
        for i, j in sites:
            parts.append(f'<circle cx="{pad + j * cell}" cy="{pad + i * cell}" r="6" '
                         f'fill="{color}"/>')
    for i in range(m):
        for j in range(n):
            parts.append(f'<circle cx="{pad + j * cell}" cy="{pad + i * cell}" r="2" '
                         f'fill="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _parse_dims(text: str):
    m, n = text.lower().split("x")
    return int(m), int(n)


def _parse_birank(text: str):
    p, q = text.split(",")
    return int(p), int(q)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pptlab",
                                 description="exact PPT extensions and Schmidt-number certificates")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", help="write the JSON payload to this path")

    p = sub.add_parser("build", help="build a state from a grid graph or a name")
    p.add_argument("--graph", help="GridGraph JSON file")
    p.add_argument("--state", help="named state (e.g. rho4x5, family:3) or state JSON file")
    p.add_argument("--label", default="")
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("ppt-check", help="exact PPT certificate")
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(fn=cmd_ppt_check)

    p = sub.add_parser("extend", help="apply one serialized extension step")
    p.add_argument("--state", required=True)
    p.add_argument("--step", required=True,
                   help='JSON step, e.g. {"kind":"slocc","side":"A","phi":["1","0"]}')
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser(
        "certify-sn", help="Schmidt number certification (lower + upper)",
        description="Lower bound SN >= k by the range criterion: an identity "
                    "sum_i c_i det M[rows_i, cols_i] = x_w^N over the k x k minors of the "
                    "range coordinate matrix M, found by a linear cofactor solve and stored "
                    "as the [rows, cols, c_i] of the minors it uses.  Upper bound from the "
                    "state's edge decomposition (max Schmidt rank).")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, help="target Schmidt number (default: max edge SR)")
    p.add_argument("--method", choices=("linear",), default="linear",
                   help="ideal-membership route: the homogeneous cofactor solver "
                        "(the only route)")
    p.add_argument("--exclude-deltas", action="store_true",
                   help="search only minors free of delta variables (family states)")
    common(p)
    p.set_defaults(fn=cmd_certify_sn)

    p = sub.add_parser("extremal", help="extremality checks of a split extension")
    p.add_argument("--state", required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--perp", type=int, default=None,
                   help="local index of the adjoined level (default: last)")
    common(p)
    p.set_defaults(fn=cmd_extremal)

    p = sub.add_parser("sample", help="one Gauss-Newton birank sample")
    p.add_argument("--dims", required=True, help="e.g. 3x3")
    p.add_argument("--birank", required=True, help="e.g. 4,4")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("survey", help="unextendibility survey over dims and biranks")
    p.add_argument("--dims", required=True, help="space-separated, e.g. '3x3 3x4'")
    p.add_argument("--birank", required=True, help="space-separated, e.g. '4,4 5,6'")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_survey)

    p = sub.add_parser("verify", help="replay a certificate without re-deriving it")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    common(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("plot", help="grid-graph diagram of a state's edges (display only)")
    p.add_argument("--state", required=True)
    p.add_argument("--svg", help="also write an SVG file")
    p.set_defaults(fn=cmd_plot)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except InternalInconsistency:
        raise
    except InputError as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PptlabError as exc:
        print(f"{args.verb}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
