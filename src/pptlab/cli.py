"""Command-line interface: the parser, and the dispatch to one verb.

Reproducible workflows over files; a verb that computes a payload prints
it under ``--json`` and writes it to ``--out`` (``verify`` and ``plot``
print text only).  Exit codes: 0 a verdict was produced, 1 the run was
inconclusive (failed certificate replay, inconclusive certification, failed
acceptance), 2 input error: input that does not parse, or a
:class:`PptlabError` the input causes.  Any other exception is a fault of
the program and surfaces with its traceback.  A reader that closes stdout
early (``| head``) ends the process with 141, as SIGPIPE would, and
nothing on stderr.

This module holds only the parser, :func:`run` and :func:`main`.  After
parsing, :func:`run` imports the one module of :mod:`pptlab.verbs` that
holds the verb's body (``certify-sn`` runs ``verbs/certify_sn.py``), so a
process compiles its verb and what that verb imports: ``verify`` only the
replay kernel :mod:`pptlab.replay` (and :mod:`pptlab.minors` for an
sn-verdict), ``certify-sn`` the certifier but not the polynomials of
the Groebner oracle, ``sample`` and ``survey`` numpy but no exact module.
Only ``--verbose`` imports ``logging``; :func:`run` builds one subparser.

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
import gc
import os
import sys
from importlib import import_module

from .errors import InternalInconsistency, PptlabError
from .verbs import EXIT_INPUT, InputError


# every verb, in the order ``pptlab --help`` lists them
VERBS = ("build", "ppt-check", "extend", "certify-sn", "extremal", "sample", "survey",
         "verify", "reproduce", "plot")


def build_parser(verbs) -> argparse.ArgumentParser:
    """The ``pptlab`` parser with the subparsers of ``verbs`` alone, whose
    usage still lists all :data:`VERBS`, as the full parser's does."""
    ap = argparse.ArgumentParser(prog="pptlab",
                                 description="exact PPT extensions and Schmidt-number certificates")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="verb", required=True)
    if len(verbs) < len(VERBS):  # the metavar the full parser forms from its choices
        sub.metavar = "{" + ",".join(VERBS) + "}"

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", help="write the JSON payload to this path")

    if "build" in verbs:
        p = sub.add_parser("build", help="build a state from a grid graph or a name")
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--graph", help="grid-graph JSON file")
        one.add_argument("--state", help="named state (e.g. rho4x5, family:3) or state JSON file")
        p.add_argument("--label", default="")
        common(p)

    if "ppt-check" in verbs:
        p = sub.add_parser("ppt-check", help="exact PPT certificate")
        p.add_argument("--state", required=True)
        common(p)

    if "extend" in verbs:
        p = sub.add_parser("extend", help="apply one serialized extension step")
        p.add_argument("--state", required=True)
        p.add_argument("--step", required=True,
                       help='JSON step, e.g. {"kind":"slocc","side":"A","phi":["1","0"]}')
        common(p)

    if "certify-sn" in verbs:
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

    if "extremal" in verbs:
        p = sub.add_parser("extremal", help="extremality checks of a split extension")
        p.add_argument("--state", required=True)
        p.add_argument("--side", choices=("A", "B"), default="A")
        p.add_argument("--perp", type=int, default=None,
                       help="local index of the adjoined level (default: last)")
        common(p)

    if "sample" in verbs:
        p = sub.add_parser("sample", help="one Gauss-Newton birank sample")
        p.add_argument("--dims", required=True, help="e.g. 3x3")
        p.add_argument("--birank", required=True, help="e.g. 4,4")
        p.add_argument("--seed", type=int, default=0)
        common(p)

    if "survey" in verbs:
        p = sub.add_parser("survey", help="unextendibility survey over dims and biranks")
        p.add_argument("--dims", required=True, help="space-separated, e.g. '3x3 3x4'")
        p.add_argument("--birank", required=True, help="space-separated, e.g. '4,4 5,6'")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        common(p)

    if "verify" in verbs:
        p = sub.add_parser("verify", help="replay a certificate without re-deriving it")
        p.add_argument("certificate")

    if "reproduce" in verbs:
        p = sub.add_parser("reproduce", help="run the acceptance suite")
        common(p)

    if "plot" in verbs:
        p = sub.add_parser("plot", help="grid-graph diagram of a state's edges (display only)")
        p.add_argument("--state", required=True)
        p.add_argument("--svg", help="also write an SVG file")

    return ap


def _verbs_to_build(argv) -> tuple:
    """The verb :func:`run` runs, the first argument not starting with
    ``-``, when only ``-v`` or ``--verbose`` (which take no value) comes
    before it; else all :data:`VERBS`, so help and errors list them all."""
    for i, arg in enumerate(argv):
        if not arg.startswith("-"):
            if arg in VERBS and set(argv[:i]) <= {"-v", "--verbose"}:
                return (arg,)
            break
    return VERBS


def run(argv) -> int:
    args = build_parser(_verbs_to_build(argv)).parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    verb = import_module(f"pptlab.verbs.{args.verb.replace('-', '_')}")
    try:
        return verb.run(args)
    except InternalInconsistency:
        raise
    except InputError as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PptlabError as exc:
        print(f"{args.verb}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    """The ``pptlab`` command.  Every way out of :func:`run` freezes the
    collector's objects, so the interpreter's shutdown does not walk them;
    :func:`run` itself also runs in long-lived processes, and never does."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's shutdown
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for that flush
        code = 141
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
