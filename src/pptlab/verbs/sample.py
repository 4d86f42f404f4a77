"""``pptlab sample``: one Gauss-Newton birank sample, and the parser of
dimensions and biranks that ``survey`` shares; :mod:`pptlab.numlab`
refuses a seed below 0."""

import sys

from .. import numlab as nl
from ..errors import ConvergenceFailure
from . import EXIT_INCONCLUSIVE, EXIT_OK, InputError, _emit


def run(args) -> int:
    m, n = _int_pair("--dims", args.dims)
    p, q = _int_pair("--birank", args.birank)
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


def _int_pair(option: str, text: str) -> tuple:
    """The two ints ``text`` gives ``--dims`` or ``--birank``; else an
    :class:`InputError` naming the option's form."""
    sep, form = ("x", "MxN, e.g. 3x3") if option == "--dims" else (",", "p,q, e.g. 4,4")
    try:
        a, b = map(int, text.lower().split(sep))
    except ValueError:  # a count other than two, or a part that is no int
        raise InputError(f"{option} {text!r} is not of the form {form}") from None
    return a, b
