"""``pptlab sample``: one Gauss-Newton birank sample, and the parsers of
dimensions, biranks and seeds that ``survey`` shares."""

import sys

from .. import numlab as nl
from ..errors import ConvergenceFailure
from . import EXIT_INCONCLUSIVE, EXIT_OK, InputError, _emit, _parse


def run(args) -> int:
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


def _parse_dims(text: str):
    m, n = text.lower().split("x")
    return int(m), int(n)


def _parse_birank(text: str):
    p, q = text.split(",")
    return int(p), int(q)
