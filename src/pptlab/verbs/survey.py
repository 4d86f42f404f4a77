"""``pptlab survey``: the unextendibility survey over dimensions and biranks."""

from .. import numlab as nl
from . import EXIT_OK, InputError, _emit
from .sample import _int_pair


def run(args) -> int:
    dims = [_int_pair("--dims", d) for d in args.dims.split()]
    biranks = [_int_pair("--birank", b) for b in args.birank.split()]
    for option, values in (("--dims", dims), ("--birank", biranks)):
        if not values:  # an empty survey would report nothing and exit 0
            raise InputError(f"{option} lists nothing to survey")
    if args.samples < 1:  # no residual to report, and JSON has no NaN
        raise InputError("--samples must be at least 1")
    reports = nl.unextendibility_survey(dims, biranks, samples=args.samples, seed=args.seed)
    payload = {"kind": "survey", "reports": [r.to_json() for r in reports]}
    _emit(args, payload, text=nl.survey_table(reports))
    return EXIT_OK
