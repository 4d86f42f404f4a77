"""``pptlab survey``: the unextendibility survey over dimensions and biranks."""

from .. import numlab as nl
from . import EXIT_OK, InputError, _emit, _parse
from .sample import _check_seed, _parse_birank, _parse_dims


def run(args) -> int:
    dims = [_parse(_parse_dims, d) for d in args.dims.split()]
    biranks = [_parse(_parse_birank, b) for b in args.birank.split()]
    if args.samples < 1:  # no residual to report, and JSON has no NaN
        raise InputError("--samples must be at least 1")
    _check_seed(args.seed)
    reports = nl.unextendibility_survey(dims, biranks, samples=args.samples, seed=args.seed)
    payload = {"kind": "survey", "reports": [r.to_json() for r in reports]}
    _emit(args, payload, text=nl.survey_table(reports))
    return EXIT_OK
