"""``pptlab certify-sn``: the sn-verdict of a state with recorded edges,
from :func:`certifier.certify_sn`; the Groebner oracle is not loaded."""

import sys

from .. import certifier as ce
from .. import serialize as se
from . import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK, _emit
from .states import load_state


def run(args) -> int:
    state = load_state(args.state)
    if not state.edges:
        print("certify-sn: state carries no range decomposition", file=sys.stderr)
        return EXIT_INPUT
    lower, upper = ce.certify_sn(state, args.k, args.exclude_deltas)
    payload = se.sn_verdict_certificate(state, lower, upper)
    if isinstance(lower, ce.LowerBound):
        _emit(args, payload, text=f"{state.label}: {payload['verdict']} "
              f"(lower N={lower.power}, upper max SR={upper.value})")
        return EXIT_OK
    _emit(args, payload, text=payload["verdict"])
    return EXIT_INCONCLUSIVE
