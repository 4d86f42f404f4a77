"""``pptlab certify-sn``: the sn-verdict of a state with recorded edges
(:func:`certifier.certify_sn`); a state file without them is refused unread."""

import sys

from .. import certifier as ce
from .. import serialize as se
from . import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_OK, _emit, _parse
from .states import named_state


def run(args) -> int:
    state = named_state(args.state)
    if state is None:
        data = _parse(se.load, args.state)
        state = se.state_from_json(data) if isinstance(data, dict) and data.get("edges") else None
    if state is None or not state.edges:
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
