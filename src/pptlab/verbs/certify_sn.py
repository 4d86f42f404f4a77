"""``pptlab certify-sn``: the sn-verdict (:func:`certifier.certify_sn`) of a
state read by :func:`edge_state`, which ``plot`` shares (loading no certifier)."""

from .. import replay as rp
from . import EXIT_INCONCLUSIVE, EXIT_OK, InputError, _emit, _parse
from .states import named_state


def run(args) -> int:
    from .. import certifier as ce
    from .. import serialize as se
    state = edge_state(args.state)
    lower, upper = ce.certify_sn(state, args.k, args.exclude_deltas)
    payload = se.sn_verdict_certificate(state, lower, upper)
    if isinstance(lower, ce.LowerBound):
        _emit(args, payload, text=f"{state.label}: {payload['verdict']} "
              f"(lower N={lower.power}, upper max SR={upper.value})")
        return EXIT_OK
    _emit(args, payload, text=payload["verdict"])
    return EXIT_INCONCLUSIVE


def edge_state(ref: str) -> rp.BipartiteState:
    """The state ``ref`` names (each records its edges), or the edge state in
    the file ``ref``; a file without edges is refused unread, before any LDL*."""
    state = named_state(ref)
    if state is None:
        data = _parse(rp.load, ref)
        state = rp.read_state(data) if isinstance(data, dict) and data.get("edges") else None
    if state is None:
        raise InputError("state carries no edge decomposition")
    return state
