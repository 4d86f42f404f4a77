"""``pptlab build``: a state from a grid graph or a name, as state JSON."""

from .. import constructions as co
from .. import exactmat as em
from .. import serialize as se
from . import EXIT_OK, _emit, _parse
from .states import load_state


def run(args) -> int:
    if args.graph is not None:
        state = co.graph_state(_parse(se.load, args.graph), args.label or "grid-state")
    else:
        state = load_state(args.state)
    payload = dict(se.state_to_json(state), label=args.label or state.label)
    _emit(args, payload, text=f"built {state.dim_a}x{state.dim_b} state "
          f"{payload['label']!r} (trace {em.trace(state.matrix)})")
    return EXIT_OK
