"""``pptlab build``: a state from a grid graph or a name, as state JSON."""

import sys

from .. import constructions as co
from .. import serialize as se
from . import EXIT_INPUT, EXIT_OK, _emit, _parse
from .states import load_state


def run(args) -> int:
    if args.graph:
        g = _parse(se.graph_from_json, _parse(se.load, args.graph))
        state = co.grid_to_state(g, label=args.label or "grid-state")
    elif args.state:
        state = load_state(args.state)
    else:
        print("build: need --graph or --state", file=sys.stderr)
        return EXIT_INPUT
    payload = se.state_to_json(state)
    _emit(args, payload, text=f"built {state.dim_a}x{state.dim_b} state "
          f"{state.label!r} (trace {state.matrix.trace()})")
    return EXIT_OK
