"""``pptlab extend``: one serialized extension step applied to a state."""

import json

from .. import extender as ex
from .. import serialize as se
from . import EXIT_OK, InputError, _emit, _parse
from .states import load_state


def run(args) -> int:
    state = load_state(args.state)
    data = _parse(json.loads, args.step)
    if not isinstance(data, dict):
        raise InputError("--step must be a JSON object")
    step = _parse(se.step_from_json, data, f"{data.get('kind')}({state.label})")
    out = ex.run_pipeline(state, [step])[0]
    _emit(args, se.state_to_json(out),
          text=f"extended to {out.dim_a}x{out.dim_b} ({step.kind} on side {step.side})")
    return EXIT_OK
