"""State references on the command line: a named state or a state file."""

from __future__ import annotations

from .. import replay as rp
from . import _parse

# named state references: name -> the state, from the constructions module
NAMED_STATES = {
    "rho3x3": lambda co: co.rho_3x3(),
    "rho4x5": lambda co: co.rho_4x5().final,
    "rho4x5:stage1": lambda co: co.rho_4x5().stage1,
    "rho4x5:stage2": lambda co: co.rho_4x5().stage2,
    "tiles": lambda co: co.tiles_complement(),
}


def named_state(ref: str) -> rp.BipartiteState | None:
    """The state ``ref`` names, or None when ``ref`` is a file."""
    if ref not in NAMED_STATES and not ref.startswith("family:"):
        return None
    from .. import constructions as co

    if ref in NAMED_STATES:
        return NAMED_STATES[ref](co)
    return co.rho_family(_parse(int, ref.split(":", 1)[1]))


def load_state(ref: str) -> rp.BipartiteState:
    """The state ``ref`` names, or the one stored in the file ``ref``."""
    state = named_state(ref)
    if state is None:
        from .. import serialize as se
        state = se.state_from_json(_parse(rp.load, ref))
    return state
