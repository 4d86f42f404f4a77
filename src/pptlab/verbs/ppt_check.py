"""``pptlab ppt-check``: the exact PPT certificate of a state."""

from .. import serialize as se
from . import EXIT_OK, _emit, _parse
from .states import named_state


def run(args) -> int:
    state = named_state(args.state)
    if state is None:  # the certificate's LDL* of rho checks a stored matrix state
        state = se.read_state(_parse(se.load, args.state))
    cert = se.ppt_certificate(state)
    verdict = cert["verdict"]
    _emit(args, cert, text=f"{state.label or 'state'}: {verdict}")
    return EXIT_OK
