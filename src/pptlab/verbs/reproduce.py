"""``pptlab reproduce``: the acceptance suite and its manifest."""

from .. import acceptance
from . import EXIT_INCONCLUSIVE, EXIT_OK, _emit


def run(args) -> int:
    results = acceptance.run_all()
    payload = acceptance.manifest(results)
    _emit(args, payload, text="\n".join(r.line() for r in results))
    return EXIT_OK if payload["passed"] else EXIT_INCONCLUSIVE
