"""``pptlab verify``: replay a certificate on the replay kernel alone."""

from .. import replay as rp
from ..errors import PptlabError
from . import EXIT_INCONCLUSIVE, EXIT_OK, _parse


def run(args) -> int:
    data = _parse(rp.load, args.certificate)
    try:
        rp.verify_certificate(data)
    except PptlabError as exc:
        # a certificate that does not parse fails like one whose replay fails
        print(f"verify: FAILED: {exc}")
        return EXIT_INCONCLUSIVE
    print(f"verify: OK ({data.get('kind')})")
    return EXIT_OK
