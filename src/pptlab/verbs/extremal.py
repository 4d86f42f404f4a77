"""``pptlab extremal``: extremality checks of a split extension."""

from .. import extender as ex
from ..errors import PptlabError
from . import EXIT_OK, _emit
from .states import load_state


def run(args) -> int:
    state = load_state(args.state)
    side = args.side
    perp = args.perp if args.perp is not None else \
        (state.dim_a - 1 if side == "A" else state.dim_b - 1)
    blocks = ex.split_blocks(state, side, perp)
    psd_v = ex.extremality_check_psd(blocks)
    payload = {
        "kind": "extremality",
        "side": side,
        "perp_index": perp,
        "psd_cone": {"extremal": psd_v.extremal, "reason": psd_v.reason},
    }
    try:
        ppt_v = ex.extremality_check_ppt(blocks)
        payload["ppt_cone"] = {
            "verdict": ppt_v.verdict,
            "trivial_range_intersection": ppt_v.triv_intersection_ok,
            "perturbation_dimension": ppt_v.perturbation_dimension,
            "note": ex.PPT_EXTREMALITY_NOTE,
        }
    except PptlabError as exc:
        payload["ppt_cone"] = {"error": str(exc)}
    text = (f"PSD cone: {'Extremal' if psd_v.extremal else 'NotExtremal'} ({psd_v.reason}); "
            f"PPT cone: {payload['ppt_cone'].get('verdict', 'n/a')}")
    _emit(args, payload, text=text)
    return EXIT_OK
