"""The benchmark tracer (``pptbench/tracer.py``) against the package: every
layer it names exists, and installing then uninstalling it leaves the
package as it was.  The traced benchmark runs would otherwise be the first
to notice a renamed or deleted function."""

import importlib
import importlib.util
from pathlib import Path

from pptlab import serialize as se

TRACER = Path(__file__).resolve().parents[1] / "pptbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("pptbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name: str, path: str) -> tuple:
    """The object holding a ``WRAPPED`` attribute, and the attribute name."""
    owner = importlib.import_module(f"pptlab.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_wraps_every_named_layer_and_restores_it():
    tracer_module = _load_tracer()
    targets = [_owner(*name) for name in tracer_module.WRAPPED]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert not missing, f"WRAPPED names that no longer resolve: {missing}"
    before = [owner.__dict__[attr] for owner, attr in targets]
    verifiers = dict(se.VERIFIERS)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        during = [owner.__dict__[attr] for owner, attr in targets]
        assert all(now is not raw for now, raw in zip(during, before))
    finally:
        tracer.uninstall()
    restored = [owner.__dict__[attr] for owner, attr in targets]
    assert all(now is raw for now, raw in zip(restored, before))
    assert se.VERIFIERS == verifiers
    assert all(se.VERIFIERS[kind] is fn for kind, fn in verifiers.items())
