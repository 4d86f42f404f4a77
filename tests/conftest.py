"""Fixtures that patch a package function wherever the package calls it.

``exactmat``, ``qstates`` and ``serialize`` import what ``verify`` runs
from the replay kernel ``pptlab.replay`` under the same names, so one
function object (``weighted_gram``, say) is bound in several modules, and
a call reaches it through whichever module its caller names.  A patch of
one module alone would miss the calls made through the others.  The LDL*
(``psd_check``, ``state_ldl``) is bound in ``exactmat`` alone, since no
``verify`` runs it.
"""

import sys

import pytest


@pytest.fixture
def replace(monkeypatch):
    """``replace(module, name, fn)``: bind ``fn`` in place of ``module.name``
    in every loaded ``pptlab`` module that holds the same object."""

    def install(module, name, fn):
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").split(".")[0] == "pptlab"
                    and loaded.__dict__.get(name) is original):
                monkeypatch.setattr(loaded, name, fn)

    return install


@pytest.fixture
def spy(replace):
    """``spy(module, *names)``: the list of ``(name, args)`` of each later
    call of ``module.name``, through whichever module it is made."""
    calls = []

    def install(module, *names):
        for name in names:
            original = getattr(module, name)
            replace(module, name, lambda *args, _name=name, _original=original, **kwargs:
                    calls.append((_name, args)) or _original(*args, **kwargs))
        return calls

    return install
