"""Acceptance suite: one test per criterion, each printing its verdict line."""

import os
import subprocess
import sys

from pptlab import acceptance
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab.errors import DecompositionMismatch

REPRODUCE_SEED = 7  # the default of `pptlab reproduce --seed`


def _check(result):
    print()
    print(result.line())
    for key, value in result.details.items():
        print(f"    {key}: {value}")
    assert result.passed, result.details


def test_criterion_1_rho3x3_regression():
    _check(acceptance.criterion_1())


def test_criterion_2_rho4x5_pipeline():
    _check(acceptance.criterion_2())


def test_criterion_3_stage2_projection():
    _check(acceptance.criterion_3())


def test_criterion_4_scaling_family():
    result = acceptance.criterion_4()
    _check(result)
    assert [result.details[f"k{k}"]["minors"] for k in (2, 3, 4, 5)] == [2, 5, 14, 42]


def test_criterion_4_name_lists_the_k_that_ran():
    result = acceptance.criterion_4()
    assert result.passed, result.details
    assert result.name == "scaling family SN = k (k = 2, 3, 4, 5)"
    assert sorted(result.details) == ["k2", "k3", "k4", "k5"]
    assert [result.details[f"k{k}"]["sn"] for k in (2, 3, 4, 5)] == [2, 3, 4, 5]


def test_criterion_5_tiles_unextendibility():
    _check(acceptance.criterion_5())


def test_criterion_6_counting_bound_consistency():
    _check(acceptance.criterion_6())


def test_criterion_7_lift_property_suite():
    _check(acceptance.criterion_7(REPRODUCE_SEED))


def test_criterion_7_checks_each_lift_once(monkeypatch):
    """Each case's core is the Gram sum of its vectors and its lift is checked
    by lift_decomposition's own sum: 100 Gram sums and 50 LDL* (one per
    assembled extension) for the 50 cases."""
    calls = []
    for name in ("weighted_gram", "psd_check"):
        kernel = getattr(em, name)
        monkeypatch.setattr(em, name, lambda *args, _name=name, _kernel=kernel:
                            calls.append(_name) or _kernel(*args))
    assert acceptance.criterion_7(REPRODUCE_SEED).passed
    assert (calls.count("weighted_gram"), calls.count("psd_check")) == (100, 50)


def test_criterion_7_fails_on_a_lift_that_does_not_reproduce(monkeypatch):
    def mismatch(*args):
        raise DecompositionMismatch("lifted vectors and remainder do not reproduce the extension")

    monkeypatch.setattr(ex, "lift_decomposition", mismatch)
    result = acceptance.criterion_7(REPRODUCE_SEED)
    assert not result.passed and result.line().startswith("FAIL")
    assert result.details["error"].startswith("reconstruction not bit-exact")


def test_criterion_8_survey_replication():
    _check(acceptance.criterion_8())


def test_criterion_9_witness_peel_suite():
    _check(acceptance.criterion_9(REPRODUCE_SEED))


def test_false_claim_fails_under_python_O():
    """Criteria check their claims without ``assert``, so ``python -O``
    cannot turn a false claim into a PASS."""
    code = ("from pptlab import acceptance, qstates\n"
            "qstates.birank = lambda state: (0, 0)\n"
            "print(acceptance.criterion_1().line())\n")
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.startswith("FAIL"), out.stdout
