"""Acceptance suite: one test per criterion, each printing its verdict line."""

import itertools
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from pptlab import acceptance
from pptlab import certifier as ce
from pptlab import exactmat as em
from pptlab import extender as ex
from pptlab.errors import DecompositionMismatch, InternalInconsistency

REPRODUCE_SEED = 7  # the default of `pptlab reproduce --seed`


def _check(result):
    print()
    print(result.line())
    for key, value in result.details.items():
        print(f"    {key}: {value}")
    assert result.passed, result.details


@pytest.mark.parametrize("elapsed, passed", [(2.5, False), (0.5, True)], ids=["past", "within"])
def test_a_criterion_is_timed_on_the_monotonic_clock(monkeypatch, elapsed, passed):
    """A criterion's runtime is read from ``time.perf_counter``, which no
    wall-clock step moves, and one past its limit fails naming the budget."""
    ticks = iter([1000.0, 1000.0 + elapsed])
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    result = acceptance._run(0, "timed", 1, lambda: {})
    assert (result.passed, result.seconds) == (passed, elapsed)
    assert result.details == ({} if passed else
                              {"error": f"runtime {elapsed:.2f}s exceeds the 1s budget"})


def test_criterion_1_rho3x3_regression():
    _check(acceptance.criterion_1())


def test_criterion_2_rho4x5_pipeline():
    _check(acceptance.criterion_2())


def test_criteria_1_and_2_state_their_memberships_as_minor_identities():
    """Criterion 1 records the (rows, cols) of the minors each of its two
    identities uses, and criterion 2's hand-written identity holds."""
    result = acceptance.criterion_1()
    assert result.passed, result.details
    assert result.details["minors"] == {"psi00^2": [[[0, 1], [0, 1]], [[1, 2], [1, 2]]],
                                        "psi01*psi10": [[[0, 1], [0, 1]], [[1, 2], [1, 2]]]}
    assert "groebner_size" not in result.details
    assert acceptance.cofactor_identity_4x5()


def _spoiled_identities():
    """One spoiled cofactor, and one spoiled (rows, cols), of each minor of
    ``acceptance.IDENTITY_4X5``."""
    for i, (rows, cols, var, c) in enumerate(acceptance.IDENTITY_4X5):
        yield f"g{i}-cofactor", i, (rows, cols, var, c + 1)
        other = min(set(range(5)) - set(cols))
        yield f"g{i}-cols", i, (rows, tuple(sorted(cols[:2] + (other,))), var, c)


SPOILED = list(_spoiled_identities())


@pytest.mark.parametrize("index, entry", [case[1:] for case in SPOILED],
                         ids=[case[0] for case in SPOILED])
def test_a_spoiled_4x5_identity_fails(monkeypatch, index, entry):
    table = list(acceptance.IDENTITY_4X5)
    table[index] = entry
    monkeypatch.setattr(acceptance, "IDENTITY_4X5", tuple(table))
    assert not acceptance.cofactor_identity_4x5()


@pytest.mark.parametrize("spoil", ["cofactor", "rows-cols"])
def test_criterion_1_fails_on_a_spoiled_identity(monkeypatch, spoil):
    """Each identity of criterion 1 is replayed by the check ``verify``
    runs: a solve that returns one wrong cofactor, or a closure that files
    one minor under another's (rows, cols), fails it."""
    if spoil == "cofactor":
        solve = ce._cofactor_trail

        def spoiled(*args):
            out = solve(*args)
            if out is not None:
                trail, sigma = out
                key = next(iter(trail))
                out = {**trail, key: trail[key] + sigma}, sigma
            return out

        monkeypatch.setattr(ce, "_cofactor_trail", spoiled)
    else:
        component = ce.WitnessClosure.component

        def spoiled(self, target):
            found = component(self, target)
            key = next(iter(found))
            rows, cols, lead = found[key]
            other = next(c for c in itertools.combinations(range(self.M.dim_b), len(cols))
                         if c != cols)
            return {**found, key: (rows, other, lead)}

        monkeypatch.setattr(ce.WitnessClosure, "component", spoiled)
    with pytest.raises(InternalInconsistency, match="the identity does not replay"):
        acceptance.criterion_1()


def test_criterion_3_stage2_projection():
    result = acceptance.criterion_3()
    _check(result)
    assert result.name == "stage-2 projection separable, SN <= 2"
    assert result.details == {"products": 8, "projection_sn_upper": 1, "sn_upper": 2}


def _sites(*sites) -> tuple:
    """The 4x3 vector with entry 1 on each ``(a, b)`` of ``sites``."""
    return tuple(em.ONE if (a, b) in sites else em.ZERO for a in range(4) for b in range(3))


# the four phi_t and |0>|1> of acceptance.PRODUCTS_4X3 sum to this entangled split
ENTANGLED_TWIN = ((_sites((0, 0), (1, 1)), Fraction(1)),
                  (_sites((1, 0), (2, 1)), Fraction(1)),
                  (_sites((0, 1)), Fraction(3)), (_sites((2, 0)), Fraction(1)))


@pytest.mark.parametrize("spoil, error", [
    (lambda table: [*table[:4], (table[4][0], table[4][1] + 1), *table[5:]], "do not sum"),
    (lambda table: [acceptance._product((2, 1, 1, 0), (1, 1, 0), Fraction(1, 4)), *table[1:]],
     "do not sum"),
    (lambda table: [*table[:4], (_sites((0, 0), (1, 1)), table[4][1]), *table[5:]],
     "do not sum"),
    (lambda table: [*ENTANGLED_TWIN, *table[5:]], "Schmidt rank 2"),
], ids=["weight", "factor-entry", "bell-edge", "entangled-twin"])
def test_a_spoiled_product_table_fails_criterion_3(monkeypatch, spoil, error):
    """A changed weight, a changed entry of one factor, or one product
    replaced by ``|00>+|11>`` breaks the sum; an entangled split of the same
    projection keeps the sum and fails the Schmidt-rank check."""
    monkeypatch.setattr(acceptance, "PRODUCTS_4X3", tuple(spoil(acceptance.PRODUCTS_4X3)))
    result = acceptance.criterion_3()
    assert not result.passed
    assert error in result.details["error"]


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


def test_criterion_7_checks_each_lift_once(spy):
    """Each case's core is the Gram sum of its vectors and its lift is checked
    by lift_decomposition's own sum: 100 Gram sums and 50 LDL* (one per
    assembled extension) for the 50 cases."""
    calls = spy(em, "weighted_gram", "psd_check")
    assert acceptance.criterion_7(REPRODUCE_SEED).passed
    names = [name for name, _ in calls]
    assert (names.count("weighted_gram"), names.count("psd_check")) == (100, 50)


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
