"""Every stored layout refuses the keys it does not have.

One field reader, :func:`replay._fields`, reads each object a certificate
stores: the certificate, its state, each edge and the matrix, a ppt
certificate's two evidence objects, an sn-verdict's ``lower`` and ``upper``
halves and each cofactor.  A key that object's layout does not list fails
``pptlab verify`` (exit 1) with one ``FAILED`` line naming it.  The fuzzer
at the end mutates the keys of fresh certificates at every level (drop,
add, rename, or a value retyped to a list, a string or null) and runs
``verify`` through :func:`cli.run` in process: whatever the file, it
returns 0 or 1 and raises nothing else, and an added or renamed key gives 1.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pptlab import cli
from pptlab import constructions as co
from pptlab import serialize as se

from oracles import matrix_state

BELL = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "bell",
        "edges": [{"name": "b", "vector": [[0, "1"], [3, "1"]], "weight": "1"}]}
PRODUCT = {"kind": "state", "dim_a": 2, "dim_b": 2, "label": "product",
           "edges": [{"name": "a", "vector": [[0, "1"]], "weight": "1"},
                     {"name": "b", "vector": [[3, "1"]], "weight": "1"}]}

# the fresh certificates: (name, state, arguments, the exit code that writes it)
MADE = (
    ("ppt-psd", "rho3x3", ["ppt-check"], 0),
    ("ppt-npt", BELL, ["ppt-check"], 0),
    ("ppt-matrix", se.state_to_json(matrix_state(co.tiles_complement())), ["ppt-check"], 0),
    ("sn-proven", "rho3x3", ["certify-sn", "--k", "2"], 0),
    ("sn-inconclusive", PRODUCT, ["certify-sn", "--k", "2"], 1),
)


def _run(argv) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def certificates(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("certificates")
    made = {}
    for name, state, argv, code in MADE:
        if isinstance(state, dict):
            path = tmp / f"{name}-state.json"
            path.write_text(json.dumps(state))
            state = str(path)
        out = tmp / f"{name}.json"
        assert _run([*argv, "--state", state, "--out", str(out)])[0] == code, name
        made[name] = json.loads(out.read_text())
    return made


def _verify(tmp_path, doc) -> tuple:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    return _run(["verify", str(path)])


# where each level of each certificate lives, as a path of keys and indices
LEVELS = {
    "ppt-psd": [(), ("state",), ("state", "edges", 0), ("rho",), ("rho_ta",)],
    "ppt-npt": [("rho_ta",)],
    "ppt-matrix": [("state", "matrix")],
    "sn-proven": [(), ("state",), ("state", "edges", 2), ("lower",), ("upper",),
                  ("lower", "minors", 0, 2)],
    "sn-inconclusive": [()],
}


@pytest.mark.parametrize("name, path", [(name, path) for name, paths in LEVELS.items()
                                        for path in paths])
def test_an_unknown_key_at_any_level_fails_verify(certificates, tmp_path, name, path):
    doc = copy.deepcopy(certificates[name])
    assert _verify(tmp_path, doc)[0] == 0
    node = doc
    for key in path:
        node = node[key]
    node["vaule"] = 3
    code, out, err = _verify(tmp_path, doc)
    assert (code, err) == (1, "") and out.startswith("verify: FAILED: "), out
    assert out.count("\n") == 1 and "['vaule']" in out, out


def test_an_sn_verdict_has_exactly_one_lower_half(certificates, tmp_path):
    proven, inconclusive = certificates["sn-proven"], certificates["sn-inconclusive"]
    both = {**proven, "lower_inconclusive": "not searched"}
    assert _verify(tmp_path, both)[1] == \
        "verify: FAILED: malformed certificate: ValueError: unknown sn-verdict keys " \
        "['lower_inconclusive']\n"
    neither = {key: value for key, value in inconclusive.items() if key != "lower_inconclusive"}
    assert _verify(tmp_path, neither)[1] == \
        "verify: FAILED: malformed certificate: KeyError: 'lower_inconclusive'\n"


def _dict_paths(node, path=()):
    """The path of every object (dict) in ``node``, the root's included."""
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _dict_paths(child, path + (key,))


# names for an added or renamed key: misspellings, and keys of other layouts
NEW_KEYS = ["extra", "lable", "wieght", "vaule", "matrix", "edges", "lower",
            "lower_inconclusive", "psd", "witness", "pivots", "columns", "terms", "kind",
            "label", "value", "state", "schmidt_ranks", "names", "side"]


@settings(max_examples=150, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_keys_fail_verify_or_replay(certificates, tmp_path, data):
    name = data.draw(st.sampled_from(sorted(certificates)), label="certificate")
    doc = copy.deepcopy(certificates[name])
    # one level first, then one object of it, so every level is drawn alike
    levels = {}
    for path in _dict_paths(doc):
        levels.setdefault(tuple(k if isinstance(k, str) else "*" for k in path), []).append(path)
    level = data.draw(st.sampled_from(sorted(levels)), label="level")
    node = doc
    for key in data.draw(st.sampled_from(levels[level]), label="object"):
        node = node[key]
    how = data.draw(st.sampled_from(["drop", "add", "rename", "retype"]), label="how")
    key = data.draw(st.sampled_from(sorted(node)), label="key")  # no stored object is empty
    new = data.draw(st.sampled_from([k for k in NEW_KEYS if k not in node]), label="new key")
    if how == "drop":
        del node[key]
    elif how == "add":
        node[new] = data.draw(st.sampled_from(["1", 1, [], None]), label="value")
    elif how == "rename":
        node[new] = node.pop(key)
    else:
        node[key] = data.draw(st.sampled_from([[], "x", None]), label="value")
    code, out, err = _verify(tmp_path, doc)
    assert code in (0, 1) and err == "" and out.count("\n") == 1, (code, out, err)
    assert out.startswith("verify: OK" if code == 0 else "verify: FAILED: "), out
    if how in ("add", "rename"):
        assert code == 1, out
