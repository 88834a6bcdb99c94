"""``render_json`` against the recursive reference on generated payloads."""

import numpy as np
import pytest
from json_reference import render_json_reference

from bosonsim.formatting import render_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

INTS = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
FLOATS = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, float("inf"), float("nan")]),
)
TEXT = st.text(alphabet=st.sampled_from('ab"\\ é\n'))
LEAVES = st.one_of(
    INTS, FLOATS, st.booleans(), TEXT, FLOATS.map(np.float64), st.just([]), st.just(())
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(INTS, st.booleans()), max_size=5),  # mixed int/bool lists
        st.lists(INTS, max_size=5),
        st.lists(INTS, max_size=5).map(tuple),
        st.dictionaries(st.one_of(TEXT, INTS), children, max_size=4),
    ),
    max_leaves=30,
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(PAYLOADS)
def test_render_json_matches_reference(payload):
    assert render_json(payload) == render_json_reference(payload)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(PAYLOADS)
def test_numpy_int_is_refused_by_both(payload):
    bad = np.int64(1)
    for wrapped in (bad, [payload, bad], (1, 2, bad), {"payload": payload, "bad": bad}):
        for render in (render_json, render_json_reference):
            with pytest.raises(TypeError, match="int64"):
                render(wrapped)


@pytest.mark.parametrize(
    "payload, text",
    [
        ([1, 0, 2], "[1, 0, 2]"),
        ((3,), "[3]"),
        ([], "[]"),
        ([1, True], "[1, true]"),
        ({"a": -0.0, 1: [2**70]}, '{"a": 0, "1": [1180591620717411303424]}'),
    ],
)
def test_render_json_literals(payload, text):
    assert render_json(payload) == text == render_json_reference(payload)
