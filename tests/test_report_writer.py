"""The report writer against the stdlib: json.dumps(indent=2, sort_keys=True).

`cli._json_text` writes every JSON report.  It must give the stdlib's
document byte for byte on every tree of dicts (str keys), lists, tuples,
strings, None, bools, ints and floats, float subclasses such as np.float64
included, and raise TypeError where the stdlib does, and on a non-str key.
Trees are drawn by hypothesis with a fixed derandomized seed, so every run
checks the same cases.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slex import cli

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.floats().map(np.float64), st.text())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children),
                               st.lists(children).map(tuple),
                               st.dictionaries(st.text(), children)),
    max_leaves=40)


@SETTINGS
@given(trees)
def test_writer_equals_json_dumps(tree):
    assert cli._json_text(tree) == dumps(tree)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  -5e-324, 1e22, 1e16, 1.7976931348623157e308, 0.1,
                  np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
                  np.float64(math.inf), np.float64(-math.inf)]
SPECIAL_INTS = [0, -1, 2 ** 64, -(10 ** 40), 3 ** 200, True, False]
SPECIAL_TEXT = ['', '"', '\\', '\\"', 'a"b\\c', '\x00\x01\x1f\x7f',
                '\n\r\t\b\f', 'héllo', '  ', '日本語',
                '\U0001f600', '\ud800']


@pytest.mark.parametrize("value", SPECIAL_FLOATS + SPECIAL_INTS
                         + SPECIAL_TEXT + [None])
def test_writer_scalars_at_every_depth(value):
    trees = [value, [value], (value,), {"k": value}, [[value]],
             {"a": [{"b": (value, None, [], {}, ())}]},
             {"z": value, "a": [value, {}, []], "m": {"": value}}]
    for tree in trees:
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("key", SPECIAL_TEXT + ["a", "B", "10", "9"])
def test_writer_keys_escaped_and_sorted(key):
    tree = {key: 1, "b": {key: [key], "a": None}, "A": key}
    assert cli._json_text(tree) == dumps(tree)


def test_writer_empty_containers_at_every_depth():
    for tree in ({}, [], (), {"a": {}}, {"a": []}, [{}, [], ()],
                 {"a": {"b": {"c": {}}}}, [[[[]]]], {"a": [{}, {"b": []}]}):
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("tree", [
    {1: 2}, {None: 1}, {1.5: "x"}, {True: 0}, {("a",): 1},
    {"a": {2: 3}}, [{"ok": 1}, {7: 1}],
])
def test_writer_rejects_non_str_keys(tree):
    with pytest.raises(TypeError):
        cli._json_text(tree)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), np.int64(3), np.bool_(True), np.array([1.0]),
    b"bytes", 1 + 2j,
])
def test_writer_rejects_what_the_stdlib_rejects(value):
    for tree in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            dumps(tree)
        with pytest.raises(TypeError):
            cli._json_text(tree)
