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


# A list or tuple of exact floats takes one join instead of the recursive
# path; every other list still recurses.
FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22,
               1e16, 123456789.125, 2.0 ** -1074 * 3]


@SETTINGS
@given(st.lists(st.floats(), min_size=1, max_size=60),
       st.booleans())
def test_writer_float_lists_equal_json_dumps(values, as_tuple):
    seq = tuple(values) if as_tuple else values
    for tree in (seq, [seq, seq], {"k": seq, "j": [seq]}):
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("values", [
    FLOAT_EDGES, FLOAT_EDGES[::-1], [math.nan], [math.inf], [-math.inf],
    [-0.0], [5e-324], [1.7976931348623157e308], [1.0, math.nan, 2.0],
    [math.inf, -math.inf, math.nan, -0.0], [0.5] * 1205,
])
def test_writer_float_list_special_values(values):
    for seq in (values, tuple(values)):
        for tree in (seq, [seq], {"k": seq}, [[seq, []], ()]):
            assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("other", [
    1, 0, -2 ** 70, True, False, None, np.float64(0.25),
    np.float64(math.nan), np.float64(-math.inf), "1.5", [1.5], (), {},
])
def test_writer_mixed_lists_take_the_recursive_path(other):
    for values in ([1.5, other], [other, math.nan, -0.0],
                   [math.inf, other, 5e-324, other]):
        for seq in (values, tuple(values)):
            assert cli._json_text(seq) == dumps(seq)
            tree = {"a": [seq, seq]}
            assert cli._json_text(tree) == dumps(tree)


def test_writer_nested_and_empty_float_lists():
    for tree in ([[0.5, 1.5], [], [2.5]], [[], []], ((), (1.0,)),
                 [[[math.nan]], [[-0.0, math.inf]]], {"a": [[], [0.1]]},
                 [[1.0] * 3] * 3):
        assert cli._json_text(tree) == dumps(tree)


def test_writer_whole_solve_report():
    args = cli.build_parser().parse_args(
        ["solve", "--family", "iso", "--n", "5", "--theta", "critical",
         "--grid", "8"])
    report = args.run(args)
    assert len(report["trajectory"]["psi_numeric"]) == 241
    assert cli._json_text(report) == dumps(report)
