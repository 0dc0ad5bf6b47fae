"""The report writer against the stdlib: json.dumps(indent=2, sort_keys=True).

`cli._json_text` writes every JSON report.  It must give the stdlib's
document byte for byte on every tree of dicts (str keys), lists, tuples,
strings, None, bools, ints and floats, float subclasses such as np.float64
included, and raise TypeError where the stdlib does, and on a non-str key.
Its strings are those reports hold: printable ASCII with no quote and no
backslash, which JSON writes unescaped.  It raises TypeError on any other
string.  Trees are drawn by hypothesis with a fixed derandomized seed, so
every run checks the same cases, and their strings from that alphabet.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slex import cli

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def held(text: str) -> bool:
    """Whether a report may hold text: printable ASCII with no quote and
    no backslash."""
    return all(" " <= ch <= "~" and ch not in '"\\' for ch in text)


# the strings reports hold
REPORT_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                             exclude_characters='"\\')
report_text = st.text(REPORT_CHARS)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.floats().map(np.float64), report_text)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children),
                               st.lists(children).map(tuple),
                               st.dictionaries(report_text, children)),
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
                '\U0001f600', '\ud800',
                " !#$%&'()*+,-./:;<=>?@[]^_`{|}~", "a b"]


def written_or_refused(tree, text: str) -> None:
    """The stdlib's document for a tree holding text, where a report may
    hold text (the empty string and the last two of SPECIAL_TEXT), and
    TypeError where it may not (the rest)."""
    if held(text):
        assert cli._json_text(tree) == dumps(tree)
    else:
        with pytest.raises(TypeError, match="printable ASCII"):
            cli._json_text(tree)


@pytest.mark.parametrize("value", SPECIAL_FLOATS + SPECIAL_INTS
                         + SPECIAL_TEXT + [None])
def test_writer_scalars_at_every_depth(value):
    trees = [value, [value], (value,), {"k": value}, [[value]],
             {"a": [{"b": (value, None, [], {}, ())}]},
             {"z": value, "a": [value, {}, []], "m": {"": value}}]
    for tree in trees:
        written_or_refused(tree, value if isinstance(value, str) else "")


@pytest.mark.parametrize("key", SPECIAL_TEXT + ["a", "B", "10", "9"])
def test_writer_keys_escaped_and_sorted(key):
    tree = {key: 1, "b": {key: [key], "a": None}, "A": key}
    written_or_refused(tree, key)


def test_writer_empty_containers_at_every_depth():
    for tree in ({}, [], (), {"a": {}}, {"a": []}, [{}, [], ()],
                 {"a": {"b": {"c": {}}}}, [[[[]]]], {"a": [{}, {"b": []}]}):
        assert cli._json_text(tree) == dumps(tree)


@SETTINGS
@given(report_text)
@example("")
@example("plain 'quoted' / %")
@example(" !#$%&'()*+,-./:;<=>?@[]^_`{|}~")
def test_report_strings_are_written_as_the_stdlib_writes_them(text):
    assert cli._json_str(text) == json.encoder.encode_basestring_ascii(text)


# every code point: DEL, the control characters, lone surrogates and the
# planes above the BMP included, at least one of them outside the alphabet
@SETTINGS
@given(st.one_of(st.text(), st.text(st.characters(exclude_categories=())))
       .filter(lambda text: not held(text)))
@example('plain "quoted"')
@example("back\\slash")
@example("\x7f\x00\x1f\b\f\n\r\t")
@example("\ud800a\udfff\U0001f600\U0010ffff\x80\xff\u20ac")
def test_writer_refuses_strings_reports_do_not_hold(text):
    with pytest.raises(TypeError, match="printable ASCII"):
        cli._json_str(text)
    for tree in (text, [text], {"k": text}, {text: 0.5},
                 [{text: 0.5, "b": 1.5}] * 2):
        with pytest.raises(TypeError, match="printable ASCII"):
            cli._json_text(tree)


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


# A list or tuple of finite exact floats fills one template instead of the
# recursive path; one holding NaN or inf, and every other list, recurses.
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
    command, args = cli.parse(
        ["solve", "--family", "iso", "--n", "5", "--theta", "critical",
         "--grid", "8"])
    report = command.run(args)
    assert len(report["trajectory"]["excess_numeric"]) == 241
    assert cli._json_text(report) == dumps(report)


# A list or tuple of plain dicts with one set of two or more str keys and
# finite exact float values (the scan rows) fills one row template; every
# other list of dicts recurses.  The trees below are drawn around that line.

class Flo(float):
    pass


ROW_KEYS = st.text(st.sampled_from(['%', 's', 'r', '(', ')', 'a', 'n', ' ',
                                    "'", '/']),
                   max_size=4) | st.text(REPORT_CHARS, max_size=6)
ROW_FLOATS = st.floats() | st.sampled_from(FLOAT_EDGES)
ROW_VALUES = (ROW_FLOATS | ROW_FLOATS.map(np.float64) | ROW_FLOATS.map(Flo)
              | scalars)


@st.composite
def row_lists(draw, values=ROW_FLOATS):
    """A list or tuple of dicts on one key set, each dict filled in its own
    key order."""
    keys = draw(st.lists(ROW_KEYS, max_size=5, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        order = draw(st.permutations(keys))
        rows.append({key: draw(values) for key in order})
    return tuple(rows) if draw(st.booleans()) else rows


def nest(value):
    return [value, {"rows": value}, {"a": {"b": {"c": value}}},
            [[[value]]], {"z": [value, ()], "a": (value,)}]


@SETTINGS
@given(row_lists())
def test_writer_row_lists_equal_json_dumps(rows):
    for tree in nest(rows):
        assert cli._json_text(tree) == dumps(tree)


@SETTINGS
@given(row_lists(ROW_VALUES))
def test_writer_row_lists_of_any_values_equal_json_dumps(rows):
    for tree in nest(rows):
        assert cli._json_text(tree) == dumps(tree)


@SETTINGS
@given(row_lists(), st.data())
def test_writer_row_lists_of_other_shapes_equal_json_dumps(rows, data):
    rows = list(rows)
    i = data.draw(st.integers(0, len(rows) - 1))
    shape = data.draw(st.sampled_from(
        ["extra key", "missing key", "non-dict", "empty dict", "dict pair"]))
    if shape == "extra key":
        rows[i] = {**rows[i], data.draw(ROW_KEYS): 0.5}
    elif shape == "missing key" and rows[i]:
        rows[i] = dict(list(rows[i].items())[1:])
    elif shape == "non-dict":
        rows.insert(i, data.draw(scalars | st.just([0.5]) | st.just(())))
    elif shape == "empty dict":
        rows.insert(i, {})
    else:
        rows[i] = {"x": {**rows[i]}, "y": [rows[i]]}
    for seq in (rows, tuple(rows)):
        for tree in nest(seq):
            assert cli._json_text(tree) == dumps(tree)


ROWS = [{"eps": 0.0, "m_pipeline": 5.0, "m_closed_form": 4.999999999999999},
        {"m_closed_form": 0.1, "eps": 5e-324, "m_pipeline": -0.0}]


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, np.float64(0.5), Flo(0.5), 1, True, None,
    "0.5", [0.5], {"k": 0.5}, 1.7976931348623157e308,
])
def test_writer_rows_with_one_other_value_take_the_recursive_path(bad):
    for i in range(len(ROWS)):
        rows = [dict(row) for row in ROWS]
        rows[i]["eps"] = bad
        if type(bad) is not float or math.isfinite(bad * 2):
            assert cli._json_flat(rows, "\n  ") is None
        for seq in (rows, tuple(rows)):
            for tree in nest(seq):
                assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("rows", [
    ROWS, ROWS[:1], tuple(ROWS), ROWS * 40,
    [{"%": 0.5, "%s": 1.5}, {"%s": 2.5, "%": 3.5}],
    [{"'": 0.5, "/": 1.5, "~": 2.5, "{}": 3.5, " ": -0.0}],
    [{"a%%d": 1e22, "%(b)s": 1e16}] * 3,
])
def test_writer_rows_fill_one_template(rows):
    assert cli._json_flat(rows, "\n  ") is not None
    for tree in nest(rows):
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("rows, templated", [
    ([{"eps": -0.0, "m": 5e-324}, {"eps": 5e-324, "m": -0.0}], True),
    ([{"eps": 1.7976931348623157e308, "m": -1.7976931348623157e308}], True),
    # the finiteness check overflows, so these recurse
    ([{"eps": 1.7976931348623157e308, "m": 0.5}] * 2, False),
    ([{"%r": -0.0, "%%": 5e-324, "%(eps)r": 0.1}] * 3, True),
    ([{"a%": 0.5, "%": 1.5}, {"%": np.float64(2.5), "a%": 3.5}], False),
    ([{"eps": np.float64(-0.0), "m": np.float64(5e-324)}], False),
    ([{"eps": 0.5, "m": np.float64(1.5)}] * 2, False),
])
def test_writer_row_template_fills_each_value_as_json_dumps(rows, templated):
    # the row template takes exact finite floats only, filled through %r;
    # an np.float64 value sends the rows down the recursive path
    assert (cli._json_flat(rows, "\n  ") is not None) == templated
    for tree in nest(rows):
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("rows", [
    [{}], [{}, {}], [{"a": 0.5}], [{"a": 0.5}, {"a": 1.5}],
    [{"a": 0.5, "b": 1.5}, {"a": 0.5}], [{"a": 0.5}, {"a": 0.5, "b": 1.5}],
    [{"a": 0.5, "b": 1.5}, {"a": 0.5, "c": 1.5}],
    [{"a": 0.5, "b": 1.5}, 0.5], [{"a": 0.5, "b": 1.5}, None],
    [{"a": 0.5, "b": 1.5}, {}],
])
def test_writer_ragged_or_small_rows_take_the_recursive_path(rows):
    assert cli._json_flat(rows, "\n  ") is None
    for tree in nest(rows):
        assert cli._json_text(tree) == dumps(tree)


@pytest.mark.parametrize("rows", [
    [{"a": 0.5, "b": object()}, {"a": 0.5, "b": 1.5}],
    [{"a": 0.5, "b": 1.5}, {"a": {1, 2}, "b": 1.5}],
    [{"a": 0.5, "b": 1.5}, {"a": 0.5, "b": 1 + 2j}],
    [{"a": 0.5, ("b",): 1.5}, {"a": 0.5, ("b",): 1.5}],
    [{"a": 0.5, "b": 1.5}, {"a": 0.5, "b": np.int64(1)}],
])
def test_writer_rows_raise_where_the_stdlib_raises(rows):
    for tree in nest(rows):
        with pytest.raises(TypeError):
            dumps(tree)
        with pytest.raises(TypeError):
            cli._json_text(tree)


def test_writer_whole_scan_report():
    command, args = cli.parse(
        ["scan-eps", "--grid", "97", "--format", "json"])
    report = command.run(args)
    assert len(report["rows"]) == 97
    assert cli._json_flat(report["rows"], "\n    ") is not None
    assert cli._json_text(report) == dumps(report)
