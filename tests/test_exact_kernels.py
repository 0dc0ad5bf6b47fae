"""Oracle tests for the exact and float paths of the sigma kernels.

These tests hold every exact (int/Fraction) kernel to a plain Fraction
recurrence written out here, in value and in type; hold the integer
numerators of a Fraction vector to the scale D**degree that `verify`'s
exact suites rely on; hold float and numpy input to the plain loop bit
for bit; and hold the rank-one formula, read from full exclusion rows, to
the cut-off recurrence in tests/oracles.py.  The plain loops update the
full-length row for every entry, so they also hold the triangular kernels
to the bits of that loop.  Examples are drawn by hypothesis with a fixed
derandomized seed, so every run checks the same cases, and explicit ones
add the inputs a triangular loop could get wrong.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from slex import phasepoly, symfun

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)

ints = st.integers(min_value=-10**6, max_value=10**6)
fracs = st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=1, max_value=10**6))
small = st.one_of(st.integers(min_value=-3, max_value=3),
                  st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                            st.integers(min_value=1, max_value=4)))
entry = st.one_of(ints, fracs, small)
# exact vectors of length 1..12 that lead with a Fraction, the input
# oracles.clear_denominators takes
fraction_vectors = st.builds(lambda lead, rest: [lead] + rest, fracs,
                             st.lists(entry, max_size=11))
# exact vectors of length 0..12; most lead with a Fraction, the rest with
# an int
exact_vectors = st.one_of(fraction_vectors, st.lists(entry, max_size=12))
floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
float_vectors = st.lists(floats, max_size=12)

# inputs the triangular loops could get wrong if they skipped an addition
# to a zero: signed zeros, negative entries, the shortest vectors, numpy
# arrays, and exact vectors that lead with an int.  The longer ones reach
# every sign of k mod 4 in alternating_parts' one pass over the row
FLOAT_EXAMPLES = ([-0.0, 0.0, -1.5], [0.0, -2.0], [-0.0], [-1.0, -2.5, -3.0],
                  [], [2.5], np.array([-0.0, 1.5, -2.0, 0.0]),
                  [-0.0, -0.0, -0.0, -0.0, 0.0], [0.0, -0.0, 1.0, -0.0],
                  np.array([1.5, -0.0, 2.0, -3.25, 0.5]))
EXACT_EXAMPLES = ([2, Fraction(-1, 3), 0, -5], [0, Fraction(-7, 4)],
                  [Fraction(-3, 2), -1, Fraction(-7, 4)], [-4, -1, -2], [],
                  [Fraction(-1, 2)], [3],
                  [3, Fraction(-2, 5), 1, Fraction(7, 3), -2],
                  [1, 2, 3, 4, 5, 6])


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def plain_sigma(a):
    n = len(a)
    e = [0] * (n + 1)
    e[0] = 1
    for x in a:
        for j in range(n, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def plain_gen_table(a):
    n = len(a)
    table = [[0] * (k + 1) for k in range(n + 1)]
    table[0][0] = 1
    for x in a:
        x2 = x * x
        for k in range(n, 0, -1):
            for j in range(k, -1, -1):
                acc = table[k][j]
                if j <= k - 1:
                    acc = acc + x * table[k - 1][j]
                if j >= 1:
                    acc = acc + x2 * table[k - 1][j - 1]
                table[k][j] = acc
    return table


def plain_parts(sig):
    # two plain loops, signs as (-1)**j: the oracle of alternating_parts'
    # one pass
    x = y = xw = yw = 0
    for k in range(len(sig)):
        j, odd = divmod(k, 2)
        if odd:
            y = y + (-1) ** j * sig[k]
        else:
            x = x + (-1) ** j * sig[k]
    for k in range(1, len(sig)):
        j, odd = divmod(k, 2)
        if odd:
            yw = yw + (-1) ** j * k * sig[k]
        else:
            xw = xw + (-1) ** j * k * sig[k]
    return x, y, xw, yw


def same(got, want):
    """Equal values of identical types, entry by entry (nested containers
    too)."""
    if isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            same(got[key], want[key])
    else:
        assert type(got) is type(want), (got, want)
        # repr also tells -0.0 from 0.0, so floats must match bit for bit
        assert got == want and repr(got) == repr(want)


def without(a, drop):
    return [x for pos, x in enumerate(a) if pos + 1 not in drop]


@SETTINGS
@given(exact_vectors)
@with_examples(EXACT_EXAMPLES)
def test_sigma_row_matches_plain_fraction_recurrence(a):
    same(symfun.elem_sym_all(a), plain_sigma(a))


@SETTINGS
@given(exact_vectors)
@with_examples(EXACT_EXAMPLES)
def test_exclusion_rows_match_plain_fraction_recurrence(a):
    n = len(a)
    for i in range(1, n + 1):
        same(symfun.elem_sym_excl_all(a, i), plain_sigma(without(a, {i})))


@SETTINGS
@given(fraction_vectors)
def test_integer_numerators_give_every_value_times_its_scale(a):
    # p = D*a: each value of degree d on p is the int D**d times its value
    # at a, the scale verify's homogeneous suites compare on
    p, d = oracles.clear_denominators(a)
    n = len(a)

    def scaled(got, want, degree):
        assert all(type(v) is int for v in got)
        assert got == [d ** (degree + e) * v for e, v in enumerate(want)]

    scaled(symfun.elem_sym_all(p), symfun.elem_sym_all(a), 0)
    for i in range(1, n + 1):
        scaled(symfun.elem_sym_excl_all(p, i),
               symfun.elem_sym_excl_all(a, i), 0)
    table, want = symfun.gen_sym_table(p), symfun.gen_sym_table(a)
    assert len(table) == len(want)
    for k, (got_row, want_row) in enumerate(zip(table, want)):
        scaled(got_row, want_row, k)


@SETTINGS
@given(exact_vectors)
@with_examples(EXACT_EXAMPLES)
def test_gen_sym_table_matches_plain_fraction_recurrence(a):
    same(symfun.gen_sym_table(a), plain_gen_table(a))


@SETTINGS
@given(exact_vectors)
@with_examples(EXACT_EXAMPLES)
def test_phase_parts_and_wronskians_match_plain_recurrence(a):
    parts = plain_parts(plain_sigma(a))
    same(phasepoly.alternating_parts(symfun.elem_sym_all(a)), parts)
    x, y, xw, yw = parts
    table = plain_gen_table(a)
    closed = 0
    for p in range(len(a)):
        closed = closed + table[p + 1][p]
    same(phasepoly.ray_wronskian(symfun.gen_sym_table(a)), closed)
    # the product of the parts, as verify forms it, is the closed form
    assert x * yw - y * xw == closed


@SETTINGS
@given(exact_vectors)
def test_newton_margins_match_plain_recurrence(a):
    sig = plain_sigma(a)
    margins = [sig[k] * sig[k] - sig[k - 1] * sig[k + 1]
               for k in range(1, len(a))]
    same(symfun.newton_check(symfun.elem_sym_all(a)), margins)
    # on the integer numerators p = D*a margin k is the int D**(2k) times
    # a's, so every sign is the same
    cleared = oracles.clear_denominators(a)
    if cleared is not None:
        p, d = cleared
        same(symfun.newton_check(symfun.elem_sym_all(p)),
             [int(v * d ** (2 * k)) for k, v in enumerate(margins, 1)])


@SETTINGS
@given(exact_vectors)
@with_examples(EXACT_EXAMPLES)
def test_exact_results_keep_their_types(a):
    # sigma_0 and T[0][0] are the int 1; once a Fraction entry is in, every
    # other entry is a Fraction; all-int input stays all-int
    sig = symfun.elem_sym_all(a)
    table = symfun.gen_sym_table(a)
    assert type(sig[0]) is int and sig[0] == 1
    assert type(table[0][0]) is int and table[0][0] == 1
    rest = sig[1:] + [v for row in table[1:] for v in row]
    if any(type(x) is Fraction for x in a):
        assert all(type(v) is Fraction for v in rest)
    else:
        assert all(type(v) is int for v in rest)


@SETTINGS
@given(float_vectors)
@with_examples(FLOAT_EXAMPLES)
def test_float_and_numpy_input_keep_the_plain_loop(a):
    arr = np.array(a, dtype=float)
    for vec in (a, arr):
        same(symfun.elem_sym_all(vec), plain_sigma(vec))
        same(symfun.gen_sym_table(vec), plain_gen_table(vec))
        same(phasepoly.alternating_parts(symfun.elem_sym_all(vec)),
             plain_parts(plain_sigma(vec)))
        # the closed form sums the table's sub-diagonal in order, bit for
        # bit
        table = plain_gen_table(vec)
        closed = 0
        for p in range(len(vec)):
            closed = closed + table[p + 1][p]
        same(phasepoly.ray_wronskian(symfun.gen_sym_table(vec)), closed)
        for i in range(1, len(vec) + 1):
            same(symfun.elem_sym_excl_all(vec, i),
                 plain_sigma(without(vec, {i})))


def rank_one_inputs(vectors, entries):
    # (p, q, s) with p drawn from vectors, 1 <= len(q) = len(p) <= 12
    return vectors.filter(len).flatmap(
        lambda p: st.tuples(st.just(p),
                            st.lists(entries, min_size=len(p),
                                     max_size=len(p)),
                            entries))


signed_floats = st.one_of(floats, st.sampled_from([0.0, -0.0, -1.0, -2.5]))


@SETTINGS
@given(rank_one_inputs(st.lists(signed_floats, max_size=12), signed_floats))
def test_sigma_rank_one_float_bits_match_full_exclusion_rows(args):
    # read from the full exclusion rows, every value has the bits of the
    # cut-off recurrence, on lists and on numpy arrays
    p, q, s = args
    for pv, qv in ((p, q), (np.array(p), np.array(q))):
        sig, excl = oracles.rank_one_rows(pv)
        for k in range(1, len(p) + 1):
            same(symfun.sigma_rank_one(sig, excl, qv, s, k),
                 oracles.sigma_rank_one_cutoff(pv, qv, s, k))


@SETTINGS
@given(rank_one_inputs(exact_vectors, entry))
def test_sigma_rank_one_exact_matches_full_exclusion_rows(args):
    # exact p keeps value and type; float q and s on exact p must round as
    # the cut-off recurrence does
    p, q, s = args
    qf, sf = [float(x) for x in q], float(s)
    sig, excl = oracles.rank_one_rows(p)
    for k in range(1, len(p) + 1):
        same(symfun.sigma_rank_one(sig, excl, q, s, k),
             oracles.sigma_rank_one_cutoff(p, q, s, k))
        same(symfun.sigma_rank_one(sig, excl, qf, sf, k),
             oracles.sigma_rank_one_cutoff(p, qf, sf, k))
