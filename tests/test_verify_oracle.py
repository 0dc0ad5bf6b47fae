"""Oracle test for the exact suites `verify` checks on an integer scale.

`cli._run_verify` checks sigma_recurrences, pair_exclusion_difference and
product_decomposition on each vector's integer scale: the kernels run on
the integer numerators p = D*a, D the lcm of the vector's denominators,
so every value of degree d is D**d times its value at a.  The oracle here
checks the same cases one by one in plain Fraction arithmetic, on the same
drawn vectors and through the same (possibly faulty) kernels, each pair
row divided out of its exclusion row as verify divides it, and every
suite entry must come out equal: cases, failures, worst and the
counterexample.  A fault is keyed on the call, not on the scalar type, so
it fires on both scales.  The oracle draws its vectors by two scalar calls
per entry (oracles.rational_vector); a second test holds verify's one
broadcast draw to those int pairs and to the generator state they leave,
and a third holds the integer vector and rows that verify forms from the
pairs to the Fraction route (oracles.clear_denominators), each pair row
to the recurrence on the reduced list (oracles.elem_sym_excl_row).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from slex import cli, phasepoly, symfun

SUITES = ("sigma_recurrences", "pair_exclusion_difference",
          "product_decomposition")


def _entry(cases, fails, ce):
    entry = {"cases": cases, "failures": fails,
             "worst": "0" if fails == 0 else "exact mismatch"}
    if ce is not None:
        entry["counterexample"] = ce
    return entry


def _deflated(row, last):
    # sigma(a | i, n) from r = sigma(a | i) + [0]: s_0 = 1 and
    # s_k = r_k - a_n s_{k-1}, with the trailing 0
    out = [1]
    for r in row[1:-2]:
        out.append(r - last * out[-1])
    return out + [0]


def _fraction_oracle(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    vectors = [[Fraction(p, q) for p, q in oracles.rational_vector(
        rng, 3 + t % 6)] for t in range(trials)]
    text = [[f"{v.numerator}/{v.denominator}" for v in vec]
            for vec in vectors]
    fails = pair_fails = prod_fails = 0
    ce = pair_ce = prod_ce = None
    cases = pair_cases = prod_cases = 0
    for vec, a in zip(vectors, text):
        n = len(vec)
        sig = symfun.elem_sym_all(vec)
        rows = [symfun.elem_sym_excl_all(vec, i) + [0]
                for i in range(1, n + 1)]
        # each pair row divided out of its row, as verify derives it
        pairs = [_deflated(row, vec[-1]) for row in rows[:-1]]
        for k in range(n + 1):
            acc = 0
            for i in range(1, n + 1):
                cases += 1
                if sig[k] != rows[i - 1][k] + vec[i - 1] * rows[i - 1][k - 1]:
                    fails += 1
                    ce = ce or {"a": a, "k": k, "i": i, "identity": "split"}
                acc = acc + vec[i - 1] * rows[i - 1][k - 1]
            cases += 1
            if acc != k * sig[k]:
                fails += 1
                ce = ce or {"a": a, "k": k, "identity": "weighted_sum"}
        for k in range(1, n + 1):
            for i in range(1, n):
                lhs = (vec[i - 1] * rows[i - 1][k - 1]
                       - vec[n - 1] * rows[n - 1][k - 1])
                rhs = (vec[i - 1] - vec[n - 1]) * pairs[i - 1][k - 1]
                pair_cases += 1
                if lhs != rhs:
                    pair_fails += 1
                    pair_ce = pair_ce or {"a": a, "k": k, "i": i, "j": n}
    for vec, a in zip(vectors, text):
        n = len(vec)
        sig = symfun.elem_sym_all(vec)
        table = symfun.gen_sym_table(vec)
        for j in range(n + 1):
            for k in range(j, n + 1):
                combo = 0
                for coeff, (kk, jj) in symfun.product_decomposition(j, k, n):
                    combo = combo + coeff * table[kk][jj]
                prod_cases += 1
                if combo != sig[j] * sig[k]:
                    prod_fails += 1
                    prod_ce = prod_ce or {"a": a, "j": j, "k": k}
    return {"sigma_recurrences": _entry(cases, fails, ce),
            "pair_exclusion_difference": _entry(pair_cases, pair_fails,
                                                pair_ce),
            "product_decomposition": _entry(prod_cases, prod_fails, prod_ce)}


@pytest.mark.parametrize("trials", [1, 5, 60, 200])
def test_one_call_draw_matches_the_per_entry_draw(trials):
    # the same vectors, and the generator left in the same state: the
    # float suites' draws after them are unchanged
    sizes = [3 + t % 6 for t in range(trials)]
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cli._rational_vectors(rng, sizes)
        want = [oracles.rational_vector(ref, n) for n in sizes]
        assert got == want, seed
        assert all(type(x) is int for vec in got for pair in vec
                   for x in pair)
        assert rng.standard_normal() == ref.standard_normal(), seed


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                          st.integers(min_value=1, max_value=10**6)),
                min_size=1, max_size=10))
def test_int_rows_match_the_fraction_route(pairs):
    # p, D and the sigma row, table, exclusion and pair rows that verify
    # forms from int pairs are the Fraction vector's numerators, the lcm
    # of its denominators and its rows,
    # each entry of degree k times D**k (T[k][j] of degree k + j), all as
    # ints
    a = [Fraction(*pair) for pair in pairs]
    p, d = oracles.clear_denominators(a)
    n = len(a)

    def scaled(row):
        return [int(v * d ** k) for k, v in enumerate(row)] + [0]

    want = (p, d, scaled(symfun.elem_sym_all(a))[:-1],
            [[int(v * d ** (k + j)) for j, v in enumerate(row)]
             for k, row in enumerate(symfun.gen_sym_table(a))],
            [scaled(symfun.elem_sym_excl_all(a, i))
             for i in range(1, n + 1)],
            [scaled(oracles.elem_sym_excl_row(a, (i, n)))
             for i in range(1, n)])
    vec = [list(pair) for pair in pairs]
    got = cli._int_rows(vec)
    assert got == want
    assert all(type(v) is int for v in got[0] + [got[1]] + got[2]
               + [v for rows in got[3:] for row in rows for v in row])
    assert cli._scale(vec) == (p, d)


def _lying_wronskian(monkeypatch):
    real = phasepoly.ray_wronskian
    monkeypatch.setattr(cli.phasepoly, "ray_wronskian",
                        lambda values: real(values) + 1)


def _lying_sigma_1_excl_1(shift):
    def inject(monkeypatch):
        real = symfun.elem_sym_excl_all

        def lying(values, i):
            row = real(values, i)
            if i == 1:
                row[1] = row[1] + shift
            return row

        monkeypatch.setattr(cli.symfun, "elem_sym_excl_all", lying)
    return inject


def _lying_gen_sym_table(monkeypatch):
    real = symfun.gen_sym_table

    def lying(values):
        # every table but the all-ones ones of combinatorial_sums
        table = real(values)
        if list(values) != [1] * len(values):
            table[1][1] = table[1][1] + 1
        return table

    monkeypatch.setattr(cli.symfun, "gen_sym_table", lying)


# fault -> (injection, the three suites that must fail under it)
FAULTS = {
    "none": (lambda monkeypatch: None, set()),
    "wronskian_closed_form": (_lying_wronskian, set()),
    "sigma_1_excl_1_plus_1": (_lying_sigma_1_excl_1(1),
                              {"sigma_recurrences",
                               "pair_exclusion_difference"}),
    # a value off the integer scale: the suites compare it exactly
    "sigma_1_excl_1_off_scale": (_lying_sigma_1_excl_1(Fraction(1, 7**9)),
                                 {"sigma_recurrences",
                                  "pair_exclusion_difference"}),
    "gen_sym_table_11": (_lying_gen_sym_table, {"product_decomposition"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_scaled_suites_match_the_fraction_oracle(monkeypatch, fault):
    inject, failing = FAULTS[fault]
    inject(monkeypatch)
    for seed in (0, 5, 42, 2024):
        for trials in (1, 7, 30):
            _command, args = cli.parse(
                ["verify", "--grid", str(trials), "--seed", str(seed)])
            report = cli._run_verify(args)
            got = {s["name"]: {k: v for k, v in s.items() if k != "name"}
                   for s in report["suites"] if s["name"] in SUITES}
            assert got == _fraction_oracle(seed, trials), (seed, trials)
            broken = {name for name, s in got.items() if s["failures"]}
            assert broken == failing
            assert all("counterexample" in got[name] for name in broken)

