"""Oracle test for the exact suites `verify` checks on an integer scale.

`cli._run_verify` checks sigma_recurrences, pair_exclusion_difference and
product_decomposition on each vector's integer scale: the kernels run on
the integer numerators p = D*a, D the lcm of the vector's denominators,
so every value of degree d is D**d times its value at a.  The oracle here
checks the same cases one by one in plain Fraction arithmetic, on the same
drawn vectors and through the same (possibly faulty) kernels, and every
suite entry must come out equal: cases, failures, worst and the
counterexample.  A fault is keyed on the call, not on the scalar type, so
it fires on both scales.
"""

from fractions import Fraction

import numpy as np
import pytest

from slex import cli, phasepoly, symfun

SUITES = ("sigma_recurrences", "pair_exclusion_difference",
          "product_decomposition")


def _entry(cases, fails, ce):
    entry = {"cases": cases, "failures": fails,
             "worst": "0" if fails == 0 else "exact mismatch"}
    if ce is not None:
        entry["counterexample"] = ce
    return entry


def _fraction_oracle(seed: int, trials: int) -> dict:
    rng = np.random.default_rng(seed)
    vectors = [cli._rational_vector(rng, 3 + t % 6) for t in range(trials)]
    text = [[f"{v.numerator}/{v.denominator}" for v in vec]
            for vec in vectors]
    fails = pair_fails = prod_fails = 0
    ce = pair_ce = prod_ce = None
    cases = pair_cases = prod_cases = 0
    for vec, a in zip(vectors, text):
        n = len(vec)
        sig = symfun.elem_sym_all(vec)
        rows = [symfun.elem_sym_excl_all(vec, (i,)) + [0]
                for i in range(1, n + 1)]
        pairs = [symfun.elem_sym_excl_all(vec, (i, n)) + [0]
                 for i in range(1, n)]
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


def _lying_wronskian(monkeypatch):
    real = phasepoly.ray_wronskian

    def lying(values, mode="product"):
        out = real(values, mode=mode)
        return out + 1 if mode == "product" else out

    monkeypatch.setattr(cli.phasepoly, "ray_wronskian", lying)


def _lying_sigma_1_excl_1(shift):
    def inject(monkeypatch):
        real = symfun.elem_sym_excl_all

        def lying(values, excl=()):
            row = real(values, excl)
            if tuple(excl) == (1,):
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
    "wronskian_product": (_lying_wronskian, set()),
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

