"""Oracle and identity tests for the symmetric polynomial kernels."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from slex import phasepoly, symfun, weights


def enum_elem_sym(vals, k):
    if k < 0 or k > len(vals):
        return 0
    total = 0
    for combo in itertools.combinations(range(len(vals)), k):
        prod = 1
        for i in combo:
            prod *= vals[i]
        total += prod
    return total


def enum_gen_sym(vals, k, j):
    n = len(vals)
    if k < 0 or j < 0 or j > k or k > n:
        return 0
    total = 0
    for combo in itertools.combinations(range(n), k):
        for squared in itertools.combinations(combo, j):
            prod = 1
            for i in combo:
                prod *= vals[i] * vals[i] if i in squared else vals[i]
            total += prod
    return total


def rational_vector(rng, n):
    return [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
            for _ in range(n)]


def test_elem_sym_known_values():
    assert symfun.elem_sym_all((1, 2, 3)) == [1, 6, 11, 6]
    assert oracles.elem_sym_excl((1, 2, 3), -1) == 0
    assert oracles.elem_sym_excl((1, 2, 3), 4) == 0


def test_elem_sym_matches_enumeration_exact():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        vals = rational_vector(rng, n)
        sig = symfun.elem_sym_all(vals)
        for k in range(n + 1):
            assert sig[k] == enum_elem_sym(vals, k)


def test_elem_sym_enumeration_n12():
    rng = np.random.default_rng(12)
    vals = rational_vector(rng, 12)
    sig = symfun.elem_sym_all(vals)
    for k in (0, 1, 5, 7, 12):
        assert sig[k] == enum_elem_sym(vals, k)


def test_elem_sym_excl_known_and_enumerated():
    assert oracles.elem_sym_excl((1, 2, 3), 1, {2}) == 4
    assert oracles.elem_sym_excl((1, 2, 3), 2, {1}) == 6
    assert oracles.elem_sym_excl((1, 2, 3), 0, {1, 3}) == 1
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        vals = rational_vector(rng, n)
        i, j = rng.choice(n, size=2, replace=False) + 1
        rest_i = [v for t, v in enumerate(vals, start=1) if t != i]
        rest_ij = [v for t, v in enumerate(vals, start=1) if t not in (i, j)]
        for k in range(n + 1):
            assert oracles.elem_sym_excl(vals, k, {int(i)}) == \
                enum_elem_sym(rest_i, k)
            assert oracles.elem_sym_excl(vals, k, {int(i), int(j)}) == \
                enum_elem_sym(rest_ij, k)


def test_elem_sym_excl_all_is_the_single_k_row():
    rng = np.random.default_rng(16)
    for n in range(1, 11):
        exact = rational_vector(rng, n)
        floats = (rng.standard_normal(n) * 2.0).tolist()
        excls = [()] + [(i,) for i in range(1, n + 1)] + \
            [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for vals in (exact, floats):
            for excl in excls:
                row = symfun.elem_sym_excl_all(vals, excl)
                rest = [v for t, v in enumerate(vals, start=1)
                        if t not in excl]
                assert len(row) == n - len(excl) + 1
                # same reduced list, same order, same recurrence: equal bits
                assert row == symfun.elem_sym_all(rest)


def test_elem_sym_excl_all_validates():
    for excl in ((1, 2, 3), (2, 2), (0,), (4,), (1, 4)):
        with pytest.raises(ValueError):
            symfun.elem_sym_excl_all((1, 2, 3), excl)


def test_split_and_weighted_sum_identities_exact():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        vals = rational_vector(rng, n)
        sig = symfun.elem_sym_all(vals)
        for k in range(n + 1):
            weighted = 0
            for i in range(1, n + 1):
                assert sig[k] == (oracles.elem_sym_excl(vals, k, (i,))
                                  + vals[i - 1]
                                  * oracles.elem_sym_excl(vals, k - 1, (i,)))
                weighted += vals[i - 1] * oracles.elem_sym_excl(vals, k - 1,
                                                                (i,))
            assert weighted == k * sig[k]


def test_pair_difference_identity_exact():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        vals = rational_vector(rng, n)
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        for k in range(1, n + 1):
            lhs = (vals[i - 1] * oracles.elem_sym_excl(vals, k - 1, (i,))
                   - vals[j - 1] * oracles.elem_sym_excl(vals, k - 1, (j,)))
            rhs = ((vals[i - 1] - vals[j - 1])
                   * oracles.elem_sym_excl(vals, k - 1, (i, j)))
            assert lhs == rhs


def test_gen_sym_known_values():
    assert symfun.gen_sym_table((1, 2))[2][1] == 6
    assert symfun.gen_sym_table((1, 1, 1, 1))[2][1] == 12
    assert symfun.gen_sym_table((1, 2, 3))[0][0] == 1


def test_gen_sym_matches_enumeration_exact():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        vals = rational_vector(rng, n)
        table = symfun.gen_sym_table(vals)
        for k in range(n + 1):
            for j in range(k + 1):
                assert table[k][j] == enum_gen_sym(vals, k, j)


def test_gen_sym_unit_counts():
    for n in range(1, 11):
        table = symfun.gen_sym_table([1] * n)
        for k in range(n + 1):
            for j in range(k + 1):
                assert table[k][j] == math.comb(n, k) * math.comb(k, j)


def test_gen_sym_reduces_to_elem_sym():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        vals = rational_vector(rng, n)
        sig = symfun.elem_sym_all(vals)
        table = symfun.gen_sym_table(vals)
        squares = [v * v for v in vals]
        for k in range(n + 1):
            assert table[k][0] == sig[k]
            assert table[k][k] == enum_elem_sym(squares, k)


def test_product_decomposition_exact_both_regimes():
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        vals = rational_vector(rng, n)
        sig = symfun.elem_sym_all(vals)
        table = symfun.gen_sym_table(vals)
        for j in range(n + 1):
            for k in range(j, n + 1):
                combo = sum(coeff * table[kk][jj] for coeff, (kk, jj)
                            in symfun.product_decomposition(j, k, n))
                assert combo == sig[j] * sig[k]


def test_product_decomposition_regimes_agree_on_diagonal():
    # j + k = n is covered by both closed forms; they must coincide term
    # by term after normalization
    for n in range(2, 9):
        for j in range(n + 1):
            k = n - j
            if k < j:
                continue
            low = symfun.product_decomposition(j, k, n)
            assert sorted(low) == sorted(symfun.product_decomposition(j, k, n))
            total = {}
            for coeff, key in low:
                total[key] = total.get(key, 0) + coeff
            ones = symfun.gen_sym_table([1] * n)
            lhs = sum(c * ones[kk][jj] for (kk, jj), c in
                      ((key, coeff) for key, coeff in total.items()))
            assert lhs == math.comb(n, j) * math.comb(n, k)


def test_signed_odd_binomial_sum():
    assert symfun.signed_odd_binomial_sum(0) == 1
    for q in range(1, 21):
        assert symfun.signed_odd_binomial_sum(q) == 0
    # direct alternating-sum oracle
    for q in range(0, 12):
        oracle = sum((-1) ** t * (2 * t + 1) * math.comb(2 * q + 1, q - t)
                     for t in range(0, q + 1))
        assert symfun.signed_odd_binomial_sum(q) == oracle


def test_sigma_rank_one_known_values():
    sig, excl = oracles.rank_one_rows((1, 1))
    assert symfun.sigma_rank_one(sig, excl, (1, 0), 2, 1) == 4
    assert symfun.sigma_rank_one(sig, excl, (1, 0), 2, 2) == 3


def test_sigma_rank_one_matches_eigen_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = np.exp(rng.standard_normal(n))
        q = rng.standard_normal(n)
        s = float(rng.standard_normal())
        lam = np.linalg.eigvalsh(np.diag(p) + s * np.outer(q, q))
        sig, excl = oracles.rank_one_rows(p.tolist())
        eig_sig = symfun.elem_sym_all(lam.tolist())
        for k in range(1, n + 1):
            direct = symfun.sigma_rank_one(sig, excl, q.tolist(), s, k)
            oracle = eig_sig[k]
            assert direct == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_sigma_rank_one_exact_rational():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = rational_vector(rng, n)
        q = rational_vector(rng, n)
        s = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
        # characteristic-coefficient oracle via the exclusion expansion done
        # with a symbolic determinant on small sizes is overkill; instead
        # check the defining expansion directly
        sig, excl = oracles.rank_one_rows(p)
        for k in range(1, n + 1):
            expect = symfun.elem_sym_all(p)[k]
            for i in range(1, n + 1):
                expect += s * q[i - 1] ** 2 * oracles.elem_sym_excl(p, k - 1,
                                                                    (i,))
            assert symfun.sigma_rank_one(sig, excl, q, s, k) == expect


def test_sigma_rank_one_validates():
    sig, excl = oracles.rank_one_rows((1, 2))
    with pytest.raises(ValueError):
        symfun.sigma_rank_one(sig, excl, (1, 2, 3), 1, 1)
    with pytest.raises(ValueError):
        symfun.sigma_rank_one(sig, excl[:1], (1, 2), 1, 1)
    with pytest.raises(ValueError):
        symfun.sigma_rank_one(sig, excl, (1, 2), 1, 0)
    with pytest.raises(ValueError):
        symfun.sigma_rank_one(sig, excl, (1, 2), 1, 3)


def test_newton_check_known_margins():
    report = symfun.newton_check(symfun.elem_sym_all((1, 2, 3)))
    assert report.passed
    assert report.margins[1] == 25
    assert report.margins[2] == 85


def test_newton_check_random_real_vectors():
    # Newton's inequalities hold for every real vector
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        vals = rng.standard_normal(n) * 3.0
        report = symfun.newton_check(symfun.elem_sym_all(vals.tolist()))
        scale = max(1.0, *(abs(v) for v in report.margins.values()))
        assert all(v >= -1e-9 * scale for v in report.margins.values())


def test_newton_check_exact_rational_nonnegative():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        vals = rational_vector(rng, n)
        assert symfun.newton_check(symfun.elem_sym_all(vals)).passed


def test_elem_sym_stack_matches_scalar_path():
    rng = np.random.default_rng(23)
    lam = rng.standard_normal((17, 5))
    table = symfun.elem_sym_stack(lam)
    assert table.shape == (17, 6)
    for row in range(17):
        sig = symfun.elem_sym_all(lam[row].tolist())
        assert np.allclose(table[row], [float(v) for v in sig],
                           rtol=1e-12, atol=1e-12)


def level_set_vector(rng, n):
    """A level-set point (spec, a) whose entries spread over 1e-3 .. 1e6.

    The angles pi/2 - arctan(a_j) are a Dirichlet draw (concentration 0.3)
    over the slack n*pi/2 - theta of a critical or supercritical theta.
    """
    crit = (n - 2) * math.pi / 2
    while True:
        spec = phasepoly.PhaseSpec(n, crit + float(rng.uniform(0.0, 0.95))
                                   * math.pi)
        delta = rng.dirichlet(np.full(n, 0.3)) * (n * math.pi / 2 - spec.theta)
        if np.any(delta < 1e-6) or np.any(delta > math.pi / 2 - 1e-3):
            continue
        try:
            return spec, weights.complete_to_phase(1.0 / np.tan(delta[:-1]),
                                                   spec)
        except ValueError:
            continue


def mp_phase_level(p, s, q, c):
    """(H, L / prod sqrt(1 + lambda^2)) from 40-digit eigenvalues."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        n = len(p)
        mat = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mat[i, j] = mp.mpf(s) * mp.mpf(q[i]) * mp.mpf(q[j])
            mat[i, i] += mp.mpf(p[i])
        lam = list(mp.eigsy(mat, eigvals_only=True))
        sig = [mp.mpf(1)] + [mp.mpf(0)] * n
        for x in lam:
            for k in range(n, 0, -1):
                sig[k] += x * sig[k - 1]
        level = mp.fsum(mp.mpf(c[k]) * sig[k] for k in range(n + 1))
        scale = mp.fprod(mp.sqrt(1 + x * x) for x in lam)
        return float(mp.fsum(mp.atan(x) for x in lam)), float(level / scale)


def test_rank_one_phase_level_matches_high_precision_oracle():
    # both signs of s, s |q|^2 from 1e-8 to 1e8 in size, entries of a from
    # 1e-3 to 1e6 in one vector: there a float eigvalsh is off by up to
    # 2e-10 (its error is eps * |M| on every eigenvalue), so the oracle
    # runs at 40 digits.  s |q|^2 = -1e8 on large entries takes Arg(w) to
    # within 1e-6 of -pi; with p > 0 it stays below pi/2, so the mixed-sign
    # diagonals take it near +pi.
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 8, 12, 16, 24):
        for case in range(8):
            spec, a = level_set_vector(rng, n)
            c = spec.coeffs
            p = float(rng.uniform(1.0, 10.0)) * a
            if case == 7:
                p = p * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
            q = a * rng.standard_normal(n)
            size = 10.0 ** rng.uniform(-8.0, 8.0)
            sign = float(rng.choice([-1.0, 1.0]))
            if case >= 5:
                size, sign = 1e8, (-1.0, 1.0, 1.0)[case - 5]
            s = sign * size / float(q @ q)
            phase, level, scaled = symfun.rank_one_phase_level(
                p[None], np.array([s]), (q * q)[None, None], c)
            assert phase.shape == level.shape == scaled.shape == (1, 1)
            h, lev_scaled = mp_phase_level(p, s, q, c)
            assert abs(phase[0, 0] - h) <= 1e-12, (n, case)
            assert abs(scaled[0, 0] - lev_scaled) <= 1e-12, (n, case)
