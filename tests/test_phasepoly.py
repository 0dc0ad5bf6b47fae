"""Tests for phase polynomials, level values, and ray roots."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from slex import phasepoly, symfun, weights


A3 = np.full(3, 1.0 / math.sqrt(3.0))
SPEC3 = phasepoly.PhaseSpec(3, math.pi / 2)


def parts_of(lam):
    # alternating_parts reads the sigma row its caller holds
    return phasepoly.alternating_parts(symfun.elem_sym_all(lam))


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        phasepoly.PhaseSpec(2, 1.0)
    with pytest.raises(ValueError):
        phasepoly.PhaseSpec(3, 3 * math.pi / 2)
    with pytest.raises(ValueError):
        phasepoly.PhaseSpec(3, -3 * math.pi / 2)
    spec = phasepoly.PhaseSpec(4, math.pi)
    assert spec.is_critical and oracles.classification(spec) == "critical"
    assert oracles.classification(
        phasepoly.PhaseSpec(4, 1.1 * math.pi)) == "supercritical"
    assert oracles.classification(
        phasepoly.PhaseSpec(4, 0.9 * math.pi)) == "subcritical"
    assert phasepoly.PhaseSpec(3, -math.pi / 2).is_critical


def test_phase_known_values():
    assert phasepoly.phase([1.0] * 4) == pytest.approx(math.pi, abs=1e-15)
    assert phasepoly.phase([0.0] * 5) == 0.0
    for n in range(3, 8):
        theta = 0.7 * n * math.pi / 2
        lam = [math.tan(theta / n)] * n
        assert phasepoly.phase(lam) == pytest.approx(theta, abs=1e-12)


def test_phase_converts_each_entry_as_float_does():
    # math.atan reads an entry through __float__, as float() does, so the
    # sum is the bits of the old fsum(atan(float(v))) on every input kind
    rng = np.random.default_rng(32)
    for n in (1, 3, 8, 40):
        arr = np.exp(3.0 * rng.standard_normal(n)) * rng.choice([-1.0, 1.0], n)
        ints = rng.integers(-10 ** 6, 10 ** 6, n).tolist()
        for lam in (arr.tolist(), arr, arr.astype(np.float32), ints,
                    np.array(ints), [10 ** 30] * n,
                    [Fraction(int(p), int(q)) for p, q in zip(
                        rng.integers(-999, 999, n),
                        rng.integers(1, 999, n))]):
            old = math.fsum(map(math.atan, map(float, lam)))
            assert phasepoly.phase(lam) == old, (n, type(lam))


def test_alternating_parts_known_values():
    assert parts_of([0.0] * 5) == (1.0, 0.0, 0.0, 0.0)
    assert parts_of([1] * 4) == (-4, 0, -8, -8)
    assert parts_of([1, 0, 0, 0, 0]) == (1, 1, 0, 1)
    # the kernel reads the row it is handed: sigma([1] * 4)
    assert phasepoly.alternating_parts([1, 4, 6, 4, 1]) == (-4, 0, -8, -8)


def test_alternating_parts_weighted_known_values():
    # the weighted pair (Xw, Yw), the last two parts
    assert parts_of([0.0] * 4)[2:] == (0.0, 0.0)
    assert parts_of([1] * 3)[2:] == (-6, 0)
    assert parts_of([1, 0, 0, 0])[2:] == (0, 1)


def test_parts_match_complex_product_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        lam = rng.standard_normal(n) * 2.0
        prod = complex(1.0)
        for v in lam:
            prod *= 1.0 + 1j * v
        x, y, _xw, _yw = parts_of(lam.tolist())
        assert x == pytest.approx(prod.real, rel=1e-10, abs=1e-10)
        assert y == pytest.approx(prod.imag, rel=1e-10, abs=1e-10)


def test_weighted_parts_are_ray_derivatives():
    # Xhat, Yhat are t d/dt of the parts of prod(1 + i t lam) at t = 1;
    # check against central differences
    rng = np.random.default_rng(32)
    h = 1e-6
    for _ in range(40):
        n = int(rng.integers(3, 8))
        lam = rng.standard_normal(n)

        def parts(t):
            return parts_of((t * lam).tolist())[:2]

        xp, yp = parts(1.0 + h)
        xm, ym = parts(1.0 - h)
        _x, _y, xhat, yhat = parts_of(lam.tolist())
        assert xhat == pytest.approx((xp - xm) / (2 * h), rel=1e-6, abs=1e-4)
        assert yhat == pytest.approx((yp - ym) / (2 * h), rel=1e-6, abs=1e-4)


def test_tangent_ratio_and_sign_lemma_sampled():
    rng = np.random.default_rng(33)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        lam = rng.standard_normal(n) * 2.0
        x, y, _xw, _yw = parts_of(lam.tolist())
        h = phasepoly.phase(lam)
        if abs(x) > 1e-6 and abs(math.cos(h)) > 1e-6:
            assert y / x == pytest.approx(math.tan(h), rel=1e-10, abs=1e-10)
            assert math.copysign(1, x) == math.copysign(1, math.cos(h))
        if abs(math.sin(h)) > 1e-6:
            assert math.copysign(1, y) == math.copysign(1, math.sin(h))


def test_phase_coeffs_known_values():
    assert SPEC3.coeffs == (-1.0, 0.0, 1.0, 0.0)
    for n in range(3, 9):
        crit = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2)
        c = crit.coeffs
        assert c[n] == 0.0
        assert c[n - 1] == 1.0
        sup = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2 + 0.3)
        assert sup.coeffs[n] > 0.0


def test_phase_coeffs_reproduce_level_combination():
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        theta = float(rng.uniform(-0.49, 0.49)) * n * math.pi
        spec = phasepoly.PhaseSpec(n, theta)
        lam = rng.standard_normal(n) * 2.0
        x, y, _xw, _yw = parts_of(lam.tolist())
        z = oracles.level_value(spec, lam)
        assert z == pytest.approx(math.cos(theta) * y - math.sin(theta) * x,
                                  rel=1e-10, abs=1e-10)


def test_level_value_closed_case_is_quadratic():
    for t in (0.0, 0.5, 1.0, 2.0, 7.5):
        z = oracles.level_value(SPEC3, t * A3)
        assert z == pytest.approx(t * t - 1.0, abs=1e-12)


def test_level_value_zero_on_level_set():
    # the level combination scales like |prod(1 + i lam_k)|; compare
    # against that scale
    for n in range(3, 8):
        for frac in (0.55, 0.8, 0.95):
            theta = frac * n * math.pi / 2
            spec = phasepoly.PhaseSpec(n, theta)
            lam = np.full(n, math.tan(theta / n))
            x, y, _xw, _yw = parts_of(lam.tolist())
            scale = math.hypot(x, y)
            assert abs(oracles.level_value(spec, lam)) < 1e-12 * scale


def test_level_value_weighted_positive_on_level_set():
    rng = np.random.default_rng(35)
    count = 0
    while count < 60:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.55, 0.95)) * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        ang = theta * rng.dirichlet(np.ones(n))
        if np.any(ang <= 0.03) or np.any(ang >= math.pi / 2 - 0.03):
            continue
        try:
            a = weights.complete_to_phase(np.tan(ang[:-1]), spec)
        except ValueError:
            continue
        assert oracles.level_value_weighted(spec, a) > 0.0
        count += 1


def test_sign_dichotomy_bands():
    # positive for theta < H < theta + pi, negative for theta - pi < H < theta
    rng = np.random.default_rng(36)
    count = 0
    while count < 200:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(-0.4, 0.4)) * n * math.pi
        spec = phasepoly.PhaseSpec(n, theta)
        lam = rng.standard_normal(n) * 1.5
        h = phasepoly.phase(lam)
        z = oracles.level_value(spec, lam)
        if theta + 1e-3 < h < theta + math.pi - 1e-3:
            assert z > 0.0
            count += 1
        elif theta - math.pi + 1e-3 < h < theta - 1e-3:
            assert z < 0.0
            count += 1


def parts_product(lam):
    # X*Yw - Y*Xw, the Wronskian as verify forms it from the parts
    x, y, xw, yw = parts_of(lam)
    return x * yw - y * xw


def test_ray_wronskian_all_ones():
    for n in range(3, 13):
        assert phasepoly.ray_wronskian(symfun.gen_sym_table([1] * n)) == \
            n * 2 ** (n - 1)
        assert parts_product([1] * n) == n * 2 ** (n - 1)
    # the kernel reads the table it is handed: T[1][0] + T[2][1] of (1, 1)
    assert phasepoly.ray_wronskian([[1], [2, 2], [1, 2, 1]]) == 4
    assert phasepoly.ray_wronskian(symfun.gen_sym_table([1, 0, 0, 0])) == 1
    assert parts_product([1, 0, 0, 0]) == 1


def test_ray_wronskian_modes_agree_exactly():
    # the closed form against the product of the alternating parts
    rng = np.random.default_rng(37)
    for _ in range(120):
        n = int(rng.integers(3, 9))
        vals = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                for _ in range(n)]
        assert parts_product(vals) == \
            phasepoly.ray_wronskian(symfun.gen_sym_table(vals))


def test_ray_wronskian_positive_on_positive_cone():
    rng = np.random.default_rng(38)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        vals = np.exp(rng.standard_normal(n))
        assert phasepoly.ray_wronskian(
            symfun.gen_sym_table(vals.tolist())) > 0.0


def test_ray_degree_known_values():
    assert phasepoly.PhaseSpec(5, 3 * math.pi / 2).ray_degree == 4
    assert phasepoly.PhaseSpec(5, 5 * math.pi / 3).ray_degree == 5
    assert SPEC3.ray_degree == 2
    with pytest.raises(ValueError, match="phase out of supported range"):
        phasepoly.PhaseSpec(5, math.pi).ray_degree
    with pytest.raises(ValueError, match="phase out of supported range"):
        phasepoly.PhaseSpec(5, -3 * math.pi / 2).ray_degree


def test_ray_poly_degree_and_leading_sign():
    rng = np.random.default_rng(39)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        crit = (n - 2) * math.pi / 2
        theta = float(rng.uniform(crit, n * math.pi / 2 - 1e-6))
        spec = phasepoly.PhaseSpec(n, theta)
        a = np.exp(rng.standard_normal(n))
        coeffs = oracles.ray_poly(spec, a)
        assert len(coeffs) == spec.ray_degree + 1
        assert coeffs[-1] > 0.0


def test_ray_roots_closed_case():
    roots = oracles.ray_roots(SPEC3, A3)
    assert roots.size == 2
    assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)
    assert abs(roots[-1] - 1.0) <= 1e-9
    assert np.min(np.diff(roots)) > 1.0


def test_ray_roots_iso_points():
    for n in range(3, 8):
        for frac in (0.52, 0.7, 0.9):
            theta = frac * n * math.pi / 2
            if theta < (n - 2) * math.pi / 2:
                continue
            spec = phasepoly.PhaseSpec(n, theta)
            a = weights.iso_point(spec)
            roots = oracles.ray_roots(spec, a)
            assert len(roots) == spec.ray_degree
            assert abs(roots[-1] - 1.0) <= 1e-9
            assert np.min(np.diff(roots)) > 0.0


def test_ray_roots_random_level_points():
    rng = np.random.default_rng(40)
    count = 0
    while count < 40:
        n = int(rng.integers(3, 7))
        crit = (n - 2) * math.pi / 2
        theta = float(rng.uniform(crit + 0.1, n * math.pi / 2 - 0.2))
        spec = phasepoly.PhaseSpec(n, theta)
        ang = theta * rng.dirichlet(np.ones(n))
        if np.any(ang <= 0.03) or np.any(ang >= math.pi / 2 - 0.03):
            continue
        try:
            a = weights.complete_to_phase(np.tan(ang[:-1]), spec)
        except ValueError:
            continue
        roots = oracles.ray_roots(spec, a)
        assert len(roots) == spec.ray_degree
        assert abs(roots[-1] - 1.0) <= 1e-9
        assert np.all(np.diff(roots) > 0.0)
        assert roots[-2] < 1.0 - 1e-9
        count += 1


def _level_point(rng, n):
    """A random level-set point: a_j = tan(pi/2 - delta_j), with delta a
    Dirichlet draw over the slack n*pi/2 - theta."""
    crit = (n - 2) * math.pi / 2
    while True:
        theta = crit if rng.uniform() < 0.5 else \
            crit + float(rng.uniform(0.05, 0.95)) * math.pi
        delta = rng.dirichlet(np.full(n, 4.0)) * (n * math.pi / 2 - theta)
        if np.all(delta < math.pi / 2 - 0.01):
            return phasepoly.PhaseSpec(n, theta), np.tan(math.pi / 2 - delta)


def test_ray_roots_hit_their_phase_targets():
    # root k solves H(t*a) = theta - k*pi to a few ulps times n, up to n = 64
    rng = np.random.default_rng(42)
    for n in range(3, 65):
        iso = [phasepoly.PhaseSpec(n, (n - 2 + j) * math.pi / 2)
               for j in (0, 1)]
        cases = [(spec, weights.iso_point(spec)) for spec in iso]
        cases += [_level_point(rng, n) for _ in range(2)]
        for spec, a in cases:
            roots = oracles.ray_roots(spec, a)
            assert roots.size == spec.ray_degree
            assert abs(roots[-1] - 1.0) <= 1e-9
            assert np.min(np.diff(roots)) > 0.0
            for k, t in enumerate(roots[::-1]):
                target = spec.theta - k * math.pi
                got = math.fsum(math.atan(t * v) for v in a)
                assert abs(got - target) <= 4 * n * math.ulp(
                    max(abs(target), 1.0)), (n, spec.theta, k)


def test_ray_roots_far_roots_keep_relative_accuracy():
    # just above the critical angle the lowest root is about -n/(slack*a),
    # where H saturates; solved through -1/t it keeps full relative accuracy.
    # On the iso point every root has the closed form tan(phi_k/n)/a_1.
    pi = Fraction("3.14159265358979323846264338327950288419716939937510")
    for n in (4, 5, 8, 12):
        for slack in (1e-3, 1e-6, 1e-9):
            spec = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2 + slack)
            a = weights.iso_point(spec)
            exact = float(Fraction(spec.theta) - (n - 2) * pi / 2)
            expect = -1.0 / (a[0] * math.tan(exact / n))
            root = oracles.ray_roots(spec, a)[0]
            assert abs(root - expect) <= 2e-15 * abs(expect), (n, slack)
        # at an even critical angle c_0 = 0, so t = 0 is a root exactly
        spec = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2)
        roots = oracles.ray_roots(spec, weights.iso_point(spec))
        assert (0.0 in roots) == (n % 2 == 0)


def test_ray_roots_wide_spread_vectors():
    # entries spread over many decades, off the level set: Newton alone
    # can step out of a root's bracket here, and the bisection keeps it in
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        a = np.exp(rng.standard_normal(n) * 12.0)
        crit = (n - 2) * math.pi / 2
        spec = phasepoly.PhaseSpec(
            n, float(rng.uniform(crit + 0.01, n * math.pi / 2 - 0.01)))
        roots = oracles.ray_roots(spec, a)
        assert len(roots) == spec.ray_degree
        for k, t in enumerate(roots[::-1]):
            target = spec.theta - k * math.pi
            got = math.fsum(math.atan(t * v) for v in a)
            assert abs(got - target) <= 4 * n * math.ulp(
                max(abs(target), 1.0)), (n, spec.theta, k)


def test_ray_roots_match_companion_oracle():
    # the companion-matrix eigenvalues of the ray polynomial
    rng = np.random.default_rng(43)
    for n in range(3, 13):
        for spec, a in [_level_point(rng, n) for _ in range(10)]:
            roots = oracles.ray_roots(spec, a)
            oracle = np.sort(npoly.polyroots(oracles.ray_poly(spec, a)).real)
            np.testing.assert_allclose(roots, oracle, rtol=1e-12,
                                       atol=1e-15)


def test_ray_roots_off_the_level_set():
    # a root finder, not a check: a positive vector off the level set gets
    # its roots, and the largest is not 1
    roots = oracles.ray_roots(SPEC3, np.array([1.0, 2.0, 3.0]))
    assert roots.size == SPEC3.ray_degree
    assert roots[-1] < 1.0 - 1e-3


def ray_derivative(spec, a, t, order):
    """d^order/dt^order of the ray polynomial at t."""
    return npoly.polyval(t, npoly.polyder(oracles.ray_poly(spec, a), order))


def test_ray_derivative_closed_case():
    assert ray_derivative(SPEC3, A3, 1.0, 0) == pytest.approx(0.0, abs=1e-12)
    assert ray_derivative(SPEC3, A3, 1.0, 1) == pytest.approx(2.0, abs=1e-12)
    assert ray_derivative(SPEC3, A3, 2.0, 0) == pytest.approx(3.0, abs=1e-12)


def test_ray_derivative_positivity_contract():
    # on the level set, for t >= 1: every derivative positive, and the
    # value itself zero at t = 1 and positive beyond
    rng = np.random.default_rng(41)
    count = 0
    while count < 30:
        n = int(rng.integers(3, 7))
        crit = (n - 2) * math.pi / 2
        theta = float(rng.uniform(crit + 0.05, n * math.pi / 2 - 0.2))
        spec = phasepoly.PhaseSpec(n, theta)
        ang = theta * rng.dirichlet(np.ones(n))
        if np.any(ang <= 0.03) or np.any(ang >= math.pi / 2 - 0.03):
            continue
        try:
            a = weights.complete_to_phase(np.tan(ang[:-1]), spec)
        except ValueError:
            continue
        # first derivative at t = 1 equals the weighted level value
        d1 = ray_derivative(spec, a, 1.0, 1)
        assert d1 == pytest.approx(oracles.level_value_weighted(spec, a),
                                   rel=1e-9, abs=1e-9)
        for order in range(0, spec.ray_degree + 1):
            for t in (1.0, 1.5, 4.0):
                val = ray_derivative(spec, a, t, order)
                if order == 0 and t == 1.0:
                    assert abs(val) <= 1e-9
                else:
                    assert val > 0.0
        count += 1
