"""Tests for extremal weights, decay exponents, and admissibility."""

import math

import numpy as np
import pytest

from slex import phasepoly, symfun, weights


SQRT3 = math.sqrt(3.0)
EPS_ENDPOINT_M = (16.0 + 4.0 * SQRT3) / 13.0
SPEC5 = phasepoly.PhaseSpec(5, 5 * math.pi / 3)


def level_sample(rng, n, theta):
    """One random point of the positive level set, or None."""
    spec = phasepoly.PhaseSpec(n, theta)
    ang = theta * rng.dirichlet(np.ones(n))
    if np.any(ang <= 0.03) or np.any(ang >= math.pi / 2 - 0.03):
        return None
    try:
        return weights.complete_to_phase(np.tan(ang[:-1]), spec)
    except ValueError:
        return None


def test_direction_weight_known_values():
    a = np.array([1.0, 2.0, 3.0])
    assert weights.direction_weight(a, np.array([1.0, -2.0, 0.5]), 0) == 0.0
    # basis directions attain the closed-form bounds
    for k in range(1, 4):
        lo, hi = weights.weight_bounds(a, k)
        e1 = np.array([1.0, 0.0, 0.0])
        en = np.array([0.0, 0.0, 1.0])
        assert weights.direction_weight(a, e1, k) == pytest.approx(lo,
                                                                   rel=1e-14)
        assert weights.direction_weight(a, en, k) == pytest.approx(hi,
                                                                   rel=1e-14)
    with pytest.raises(ValueError):
        weights.direction_weight(a, np.zeros(3), 1)


def test_direction_weight_constant_on_isotropic_vectors():
    rng = np.random.default_rng(51)
    for rho in (0.5, 1.0, 3.7):
        for n in (3, 5, 8):
            a = np.full(n, rho)
            for _ in range(10):
                x = rng.standard_normal(n)
                for k in range(1, n + 1):
                    assert weights.direction_weight(a, x, k) == \
                        pytest.approx(k / n, rel=1e-12)


def test_direction_weight_within_bounds_sampled():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        a = np.sort(np.exp(rng.standard_normal(n)))
        for k in range(0, n + 1):
            lo, hi = weights.weight_bounds(a, k)
            for _ in range(200):
                x = rng.standard_normal(n)
                val = weights.direction_weight(a, x, k)
                assert lo - 1e-12 <= val <= hi + 1e-12


def test_weight_bounds_known_values():
    lo, hi = weights.weight_bounds((1.0, 2.0, 3.0), 1)
    assert lo == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert hi == pytest.approx(1.0 / 2.0, rel=1e-15)
    for n in (3, 4, 6):
        a = np.sort(np.exp(np.random.default_rng(n).standard_normal(n)))
        assert weights.weight_bounds(a, 0) == (0.0, 0.0)
        assert weights.weight_bounds(a, n) == (1.0, 1.0)


def test_weight_bounds_accepts_unsorted():
    lo, hi = weights.weight_bounds((3.0, 1.0, 2.0), 1)
    assert lo == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert hi == pytest.approx(1.0 / 2.0, rel=1e-15)


def test_chains_monotone_with_strict_final_step():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        a = np.sort(np.exp(rng.standard_normal(n) * 1.5))
        lows, highs = zip(*(weights.weight_bounds(a, k)
                            for k in range(n + 1)))
        for k in range(1, n):
            assert lows[k + 1] >= lows[k] - 1e-12
            assert highs[k + 1] >= highs[k] - 1e-12
            assert lows[k] <= k / n + 1e-12
            assert highs[k] >= k / n - 1e-12
        if not np.allclose(a, a[0]):
            assert lows[n] > lows[n - 1]
            assert highs[n] > highs[n - 1]


def test_pinch_characterization_both_directions():
    rng = np.random.default_rng(54)
    for n in (3, 5, 7):
        a = np.full(n, 1.3)
        for k in range(1, n):
            lo, hi = weights.weight_bounds(a, k)
            assert lo == pytest.approx(k / n, abs=1e-14)
            assert hi == pytest.approx(k / n, abs=1e-14)
        # any perturbation off the isotropic ray breaks the pinch
        for _ in range(10):
            bump = np.sort(1.3 + rng.uniform(0.01, 0.5, size=n)
                           * rng.integers(0, 2, size=n))
            if np.allclose(bump, bump[0]):
                continue
            for k in range(1, n):
                lo, hi = weights.weight_bounds(bump, k)
                assert hi - lo > 1e-10


def test_weight_profile_selection_rule():
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = np.full(3, 1.0 / SQRT3)
    prof = weights.weight_profile(spec, a)
    c = phasepoly.phase_coeffs(spec)
    for k in range(4):
        lo, hi = weights.weight_bounds(a, k)
        expect = hi if c[k] > 0 else lo
        assert prof.selected[k] == pytest.approx(expect, rel=1e-14)
    # c = (-1, 0, 1, 0): upper only at k = 2
    assert prof.selected[2] == pytest.approx(prof.upper[2], rel=1e-14)
    assert prof.selected[1] == pytest.approx(prof.lower[1], rel=1e-14)


def test_weight_profile_chains_equal_weight_bounds_bitwise():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        a = np.exp(1.5 * rng.standard_normal(n))
        spec = phasepoly.PhaseSpec(n, phasepoly.phase(a))
        prof = weights.weight_profile(spec, a)
        srt = np.sort(a)
        sig = symfun.elem_sym_all(srt.tolist())
        for k in range(n + 1):
            assert (prof.lower[k], prof.upper[k]) == \
                weights.weight_bounds(a, k)
            if 0 < k < n:
                # the per-k formula on the sorted vector, bit for bit
                less_min = symfun.elem_sym_all(srt[1:].tolist())[k - 1]
                less_max = symfun.elem_sym_all(srt[:-1].tolist())[k - 1]
                assert prof.lower[k] == float(srt[0] * less_min / sig[k])
                assert prof.upper[k] == float(srt[-1] * less_max / sig[k])
        assert prof.m == weights.decay_exponent(spec, a)


def test_weight_profile_dominates_direction_weights():
    rng = np.random.default_rng(55)
    count = 0
    while count < 30:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.55, 0.95)) * n * math.pi / 2
        a = level_sample(rng, n, theta)
        if a is None:
            continue
        spec = phasepoly.PhaseSpec(n, theta)
        prof = weights.weight_profile(spec, a)
        c = phasepoly.phase_coeffs(spec)
        for _ in range(25):
            x = rng.standard_normal(n)
            for k in range(1, n + 1):
                xi = weights.direction_weight(a, x, k)
                assert prof.selected[k] * c[k] >= xi * c[k] - 1e-10
                assert prof.selected[k] * c[k] >= (k / n) * c[k] - 1e-10
        count += 1


def test_weight_profile_iso_selected_is_linear():
    for n in range(3, 7):
        theta = 0.8 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        prof = weights.weight_profile(spec, weights.iso_point(spec))
        assert np.allclose(prof.selected, np.arange(n + 1) / n, atol=1e-12)
        assert prof.m == pytest.approx(n, abs=1e-10)


def test_decay_exponent_iso_equals_dimension():
    for n in range(3, 7):
        for theta in ((n - 2) * math.pi / 2, (n - 1) * math.pi / 2):
            spec = phasepoly.PhaseSpec(n, theta)
            m = weights.decay_exponent(spec, weights.iso_point(spec))
            assert m == pytest.approx(n, abs=1e-10)


def test_decay_exponent_epsilon_family_values():
    assert weights.decay_exponent(SPEC5, weights.epsilon_family(0.0)) == \
        pytest.approx(5.0, abs=1e-10)
    assert weights.decay_exponent(SPEC5,
                                  weights.epsilon_family(math.pi / 12)) == \
        pytest.approx(EPS_ENDPOINT_M, abs=1e-9)


def test_decay_exponent_theta_pi_identity():
    # at theta = pi the exponent collapses to 2/(upper_3 - lower_1) and
    # exceeds 2
    rng = np.random.default_rng(56)
    for n in (3, 4):
        count = 0
        while count < 25:
            a = level_sample(rng, n, math.pi)
            if a is None:
                continue
            spec = phasepoly.PhaseSpec(n, math.pi)
            m = weights.decay_exponent(spec, a)
            lo1, _ = weights.weight_bounds(a, 1)
            _, hi3 = weights.weight_bounds(a, 3)
            assert m == pytest.approx(2.0 / (hi3 - lo1), rel=1e-9)
            assert m > 2.0
            count += 1


def test_decay_exponent_range_on_level_samples():
    rng = np.random.default_rng(57)
    count = 0
    while count < 200:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.55, 0.95)) * n * math.pi / 2
        a = level_sample(rng, n, theta)
        if a is None:
            continue
        m = weights.decay_exponent(phasepoly.PhaseSpec(n, theta), a)
        assert 0.0 < m <= n + 1e-10
        count += 1


def test_decay_exponent_errors():
    with pytest.raises(ValueError, match="phase out of supported range"):
        weights.decay_exponent(phasepoly.PhaseSpec(3, -math.pi / 2),
                               np.full(3, 1.0))
    with pytest.raises(ValueError, match="a not on the phase level set"):
        weights.decay_exponent(phasepoly.PhaseSpec(3, math.pi / 2),
                               np.array([1.0, 2.0, 3.0]))


def test_classify_admissible_iso():
    for n in range(3, 7):
        theta = 0.8 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        adm = weights.classify(spec, weights.iso_point(spec))
        assert adm.klass == "admissible"
        assert adm.m == pytest.approx(n, abs=1e-10)
        assert not adm.near_boundary


def test_classify_slow_decay_endpoint():
    adm = weights.classify(SPEC5, weights.epsilon_family(math.pi / 12))
    assert adm.klass == "slow_decay"
    assert adm.m == pytest.approx(EPS_ENDPOINT_M, abs=1e-9)


def test_classify_outside():
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    assert weights.classify(spec, np.array([-1.0, 1.0, 1.0])).klass == \
        "outside"
    assert weights.classify(spec, np.array([0.0, 1.0, 1.0])).klass == \
        "outside"
    # positive but off the level set
    assert weights.classify(spec, np.array([1.0, 2.0, 3.0])).klass == \
        "outside"


def test_classify_subcritical_phase_is_outside():
    # level-set points exist below the critical angle, but no later stage
    # supports that range, so classify must not call them admissible
    for n in range(3, 9):
        crit = (n - 2) * math.pi / 2
        for theta in (0.5, 0.5 * crit, crit - 1e-6):
            spec = phasepoly.PhaseSpec(n, theta)
            a = weights.iso_point(spec)
            assert weights.classify(spec, a) == \
                weights.Admissibility(klass="outside", m=None)
            neg = weights.classify(phasepoly.PhaseSpec(n, -theta), -a)
            assert neg.klass == "outside"
            with pytest.raises(ValueError, match="phase out of supported"):
                phasepoly.ray_degree(spec)
        spec = phasepoly.PhaseSpec(n, crit)
        assert weights.classify(spec, weights.iso_point(spec)).klass == \
            "admissible"


def test_classify_negative_cone_reduction():
    rng = np.random.default_rng(58)
    count = 0
    while count < 20:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.6, 0.9)) * n * math.pi / 2
        a = level_sample(rng, n, theta)
        if a is None:
            continue
        pos = weights.classify(phasepoly.PhaseSpec(n, theta), a)
        neg = weights.classify(phasepoly.PhaseSpec(n, -theta), -a)
        assert neg.klass == pos.klass
        assert neg.m == pytest.approx(pos.m, rel=1e-12)
        count += 1


def test_classify_near_boundary_flag():
    lo, hi = 0.0, math.pi / 12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if weights.decay_exponent(SPEC5, weights.epsilon_family(mid)) > 2.0:
            lo = mid
        else:
            hi = mid
    adm = weights.classify(SPEC5, weights.epsilon_family(lo))
    assert abs(adm.m - 2.0) <= 1e-12
    assert adm.near_boundary
    assert 0.206 <= lo <= 0.208


def test_epsilon_family_values():
    assert np.allclose(weights.epsilon_family(0.0),
                       np.full(5, math.tan(math.pi / 3)), atol=1e-15)
    fam = weights.epsilon_family(0.1)
    assert abs(phasepoly.phase(fam) - 5 * math.pi / 3) <= 1e-12
    end = weights.epsilon_family(math.pi / 12)
    assert end[0] == pytest.approx(math.tan(math.pi / 6), rel=1e-15)
    assert np.all(end > 0.0) and np.all(np.isfinite(end))
    with pytest.raises(ValueError):
        weights.epsilon_family(-0.01)
    with pytest.raises(ValueError):
        weights.epsilon_family(math.pi / 12 + 0.01)


def test_complete_to_phase_examples():
    spec = phasepoly.PhaseSpec(3, 3 * math.pi / 4)
    assert np.allclose(weights.complete_to_phase((1.0, 1.0), spec),
                       np.ones(3), atol=1e-12)
    spec = phasepoly.PhaseSpec(3, math.pi)
    a = weights.complete_to_phase((1.0, 2.0), spec)
    assert np.allclose(a, (1.0, 2.0, 3.0), atol=1e-12)
    assert abs(phasepoly.phase(a) - math.pi) <= 1e-12
    with pytest.raises(ValueError, match="no positive completion"):
        weights.complete_to_phase((1.0, 1.0),
                                  phasepoly.PhaseSpec(3, math.pi / 2))
    with pytest.raises(ValueError):
        weights.complete_to_phase((1.0,), phasepoly.PhaseSpec(3, math.pi))


def test_iso_point_phase_membership():
    for n in range(3, 8):
        theta = 0.7 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        a = weights.iso_point(spec)
        assert abs(phasepoly.phase(a) - theta) <= 1e-12
