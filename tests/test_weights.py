"""Tests for extremal weights, decay exponents, and admissibility."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
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
    assert oracles.direction_weight(a, np.array([1.0, -2.0, 0.5]), 0) == 0.0
    # basis directions attain the closed-form bounds
    for k in range(1, 4):
        lo, hi = oracles.weight_bounds(a, k)
        e1 = np.array([1.0, 0.0, 0.0])
        en = np.array([0.0, 0.0, 1.0])
        assert oracles.direction_weight(a, e1, k) == pytest.approx(lo,
                                                                   rel=1e-14)
        assert oracles.direction_weight(a, en, k) == pytest.approx(hi,
                                                                   rel=1e-14)


def test_direction_weight_constant_on_isotropic_vectors():
    rng = np.random.default_rng(51)
    for rho in (0.5, 1.0, 3.7):
        for n in (3, 5, 8):
            a = np.full(n, rho)
            for _ in range(10):
                x = rng.standard_normal(n)
                for k in range(1, n + 1):
                    assert oracles.direction_weight(a, x, k) == \
                        pytest.approx(k / n, rel=1e-12)


def test_direction_weight_within_bounds_sampled():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        a = np.sort(np.exp(rng.standard_normal(n)))
        for k in range(0, n + 1):
            lo, hi = oracles.weight_bounds(a, k)
            for _ in range(200):
                x = rng.standard_normal(n)
                val = oracles.direction_weight(a, x, k)
                assert lo - 1e-12 <= val <= hi + 1e-12


def test_weight_bounds_known_values():
    lo, hi = oracles.weight_bounds((1.0, 2.0, 3.0), 1)
    assert lo == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert hi == pytest.approx(1.0 / 2.0, rel=1e-15)
    for n in (3, 4, 6):
        a = np.sort(np.exp(np.random.default_rng(n).standard_normal(n)))
        assert oracles.weight_bounds(a, 0) == (0.0, 0.0)
        assert oracles.weight_bounds(a, n) == (1.0, 1.0)


def test_weight_bounds_accepts_unsorted():
    lo, hi = oracles.weight_bounds((3.0, 1.0, 2.0), 1)
    assert lo == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert hi == pytest.approx(1.0 / 2.0, rel=1e-15)


def test_chains_monotone_with_strict_final_step():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        a = np.sort(np.exp(rng.standard_normal(n) * 1.5))
        lows, highs = zip(*(oracles.weight_bounds(a, k)
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
            lo, hi = oracles.weight_bounds(a, k)
            assert lo == pytest.approx(k / n, abs=1e-14)
            assert hi == pytest.approx(k / n, abs=1e-14)
        # any perturbation off the isotropic ray breaks the pinch
        for _ in range(10):
            bump = np.sort(1.3 + rng.uniform(0.01, 0.5, size=n)
                           * rng.integers(0, 2, size=n))
            if np.allclose(bump, bump[0]):
                continue
            for k in range(1, n):
                lo, hi = oracles.weight_bounds(bump, k)
                assert hi - lo > 1e-10


def test_weight_profile_selection_rule():
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = np.full(3, 1.0 / SQRT3)
    prof = oracles.profile(spec, a)
    c = spec.coeffs
    for k in range(4):
        lo, hi = oracles.weight_bounds(a, k)
        expect = hi if c[k] > 0 else lo
        assert prof.selected[k] == pytest.approx(expect, rel=1e-14)
    # c = (-1, 0, 1, 0): upper only at k = 2
    assert prof.selected[2] == oracles.weight_bounds(a, 2)[1]
    assert prof.selected[1] == oracles.weight_bounds(a, 1)[0]


def test_weight_profile_chains_equal_weight_bounds_bitwise():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        a = np.exp(1.5 * rng.standard_normal(n))
        spec = phasepoly.PhaseSpec(n, phasepoly.phase(a))
        if oracles.classification(spec) == "subcritical":
            # out of range, and off the level set of a supported phase:
            # no profile
            assert weights.classify(spec, a).profile is None
            spec = phasepoly.PhaseSpec(n, (n - 1) * math.pi / 2)
            assert weights.classify(spec, a).profile is None
        else:
            prof = oracles.profile(spec, a)
            assert prof.m == weights.decay_exponent(spec, a)
            c = spec.coeffs
            for k in range(n + 1):
                # the per-k formula on the sorted vector, bit for bit
                lower, upper = oracles.weight_bounds(a, k)
                assert prof.selected[k] == (upper if c[k] > 0 else lower)


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
        if oracles.classification(spec) == "subcritical":
            assert weights.classify(spec, a).profile is None
            continue
        prof = oracles.profile(spec, a)
        c = spec.coeffs
        for _ in range(25):
            x = rng.standard_normal(n)
            for k in range(1, n + 1):
                xi = oracles.direction_weight(a, x, k)
                assert prof.selected[k] * c[k] >= xi * c[k] - 1e-10
                assert prof.selected[k] * c[k] >= (k / n) * c[k] - 1e-10
        count += 1


def test_weight_profile_iso_selected_is_linear():
    for n in range(3, 7):
        theta = 0.8 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        prof = oracles.profile(spec, weights.iso_point(spec))
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
            lo1, _ = oracles.weight_bounds(a, 1)
            _, hi3 = oracles.weight_bounds(a, 3)
            assert m == pytest.approx(2.0 / (hi3 - lo1), rel=1e-9)
            assert m > 2.0
            count += 1


def test_decay_exponent_range_on_level_samples():
    # the draws reach below the critical angle for n = 5, 6: those phases
    # are out of range, the rest give 0 < m <= n
    rng = np.random.default_rng(57)
    count = 0
    subcritical = 0
    while count < 200:
        n = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.55, 0.95)) * n * math.pi / 2
        a = level_sample(rng, n, theta)
        if a is None:
            continue
        spec = phasepoly.PhaseSpec(n, theta)
        if oracles.classification(spec) == "subcritical":
            with pytest.raises(ValueError,
                               match="phase out of supported range"):
                weights.decay_exponent(spec, a)
            subcritical += 1
        else:
            m = weights.decay_exponent(spec, a)
            assert 0.0 < m <= n + 1e-10
        count += 1
    assert 0 < subcritical < count


@pytest.mark.parametrize("n", range(3, 9))
def test_subcritical_phase_rejected_like_ray_degree(n):
    # the range of PhaseSpec.ray_degree, which classify screens and
    # first_integral enforces; the critical angle and the eps family's
    # supercritical phase still give an exponent
    crit = (n - 2) * math.pi / 2
    for theta in (0.5 * crit if n > 2 else 0.5, crit - 0.05):
        if theta <= 0.0:
            continue
        spec = phasepoly.PhaseSpec(n, theta)
        a = weights.iso_point(spec)
        with pytest.raises(ValueError, match="phase out of supported range"):
            spec.ray_degree
        with pytest.raises(ValueError, match="phase out of supported range"):
            weights.decay_exponent(spec, a)
        assert weights.classify(spec, a).klass == "outside"
    spec = phasepoly.PhaseSpec(n, crit)
    a = weights.iso_point(spec)
    assert weights.decay_exponent(spec, a) == pytest.approx(n, rel=1e-12)
    assert oracles.profile(spec, a).m == weights.decay_exponent(spec, a)
    for eps in (0.0, 0.1, math.pi / 12):
        a5 = weights.epsilon_family(eps)
        m = weights.decay_exponent(SPEC5, a5)
        assert oracles.profile(SPEC5, a5).m == m
        assert 0.0 < m <= 5.0


def test_decay_exponent_errors():
    with pytest.raises(ValueError, match="phase out of supported range"):
        weights.decay_exponent(phasepoly.PhaseSpec(3, -math.pi / 2),
                               np.full(3, 1.0))
    with pytest.raises(ValueError, match="a not on the phase level set"):
        weights.decay_exponent(phasepoly.PhaseSpec(3, math.pi / 2),
                               np.array([1.0, 2.0, 3.0]))


class Flo(float):
    pass


# every input kind the weights layer reads a vector from, with the ones that
# must fail: each as (input, n)
VECTOR_INPUTS = {
    "list": ([3.0, 1.0, 2.0], 3),
    "ascending list": ([1.0, 2.0, 3.0], 3),
    "tuple": ((3.0, 1.0, 2.0), 3),
    "1-D ndarray": (np.array([3.0, 1.0, 2.0]), 3),
    "float32 ndarray": (np.array([0.1, 3.0, 2.5], dtype=np.float32), 3),
    "np.float64 entries": ([np.float64(0.3), np.float64(0.1), 2.0], 3),
    "float subclass entries": ([Flo(0.3), 0.1, 2.0], 3),
    "int entries": ([3, 1, 2], 3),
    "mixed int and float": ([3, 0.5, 2.0], 3),
    "bool entries": ([True, 2.0], 2),
    "Fraction entries": ([Fraction(1, 3), Fraction(7, 2), Fraction(1, 10)], 3),
    "str entries": (["0.5", "2"], 2),
    "0-d array entries": ([np.array(2.0), 1.0], 2),
    "huge and tiny": ([1.7976931348623157e308, 5e-324], 2),
    "inf entry": ([math.inf, 1.0], 2),
    "equal entries": ([2.0, 2.0, 2.0], 3),
    "nested list": ([[1.0, 2.0], [3.0, 4.0]], 2),
    "ragged list": ([[1.0], [2.0, 3.0]], 2),
    "1-element arrays": ([np.array([1.0]), np.array([2.0])], 2),
    "2-D array": (np.ones((2, 3)), 3),
    "column array": (np.ones((3, 1)), 3),
    "scalar": (2.0, 1),
    "str": ("12", 2),
    "NaN entry": ([1.0, math.nan, 2.0], 3),
    "NaN array": (np.array([math.nan, 1.0]), 2),
    "None entry": ([None, 1.0], 2),
    "zero entry": ([0.0, 1.0], 2),
    "negative zero": ([-0.0, 1.0], 2),
    "negative entry": ([1.0, -2.0], 2),
    "-inf entry": ([-math.inf, 1.0], 2),
    "empty list": ([], 0),
    "empty tuple": ((), 3),
    "empty array": (np.array([]), 3),
    "wrong length": ([1.0, 2.0], 3),
    "wrong length tuple": ((1.0, 2.0, 3.0, 4.0), 3),
    "wrong length and negative": ([1.0, -2.0], 3),
    "bad str entry": (["x", 1.0], 2),
    "complex entry": ([1j, 1.0], 2),
    "huge int entry": ([10 ** 400, 1.0], 2),
}


def outcome(fn, a, n):
    try:
        vals = fn(a, n)
    except Exception as exc:  # the error and its message are the outcome
        return type(exc), str(exc)
    return [type(v) for v in vals], bits(vals)


@pytest.mark.parametrize("kind", VECTOR_INPUTS)
def test_ascending_positive_keeps_the_ndarray_route_contract(kind):
    # every input kind gives the values, or the error and its message, of
    # the numpy round trip; a caller's list is left as it was
    a, n = VECTOR_INPUTS[kind]
    before = list(a) if isinstance(a, list) else None
    got = outcome(weights._ascending_positive, a, n)
    assert got == outcome(oracles.ascending_positive_ndarray, a, n)
    if before is not None:
        assert len(a) == len(before)
        assert all(x is y for x, y in zip(a, before))
    if not isinstance(got[0], type):
        assert got[0] == [float] * n


@pytest.mark.parametrize("a", [np.ones((3, 1)), [[1.0, 1.0, 1.0]]],
                         ids=["column array", "nested list"])
def test_non_1d_vector_has_one_message(a):
    # classify and decay_exponent name the same fault for a vector that is
    # not 1-D
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    for fn in (weights.classify, weights.decay_exponent):
        with pytest.raises(ValueError, match="^vector length does not match "
                                             "the phase dimension$"):
            fn(spec, a)


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
                spec.ray_degree
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


# theta against the critical angle (n-2)*pi/2: on it, 1e-12 to either side
# (the edge of PhaseSpec's criticality tolerance), below it, and above it
THETA_KINDS = ("critical", "critical+1e-12", "critical-1e-12", "subcritical",
               "supercritical")
# the data against its own phase theta: a level point, a far-off copy, or
# a level point of theta + offset, just inside and just outside
# LEVEL_TOL = 1e-10
POINT_KINDS = {"on": 0.0, "off": None, "inside+": 0.9e-10,
               "inside-": -0.9e-10, "outside+": 1.1e-10, "outside-": -1.1e-10}


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(n=st.integers(min_value=3, max_value=12),
       theta_kind=st.sampled_from(THETA_KINDS),
       u=st.floats(min_value=0.02, max_value=0.98),
       split=st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=12,
                      max_size=12),
       point_kind=st.sampled_from(sorted(POINT_KINDS)),
       reflect=st.booleans())
def test_classify_and_exponent_make_one_decision(n, theta_kind, u, split,
                                                 point_kind, reflect):
    # classify says "outside", with no profile, exactly when decay_exponent
    # raises, and otherwise the exponent, classify's m and its profile's m
    # have the same bits
    crit = (n - 2) * math.pi / 2
    theta = {"critical": crit, "critical+1e-12": crit + 1e-12,
             "critical-1e-12": crit - 1e-12, "subcritical": u * crit,
             "supercritical": crit + u * math.pi}[theta_kind]
    spec = phasepoly.PhaseSpec(n, theta)
    # angles pi/2 - d_j with the deficits d_j splitting n*pi/2 - theta
    deficits = np.array(split[:n])
    deficits *= (n * math.pi / 2 - theta) / deficits.sum()
    offset = POINT_KINDS[point_kind]
    target = phasepoly.PhaseSpec(n, theta + (offset or 0.0))
    try:
        a = weights.complete_to_phase(np.tan(math.pi / 2 - deficits[:-1]),
                                      target)
    except ValueError:
        assume(False)
    if offset is None:
        a = a * 1.001
    if offset not in (None, 0.0):
        # the completion is within 1e-12 of its own target
        assert abs(abs(phasepoly.phase(a) - theta) - abs(offset)) <= 2e-12

    try:
        m = weights.decay_exponent(spec, a)
    except ValueError:
        m = None
    adm = (weights.classify(phasepoly.PhaseSpec(n, -theta), -a) if reflect
           else weights.classify(spec, a))
    assert adm.reflected == reflect
    if m is None:
        assert adm.klass == "outside" and adm.m is None
        assert adm.profile is None
    else:
        assert adm.klass != "outside"
        assert bits(m) == bits(adm.m) == bits(adm.profile.m)


def test_epsilon_family_values():
    assert np.allclose(np.asarray(weights.epsilon_family(0.0)),
                       np.full(5, math.tan(math.pi / 3)), atol=1e-15)
    fam = weights.epsilon_family(0.1)
    assert abs(phasepoly.phase(fam) - 5 * math.pi / 3) <= 1e-12
    end = np.asarray(weights.epsilon_family(math.pi / 12))
    assert end[0] == pytest.approx(math.tan(math.pi / 6), rel=1e-15)
    assert np.all(end > 0.0) and np.all(np.isfinite(end))
    with pytest.raises(ValueError):
        weights.epsilon_family(-0.01)
    with pytest.raises(ValueError):
        weights.epsilon_family(math.pi / 12 + 0.01)


def test_epsilon_family_is_an_ascending_float_list():
    # the exponent reads the family as it is: five Python floats, ascending,
    # each the bits of tan(pi/3 + k*eps)
    for eps in [0.0, 5e-324, 1e-9, 0.2068, math.pi / 12,
                *np.linspace(0.0, math.pi / 12, 8000).tolist()]:
        fam = weights.epsilon_family(eps)
        assert type(fam) is list and [type(v) for v in fam] == [float] * 5
        assert fam == sorted(fam)
        want = [math.tan(math.pi / 3 + k * eps) for k in (-2, -1, 0, 1, 2)]
        assert bits(fam) == bits(want), eps


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


# ------------------------------------------------- float path vs numpy formula
# An in-test copy of the numpy formula the weights layer used before it ran on
# Python floats: sorted float64 array, three separate sigma rows, chains filled
# into np.empty arrays, np.where selection.  The float path must give the same
# bits and the same error messages.

def numpy_ascending_positive(a, n=None):
    arr = np.sort(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValueError("vector length does not match the phase dimension")
    if arr.size == 0 or not np.all(arr > 0):
        raise ValueError("vector must have all entries positive")
    if n is not None and arr.size != n:
        raise ValueError("vector length does not match the phase dimension")
    return arr


def numpy_chains(arr):
    al = arr.tolist()
    n = len(al)
    sig = symfun.elem_sym_all(al)
    less_min = symfun.elem_sym_excl_all(al, (1,))
    less_max = symfun.elem_sym_excl_all(al, (n,))
    lower = np.empty(n + 1)
    upper = np.empty(n + 1)
    lower[0] = upper[0] = 0.0
    for k in range(1, n):
        lower[k] = arr[0] * less_min[k - 1] / sig[k]
        upper[k] = arr[-1] * less_max[k - 1] / sig[k]
    lower[n] = upper[n] = 1.0
    return sig, lower, upper


def numpy_profile(spec, arr, with_m):
    sig, lower, upper = numpy_chains(arr)
    c = spec.coeffs
    selected = np.where(np.asarray(c) > 0, upper, lower)
    m = None
    if with_m:
        num = math.fsum(k * c[k] * sig[k] for k in range(1, spec.n + 1))
        den = math.fsum(selected[k] * c[k] * sig[k]
                        for k in range(1, spec.n + 1))
        m = num / den
    return sig, lower, upper, selected, m


def numpy_weight_profile(spec, a):
    numpy_decay_exponent(spec, a)  # the same checks, in the same order
    return numpy_profile(spec, numpy_ascending_positive(a, spec.n), True)


def numpy_decay_exponent(spec, a, tol=phasepoly.LEVEL_TOL):
    if not (0.0 < spec.theta < spec.n * math.pi / 2):
        raise ValueError("phase out of supported range")
    arr = numpy_ascending_positive(a, spec.n)
    if abs(phasepoly.phase(arr) - spec.theta) > tol:
        raise ValueError("a not on the phase level set")
    return numpy_profile(spec, arr, True)[4]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_profile_bits(spec, a):
    got = oracles.profile(spec, a)
    sig, _lower, _upper, selected, m = numpy_weight_profile(spec, a)
    assert bits(got.a) == bits(numpy_ascending_positive(a, spec.n))
    assert bits(got.selected) == bits(selected)
    assert bits(got.sigma) == bits(sig)
    assert bits(got.m) == bits(m)


def level_points(rng, n, count):
    """count permuted level points in dimension n, critical and
    supercritical in turn, as (spec, a) with a an ndarray."""
    out = []
    while len(out) < count:
        # D = n*pi/2 - theta: pi at the critical angle, less above it
        if len(out) % 2 == 0:
            gap = math.pi
        else:
            gap = float(rng.uniform(0.05 * n + 0.1, math.pi - 0.05))
        spec = phasepoly.PhaseSpec(n, n * math.pi / 2 - gap)
        ang = math.pi / 2 - (0.02 + (gap - 0.02 * n)
                             * rng.dirichlet(np.ones(n)))
        if np.any(ang <= 0.02):
            continue
        try:
            a = weights.complete_to_phase(np.tan(ang[:-1]), spec)
        except ValueError:
            continue
        out.append((spec, rng.permutation(a)))
    return out


def test_float_path_bit_identical_on_the_scan_grid():
    for i, eps in enumerate(np.linspace(0.0, math.pi / 12, 8000)):
        a = weights.epsilon_family(float(eps))
        assert bits(weights.decay_exponent(SPEC5, a)) == \
            bits(numpy_decay_exponent(SPEC5, a)), eps
        if i % 16 == 0:
            assert_profile_bits(SPEC5, a)


def test_float_path_bit_identical_on_random_level_points():
    rng = np.random.default_rng(2024)
    for n in range(3, 13):
        for spec, a in level_points(rng, n, 12):
            for form in (a.tolist(), tuple(a.tolist()), a):
                assert bits(weights.decay_exponent(spec, form)) == \
                    bits(numpy_decay_exponent(spec, form)), (n, spec.theta)
                assert_profile_bits(spec, form)
            # off the level set: decay_exponent's error, no profile
            assert message(weights.decay_exponent, spec, 1.01 * a) == \
                "a not on the phase level set"
            assert weights.classify(spec, 1.01 * a).profile is None


def assert_all_entry_points_bits(spec, a):
    """decay_exponent, classify(...).m and classify(...).profile against the
    numpy formula, bit for bit."""
    m = numpy_decay_exponent(spec, a)
    assert bits(weights.decay_exponent(spec, a)) == bits(m), spec
    adm = weights.classify(spec, a)
    assert adm.klass in ("admissible", "slow_decay")
    assert bits(adm.m) == bits(m), spec
    assert_profile_bits(spec, a)


@pytest.mark.parametrize("n", range(13, 65))
def test_float_path_bit_identical_on_iso_points_past_twelve(n):
    for theta in ((n - 2) * math.pi / 2, (n - 1) * math.pi / 2):
        spec = phasepoly.PhaseSpec(n, theta)
        a = weights.iso_point(spec)
        assert oracles.classification(spec) in ("critical",
                                                "supercritical")
        for form in (a, a.tolist()):
            assert_all_entry_points_bits(spec, form)


def test_float_path_bit_identical_on_random_level_points_past_twelve():
    rng = np.random.default_rng(2025)
    for n in range(13, 33):
        for spec, a in level_points(rng, n, 4):
            assert_all_entry_points_bits(spec, a)
            assert message(weights.decay_exponent, spec, 1.01 * a) == \
                "a not on the phase level set"
            assert weights.classify(spec, 1.01 * a).profile is None


def test_float_path_bit_identical_on_the_bisection_midpoints():
    # the 60 midpoints scan-eps bisects, each steered by the numpy formula
    lo, hi = 0.0, math.pi / 12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        a = weights.epsilon_family(mid)
        assert_all_entry_points_bits(SPEC5, a)
        if numpy_decay_exponent(SPEC5, a) > 2.0:
            lo = mid
        else:
            hi = mid
    assert 0.206 <= lo and hi <= 0.208


def message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("a", [
    [], (), np.array([]), [1.0, -1.0, 2.0], [1.0, float("nan"), 2.0],
    [0.0, 1.0, 1.0], np.array([-0.0, 1.0, 2.0]), [1.0, 1.0],
    [1.0, 1.0, 1.0, 1.0], [[1.0, 2.0, 3.0]], np.ones((3, 1)),
])
def test_float_path_error_messages_match(a):
    for spec in (phasepoly.PhaseSpec(3, math.pi / 2),
                 phasepoly.PhaseSpec(3, -math.pi / 2)):
        assert message(weights.decay_exponent, spec, a) == \
            message(numpy_decay_exponent, spec, a)


def test_float_path_error_messages_match_off_level_and_out_of_range():
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    for fn in (weights.decay_exponent, numpy_decay_exponent):
        assert message(fn, spec, [1.0, 2.0, 3.0]) == \
            "a not on the phase level set"
        assert message(fn, phasepoly.PhaseSpec(3, -math.pi / 2),
                       np.ones(3)) == "phase out of supported range"


@pytest.mark.parametrize("n, theta", [(170, 266.0), (200, 99 * math.pi)])
def test_decay_exponent_rejects_a_sigma_row_out_of_float_range(n, theta):
    # the iso point's sigma row overflows; the numpy formula turned it into
    # inf - inf inside fsum
    spec = phasepoly.PhaseSpec(n, theta)
    with pytest.raises(ValueError,
                       match="sigma row of the vector leaves the float range"):
        weights.decay_exponent(spec, weights.iso_point(spec))


def test_chains_reject_a_sigma_row_out_of_float_range():
    # level points of their own phase: a row that overflows, one that
    # underflows to 0, and one that starts at inf
    for a in ([1e200, 1e200, 1.0], [1e-200, 1e-200, 1e20, 1e20],
              [float("inf"), 1.0, 2.0]):
        spec = phasepoly.PhaseSpec(len(a), phasepoly.phase(a))
        with pytest.raises(ValueError, match="leaves the float range"):
            weights.decay_exponent(spec, a)


# --------------------------------------------- exponent vs both full chains
# decay_exponent forms only the theta-selected weight of each k.  The oracle
# here is the formula it replaced: the three sigma rows by the plain
# recurrence, both chains in full, the c_k-sign selection, then the same two
# fsums.  The exponent must equal it bit for bit.

def recurrence_row(vals):
    e = [0] * (len(vals) + 1)
    e[0] = 1
    for x in vals:
        for j in range(len(vals), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def chain_exponent(spec, a):
    vals = sorted(float(v) for v in a)
    n = len(vals)
    sig = recurrence_row(vals)
    less_max = recurrence_row(vals[:-1])
    less_min = recurrence_row(vals[1:])
    lower = ([0.0] + [vals[0] * less_min[k - 1] / sig[k]
                      for k in range(1, n)] + [1.0])
    upper = ([0.0] + [vals[-1] * less_max[k - 1] / sig[k]
                      for k in range(1, n)] + [1.0])
    c = spec.coeffs
    selected = [u if ck > 0 else lo for ck, lo, u in zip(c, lower, upper)]
    num = math.fsum([k * c[k] * sig[k] for k in range(1, n + 1)])
    den = math.fsum([selected[k] * c[k] * sig[k] for k in range(1, n + 1)])
    return num / den


def wide_level_points(rng, n, count):
    """count permuted level points in dimension n (any n >= 3), critical
    and supercritical in turn: the angles pi/2 - arctan(a_i) split the gap
    n*pi/2 - theta, pi at the critical angle and less above it."""
    out = []
    while len(out) < count:
        gap = (math.pi if len(out) % 2 == 0
               else float(rng.uniform(0.1, math.pi - 0.05)))
        spec = phasepoly.PhaseSpec(n, n * math.pi / 2 - gap)
        rest = gap * rng.dirichlet(np.ones(n))
        if np.any(rest >= math.pi / 2 - 0.02) or np.any(rest <= 1e-6):
            continue
        try:
            a = weights.complete_to_phase(1.0 / np.tan(rest[:-1]), spec)
        except ValueError:
            continue
        if abs(phasepoly.phase(a) - spec.theta) > phasepoly.LEVEL_TOL:
            continue
        out.append((spec, rng.permutation(a)))
    return out


def test_exponent_equals_chain_oracle_on_random_level_points():
    rng = np.random.default_rng(1709)
    for n in range(3, 65):
        for spec, a in wide_level_points(rng, n, 4):
            assert oracles.classification(spec) in ("critical",
                                                    "supercritical")
            assert bits(weights.decay_exponent(spec, a)) == \
                bits(chain_exponent(spec, a)), (n, spec.theta)


def test_exponent_equals_chain_oracle_on_iso_points():
    for n in range(3, 65):
        for theta in ((n - 2) * math.pi / 2, (n - 1) * math.pi / 2):
            spec = phasepoly.PhaseSpec(n, theta)
            a = weights.iso_point(spec)
            assert bits(weights.decay_exponent(spec, a)) == \
                bits(chain_exponent(spec, a)), (n, theta)


def test_exponent_equals_chain_oracle_on_the_scan_eps_points():
    # the rows of scan-eps --grid 97 and --grid 8000, then the bisection
    # midpoints of the crossing, each steered by the exponent just checked
    for grid in (97, 8000):
        for eps in np.linspace(0.0, math.pi / 12, grid).tolist():
            a = weights.epsilon_family(eps)
            assert bits(weights.decay_exponent(SPEC5, a)) == \
                bits(chain_exponent(SPEC5, a)), (grid, eps)
    lo, hi = 0.0, math.pi / 12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        a = weights.epsilon_family(mid)
        m = weights.decay_exponent(SPEC5, a)
        assert bits(m) == bits(chain_exponent(SPEC5, a)), mid
        if m > 2.0:
            lo = mid
        else:
            hi = mid
    assert 0.206 <= lo and hi <= 0.208


@pytest.mark.parametrize("spec, a, text", [
    (phasepoly.PhaseSpec(3, 1.0), [0.5, 0.5, 0.5],
     "phase out of supported range"),
    (phasepoly.PhaseSpec(3, -math.pi / 2), [1.0, 1.0, 1.0],
     "phase out of supported range"),
    (SPEC5, [1.0, 2.0, 3.0, 4.0, 5.0], "a not on the phase level set"),
    (phasepoly.PhaseSpec(3, math.pi / 2), [1.0, 0.0, 2.0],
     "vector must have all entries positive"),
    (phasepoly.PhaseSpec(3, math.pi / 2), [1.0, -1.0, 2.0],
     "vector must have all entries positive"),
    (phasepoly.PhaseSpec(3, math.pi / 2), [1.0, float("nan"), 2.0],
     "vector must have all entries positive"),
    (phasepoly.PhaseSpec(3, math.pi / 2), [1.0, 1.0],
     "vector length does not match the phase dimension"),
    (phasepoly.PhaseSpec(170, 266.0),
     weights.iso_point(phasepoly.PhaseSpec(170, 266.0)),
     "sigma row of the vector leaves the float range"),
])
def test_exponent_error_messages(spec, a, text):
    assert message(weights.decay_exponent, spec, a) == text
