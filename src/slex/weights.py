"""The selected weight chain and the decay exponent.

For a positive vector a and a direction x != 0 the k-th direction weight is
the ratio

    sum_i sigma_{k-1}(a less i) a_i^2 x_i^2
    -----------------------------------------  ,
    sigma_k(a) * sum_i a_i x_i^2

a number in (0, 1) for 1 <= k < n.  Over all directions it ranges between
two closed-form extremes, attained on the coordinate axes of the smallest
and largest entry:

    lower_k = a_min * sigma_{k-1}(a less min) / sigma_k(a)
    upper_k = a_max * sigma_{k-1}(a less max) / sigma_k(a).

Both chains are nondecreasing in k, start at 0, end at exactly 1, and
sandwich k/n; they pinch onto k/n at some interior k only for constant
vectors.  The per-direction weight and both full chains live with the
tests, as oracles (tests/oracles.py); this module forms only the selected
chain.

Given a phase target theta, the selected weight takes the upper value where
the level coefficient c_k(theta) is positive and the lower value otherwise.
The decay exponent of a level-set point a is then

    decay = sum_k k c_k sigma_k(a) / sum_k selected_k c_k sigma_k(a),

which governs the tail rate r^(-decay) of the radial profile built in the
radial module.  Exactly, it lies in (0, n] and is n at the isotropic point
tan(theta/n) * ones; the float is not: on 444 iso points (n = 3..150, at
the critical angle, pi/4 above it and (n - 1) pi/2) m != n on 414 and
m > n on 215, with |m/n - 1| at most 1.88 n eps (n = 99, critical).

PhaseSpec bounds |theta| < n*pi/2.  classify's sign rule classifies
all-negative data as its reflection (-theta, -a), since the operator is
odd, and calls data of mixed sign "outside".  One check then decides
whether (theta, a), with a a positive vector of length n, is a supported
problem: theta in PhaseSpec.ray_degree's range (the positive critical
angle or above it), then |H(a) - theta| <= LEVEL_TOL.  decay_exponent
raises its ValueError; classify calls the data that fails it "outside",
so no stage computes an exponent classify would not give.  Data that
passes is "admissible" when the exponent exceeds 2 (the tail integral
converges) and "slow_decay" otherwise.  The length is the caller's to
get right: solve checks --a against --n, and iso_point and
epsilon_family build n and five entries.

classify analyses a problem once.  The check's ascending values and
_chain's exponent, sigma row and selected chain make one WeightProfile,
returned as Admissibility.profile.  It is the only input of
radial.first_integral, which checks nothing that classify checked.

Everything runs on one ascending list of Python floats, through one
routine (_chain) behind every exponent and selected chain.  It grows its
three sigma rows by one recurrence (_grow), each value by elem_sym_all's
operations in its order, and forms only the selected chain, so the bits
are the ones the full rows and chains give.  There is one vector route:
decay_exponent takes a list of Python floats, and classify makes one of
its data.  epsilon_family returns its five points as such a list,
already ascending, so a scan row builds no array, and a WeightProfile
holds tuples.  Arrays appear only in the points of complete_to_phase and
iso_point.  _chain rejects a sigma row outside (0, F/(2n^2)), F the
largest float, with ValueError before any chain or exponent is formed,
since Python floats overflow silently; it tests sigma_n first, in O(n),
so a huge n builds no row.
"""

import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .phasepoly import LEVEL_TOL, PhaseSpec, phase

_FLOAT_MAX = sys.float_info.max


def _grow(row: list, xs) -> list:
    """row, a sigma row of some entries, grown in place by the entries xs,
    one degree per entry as in elem_sym_all; the new top degree is
    appended as x * sigma_j, where elem_sym_all appends 0 + x * sigma_j,
    the same float for the positive entries here.

    It is not symfun.elem_sym_all on purpose: growing a row lets sigma(a)
    be one step of sigma(a | max), where elem_sym_all would run three
    full recurrences.  With elem_sym_all, decay_exponent over the
    8,000-point eps family took 47-48 ms against 38-40 ms (best of 7, a
    2-vCPU x86-64 host), with the same exponents."""
    for x in xs:
        j = len(row) - 1
        row.append(x * row[j])
        while j:
            row[j] += x * row[j - 1]
            j -= 1
    return row


def _chain(c: Sequence, vals: list) -> tuple:
    """(m, sigma, selected) of an ascending positive list of n >= 2 entries
    under the level coefficients c: selected_k is the upper weight where c_k > 0, else the
    lower one, and m = sum k c_k sigma_k / sum selected_k c_k sigma_k.

    _grow builds all three rows: sigma(a | max) from all but the largest
    entry, sigma(a) as one more step of it, sigma(a | min) from all but
    the smallest.  So every value sees elem_sym_all's operations in its
    order and keeps its bits.  Raises ValueError unless every sigma_k lies
    in (0, F/(2n^2)), F the largest float: then none of the sums' n terms,
    of size up to n * sigma_k, can overflow.  sigma_n goes first, in O(n),
    as math.prod(vals): the rows' float, as IEEE multiplication commutes.
    """
    n = len(vals)
    top = _FLOAT_MAX / (2 * n * n)
    if not 0.0 < math.prod(vals) < top:
        raise ValueError("sigma row of the vector leaves the float range")
    lo, hi = vals[0], vals[-1]
    less_max = _grow([1, lo], vals[1:-1])
    sig = _grow(less_max[:], (hi,))
    for s in sig:
        if not 0.0 < s < top:
            raise ValueError("sigma row of the vector leaves the float range")
    less_min = _grow([1, vals[1]], vals[2:])
    selected, num, den = [0.0], [], []
    for k in range(1, n):
        ck, sk = c[k], sig[k]
        w = (hi * less_max[k - 1] if ck > 0 else lo * less_min[k - 1]) / sk
        selected.append(w)
        num.append(k * ck * sk)
        den.append(w * ck * sk)
    selected.append(1.0)
    num.append(n * c[n] * sig[n])
    den.append(1.0 * c[n] * sig[n])
    return math.fsum(num) / math.fsum(den), sig, selected


def _level_point(spec: PhaseSpec, a: list) -> list:
    """The positive Python floats of a, n of them, as a new ascending list,
    after the one check of a supported problem (the module docstring's),
    which raises ValueError."""
    spec.ray_degree  # raises outside the supported range
    vals = sorted(a)
    # written so that a NaN phase is off the level set too
    if not abs(phase(vals) - spec.theta) <= LEVEL_TOL:
        raise ValueError("a not on the phase level set")
    return vals


class WeightProfile(NamedTuple):
    """The analysis of one supported problem (spec, a), made by classify.

    a is the classified vector, ascending; m is the decay exponent, sigma
    the row sigma_0..sigma_n of a as elem_sym_all gives it (Python floats
    after sigma_0 = 1), and selected the theta-selected weight chain,
    length n+1 (index k = 0..n).  a, sigma and selected are tuples.
    """
    spec: PhaseSpec
    a: tuple
    m: float
    sigma: tuple
    selected: tuple


def decay_exponent(spec: PhaseSpec, a: list) -> float:
    """Decay exponent of a level-set point a, a list of n positive Python
    floats in any order; in (0, n] up to rounding (module docstring).

    Raises ValueError unless (spec, a) passes the one check (_level_point).
    """
    return _chain(spec.coeffs, _level_point(spec, a))[0]


class Admissibility(NamedTuple):
    """Classification of eigenvalue data against a phase target.

    klass is "admissible" (definite sign, critical or supercritical phase,
    on the level set, exponent > 2), "slow_decay" (same but exponent <= 2),
    or "outside".  reflected is true when the data was all negative and
    was classified as the problem (-theta, -lam).  Unless klass is
    "outside", profile is the analysis of that classified problem (the
    reflection of the input when reflected), the one input of
    radial.first_integral, and holds the exponent as profile.m; otherwise
    it is None.
    """
    klass: str
    reflected: bool = False
    profile: Optional[WeightProfile] = None


def classify(spec: PhaseSpec, lam: Sequence) -> Admissibility:
    """Classify eigenvalue data lam (any order, either sign orientation),
    n = spec.n finite entries.

    The sign rule, on the data as a list of Python floats: negating the
    unknown flips both the eigenvalues and the phase target, so lam < 0 is
    classified as (-theta, -lam); data of mixed sign is "outside".  So is
    data that then fails decay_exponent's check, a subcritical phase
    target included: the construction, and every later stage, covers only
    the critical and supercritical range.  Otherwise the check gives the
    ascending values, and they and _chain's exponent, sigma row and
    selected chain make the problem's WeightProfile.  _chain raises on a
    sigma row outside the float range.
    """
    vals = list(map(float, lam))
    reflected = all(x < 0 for x in vals)
    if reflected:
        spec, vals = PhaseSpec(spec.n, -spec.theta), [-x for x in vals]
    elif not all(x > 0 for x in vals):
        return Admissibility(klass="outside")
    try:
        vals = _level_point(spec, vals)
    except ValueError:
        return Admissibility(klass="outside", reflected=reflected)
    m, sig, selected = _chain(spec.coeffs, vals)
    prof = WeightProfile(spec=spec, a=tuple(vals), m=m, sigma=tuple(sig),
                         selected=tuple(selected))
    return Admissibility(klass="admissible" if m > 2.0 else "slow_decay",
                         reflected=reflected, profile=prof)


def complete_to_phase(prefix: Sequence, spec: PhaseSpec) -> np.ndarray:
    """Extend n-1 positive entries to a sorted level-set point.

    The remainder theta - sum(arctan(prefix)) must lie strictly inside
    (0, pi/2); the returned vector has phase equal to theta to within
    1e-12 by construction.
    """
    pre = np.asarray(prefix, dtype=float)
    if pre.ndim != 1 or pre.size != spec.n - 1 or not np.all(pre > 0):
        raise ValueError("prefix must be n-1 positive entries")
    rem = spec.theta - math.fsum(math.atan(v) for v in pre)
    if not (0.0 < rem < math.pi / 2):
        raise ValueError("no positive completion")
    return np.sort(np.append(pre, math.tan(rem)))


# the problem the eps family lives on: n = 5 at theta = 5*pi/3
EPS_SPEC = PhaseSpec(5, 5 * math.pi / 3)


def epsilon_family(eps: float) -> list:
    """The five-point level family tan(pi/3 + k*eps), k = -2..2, as an
    ascending list of Python floats.

    Defined for 0 <= eps <= pi/12; the phase is identically 5*pi/3 (the
    arctans telescope).  At the endpoint the largest entry is the tangent
    of an angle one float rounding below pi/2, which is huge but finite
    and positive.
    """
    if not (0.0 <= eps <= math.pi / 12):
        raise ValueError("eps must lie in [0, pi/12]")
    base = math.pi / 3
    return [math.tan(base + k * eps) for k in (-2, -1, 0, 1, 2)]


def iso_point(spec: PhaseSpec) -> np.ndarray:
    """The isotropic level-set point tan(theta/n) * ones(n), finite as
    |theta| < n*pi/2; at theta < 0 the reflection of the point at -theta,
    which classify solves as such."""
    return np.full(spec.n, math.tan(spec.theta / spec.n))
