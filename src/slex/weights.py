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

which lies in (0, n], equals n exactly for the isotropic point
tan(theta/n) * ones, and governs the tail rate r^(-decay) of the radial
profile built in the radial module.

One check decides whether (theta, a) is a supported problem: theta in
PhaseSpec.ray_degree's range (the positive critical angle or above it), a
positive vector of length n, and |H(a) - theta| <= LEVEL_TOL, in that
order.  decay_exponent raises its ValueError; classify, after its sign
reflection, calls the data that fails it "outside", so no stage computes
an exponent classify would not give.  Data that passes is "admissible"
when the exponent exceeds 2 (the tail integral converges) and
"slow_decay" otherwise.

classify analyses a problem once.  The check's ascending values and
_chain's exponent, sigma row and selected chain make one WeightProfile,
returned as Admissibility.profile.  It is the only input of
radial.first_integral, which checks nothing that classify checked.

Everything runs on one ascending list of Python floats, through one
routine (_chain) behind every exponent and selected chain.  It runs the
three sigma recurrences in place, each value by elem_sym_all's
operations in its order, and forms only the selected chain, so the bits
are the ones the full rows and chains give.  A list of Python floats is
read as it is; any other vector goes through one numpy conversion first.
epsilon_family returns its five points as such a list, already
ascending, so a scan row builds no array.  Arrays appear only in what
the module hands out: the classified vector and the selected chain of a
WeightProfile, and the points of complete_to_phase and iso_point.  A
sigma row outside (0, F/(2n^2)), F the largest float, is rejected with
ValueError before any chain or exponent is formed: Python floats
overflow silently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .phasepoly import LEVEL_TOL, PhaseSpec, phase

_FLOAT_MAX = sys.float_info.max
_FLOAT = {float}


def _ascending_positive(a, n: int) -> list:
    """The entries of a as a new ascending list of n positive Python floats.

    A list of Python floats is read as it is; any other input goes through
    one numpy conversion to float, whose rules decide what is a vector.
    An input that is not 1-D has the wrong length, as classify says.
    """
    if type(a) is not list or set(map(type, a)) != _FLOAT:
        arr = np.asarray(a, dtype=float)
        if arr.ndim != 1:
            raise ValueError("vector length does not match the phase "
                             "dimension")
        a = arr.tolist()
    # 0.0 < v is False for NaN, so NaN entries are rejected too
    if not a or not all(map((0.0).__lt__, a)):
        raise ValueError("vector must have all entries positive")
    if len(a) != n:
        raise ValueError("vector length does not match the phase dimension")
    return sorted(a)


def _chain(c: Sequence, vals: list) -> tuple:
    """(m, sigma, selected) of an ascending positive list of n >= 2 entries
    under the level coefficients c: selected_k is the upper weight where c_k > 0, else the
    lower one, and m = sum k c_k sigma_k / sum selected_k c_k sigma_k.

    sigma(a | max) runs over all but the largest entry, sigma(a) is one more
    step of it, sigma(a | min) runs over all but the smallest.  A row grows
    by one entry per step in place of adding x * 0 to a full-length row's
    zeros, so every value sees elem_sym_all's operations in its order and
    keeps its bits.  Raises ValueError, before sigma(a | min), unless every
    sigma_k lies in (0, F/(2n^2)), F the largest float: then none of the
    sums' n terms, of size up to n * sigma_k, can overflow.
    """
    n = len(vals)
    lo, hi = vals[0], vals[-1]
    sig = [1, lo]
    for x in vals[1:-1]:
        j = len(sig) - 1
        sig.append(x * sig[j])
        while j:
            sig[j] += x * sig[j - 1]
            j -= 1
    less_max = sig[:]
    sig.append(hi * sig[-1])
    j = n - 1
    while j:
        sig[j] += hi * sig[j - 1]
        j -= 1
    top = _FLOAT_MAX / (2 * n * n)
    for s in sig:
        if not 0.0 < s < top:
            raise ValueError("sigma row of the vector leaves the float range")
    less_min = [1, *vals[1:2]]
    for x in vals[2:]:
        j = len(less_min) - 1
        less_min.append(x * less_min[j])
        while j:
            less_min[j] += x * less_min[j - 1]
            j -= 1
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


def _level_point(spec: PhaseSpec, a: Sequence) -> list:
    """a as an ascending list of floats, after the one check of a
    supported problem (the module docstring's), which raises ValueError."""
    spec.ray_degree  # raises outside the supported range
    vals = _ascending_positive(a, spec.n)
    if abs(phase(vals) - spec.theta) > LEVEL_TOL:
        raise ValueError("a not on the phase level set")
    return vals


@dataclass(frozen=True, eq=False)
class WeightProfile:
    """The analysis of one supported problem (spec, a), made by classify.

    a is the ascending float array of the classified vector; m is the
    decay exponent, sigma the row sigma_0..sigma_n of a as
    elem_sym_all gives it (Python floats after sigma_0 = 1), and selected
    the theta-selected weight chain, length n+1 (index k = 0..n).
    """
    spec: PhaseSpec
    a: np.ndarray
    m: float
    sigma: tuple
    selected: np.ndarray


def decay_exponent(spec: PhaseSpec, a: Sequence) -> float:
    """Decay exponent of a level-set point a; lies in (0, n].

    Raises ValueError unless (spec, a) passes the one check (_level_point).
    """
    return _chain(spec.coeffs, _level_point(spec, a))[0]


@dataclass(frozen=True)
class Admissibility:
    """Classification of eigenvalue data against a phase target.

    klass is "admissible" (definite sign, critical or supercritical phase,
    on the level set, exponent > 2), "slow_decay" (same but exponent <= 2),
    or "outside".  near_boundary flags an exponent within 1e-12 of the
    strict threshold 2.  reflected is true when the data was all negative
    and was classified as the problem (-theta, -lam).  With an exponent m,
    profile is the analysis of that classified problem (the reflection of
    the input when reflected), the one input of radial.first_integral;
    without one it is None.
    """
    klass: str
    m: Optional[float]
    near_boundary: bool = False
    reflected: bool = False
    profile: Optional[WeightProfile] = field(default=None, compare=False,
                                             repr=False)


def classify(spec: PhaseSpec, lam: Sequence) -> Admissibility:
    """Classify eigenvalue data lam (any order, either sign orientation).

    All-negative data is handled through the sign reflection: negating the
    unknown flips both the eigenvalues and the phase target, so lam < 0 is
    classified via the exponent of (-theta, -lam).  Data that fails
    decay_exponent's check after the reflection, a subcritical phase
    target included, is "outside": the construction, and every later
    stage, covers only the critical and supercritical range.  Otherwise
    the check's values and _chain's exponent, sigma row and selected
    chain make the problem's WeightProfile.  A sigma row
    outside the float range still raises ValueError.
    """
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size != spec.n:
        raise ValueError("vector length does not match the phase dimension")
    reflected = bool(np.all(arr < 0))
    if reflected:
        work_spec, work = PhaseSpec(spec.n, -spec.theta), -arr
    elif np.all(arr > 0):
        work_spec, work = spec, arr
    else:
        return Admissibility(klass="outside", m=None)
    try:
        vals = _level_point(work_spec, work)
    except ValueError:
        return Admissibility(klass="outside", m=None, reflected=reflected)
    m, sig, selected = _chain(work_spec.coeffs, vals)
    prof = WeightProfile(spec=work_spec, a=np.array(vals), m=m,
                         sigma=tuple(sig), selected=np.array(selected))
    klass = "admissible" if m > 2.0 else "slow_decay"
    return Admissibility(klass=klass, m=m, near_boundary=abs(m - 2.0) <= 1e-12,
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
    """The isotropic level-set point tan(theta/n) * ones(n)."""
    if not (0.0 < spec.theta < spec.n * math.pi / 2):
        raise ValueError("phase out of supported range")
    return np.full(spec.n, math.tan(spec.theta / spec.n))
