"""Direction weights, their extremal bounds, and the decay exponent.

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
vectors.

Given a phase target theta, the selected weight takes the upper value where
the level coefficient c_k(theta) is positive and the lower value otherwise.
The decay exponent of a level-set point a is then

    decay = sum_k k c_k sigma_k(a) / sum_k selected_k c_k sigma_k(a),

which lies in (0, n], equals n exactly for the isotropic point
tan(theta/n) * ones, and governs the tail rate r^(-decay) of the radial
profile built in the radial module.  Classification: eigenvalue data with a
definite sign on the level set is "admissible" when the exponent exceeds 2
(the tail integral converges) and "slow_decay" otherwise; anything else,
a subcritical phase target included, is "outside".  decay_exponent and
weight_profile reject a subcritical phase with phasepoly.ray_degree's
ValueError, so no stage computes an exponent classify would not give.

The chains and the exponent run on one ascending list of Python floats,
without numpy arrays.  One recurrence pass builds sigma(a); its state just
before the last (largest) entry is sigma(a less max), the same operations
as elem_sym_all on the shortened list and so the same bits.  sigma(a less
min) takes a second pass.  The coefficients c_k are computed once per
PhaseSpec.  Arrays appear only in the WeightProfile that weight_profile
returns; it also carries the sigma row, so the radial module builds its
slope-field pair and takes m from one profile.  Python floats overflow
silently, so a sigma row outside (0, F/(2n^2)), F the largest float, is
rejected with ValueError before any chain or exponent is formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .phasepoly import LEVEL_TOL, PhaseSpec, phase, phase_coeffs, ray_degree
from .symfun import elem_sym_all, elem_sym_excl

_FLOAT_MAX = sys.float_info.max


def _ascending_positive(a, n: Optional[int] = None) -> list:
    """The entries of a as an ascending list of positive Python floats."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("vector must have all entries positive")
    vals = arr.tolist()
    for v in vals:
        if not v > 0.0:
            raise ValueError("vector must have all entries positive")
    if n is not None and len(vals) != n:
        raise ValueError("vector length does not match the phase dimension")
    vals.sort()
    return vals


def direction_weight(a: Sequence, x: Sequence, k: int) -> float:
    """Weight of direction x at index k; pairing of a and x is preserved."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.shape != x.shape:
        raise ValueError("a and x must have the same length")
    if not np.all(a > 0):
        raise ValueError("vector must have all entries positive")
    if not np.any(x != 0):
        raise ValueError("direction must be nonzero")
    n = a.size
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return 0.0
    al = a.tolist()
    num = math.fsum(elem_sym_excl(al, k - 1, (i + 1,)) * a[i] ** 2 * x[i] ** 2
                    for i in range(n))
    den = elem_sym_all(al)[k] * math.fsum(a[i] * x[i] ** 2 for i in range(n))
    return num / den


def _chains(vals: list) -> tuple:
    """(sigma, lower, upper) of an ascending positive list, as lists.

    sigma is the full row sigma_0..sigma_n; lower and upper are both weight
    chains for k = 0..n.  sigma(a | max) is the state of sigma's own
    recurrence just before its last entry, and sigma(a | min) has a pass of
    its own.  Raises ValueError unless every sigma_k lies in (0, F/(2n^2)),
    F the largest float: the exponent's sums add n terms of size up to
    n * sigma_k, so this leaves none of them room to overflow.
    """
    n = len(vals)
    less_max = elem_sym_all(vals[:-1])
    sig = less_max + [0]
    x = vals[-1]
    for j in range(n, 0, -1):
        sig[j] = sig[j] + x * sig[j - 1]
    top = _FLOAT_MAX / (2 * n * n)
    if not all(0.0 < s < top for s in sig):
        raise ValueError("sigma row of the vector leaves the float range")
    less_min = elem_sym_all(vals[1:])
    lo = vals[0]
    hi = x
    lower = [0.0]
    upper = [0.0]
    for k in range(1, n):
        lower.append(lo * less_min[k - 1] / sig[k])
        upper.append(hi * less_max[k - 1] / sig[k])
    lower.append(1.0)
    upper.append(1.0)
    return sig, lower, upper


def weight_bounds(a: Sequence, k: int) -> tuple:
    """(lower, upper) extremes of the k-th weight over all directions.

    k = 0 and k = n are structural: (0, 0) and (1, 1) exactly.
    """
    vals = _ascending_positive(a)
    if not (0 <= k <= len(vals)):
        raise ValueError("need 0 <= k <= n")
    _sig, lower, upper = _chains(vals)
    return (lower[k], upper[k])


@dataclass(frozen=True, eq=False)
class WeightProfile:
    """Extremal weight chains, the theta-selected chain, and the exponent.

    lower/upper/selected have length n+1 (index k = 0..n).  The exponent m
    is present only when the input vector lies on the phase level set.
    sigma is the row sigma_0..sigma_n of the sorted vector the chains were
    built from, as elem_sym_all gives it (Python floats after sigma_0 = 1).
    """
    lower: np.ndarray
    upper: np.ndarray
    selected: np.ndarray
    m: Optional[float]
    sigma: tuple


def weight_profile(spec: PhaseSpec, a: Sequence) -> WeightProfile:
    """Both weight chains plus the c_k-sign selection for this phase.

    The input is sorted internally; selected_k is upper_k where
    c_k(theta) > 0 and lower_k otherwise (the choice is value-irrelevant
    where c_k = 0).  The phase must lie in ray_degree's range (the positive
    critical angle or above it); a subcritical one raises ValueError.
    """
    vals = _ascending_positive(a, spec.n)
    ray_degree(spec)
    sig, lower, upper = _chains(vals)
    c = phase_coeffs(spec)
    selected = _select(c, lower, upper)
    m = None
    if abs(phase(vals) - spec.theta) <= LEVEL_TOL:
        m = _exponent(c, sig, selected)
    return WeightProfile(lower=np.array(lower), upper=np.array(upper),
                         selected=np.array(selected), m=m, sigma=tuple(sig))


def _select(c: tuple, lower: list, upper: list) -> list:
    return [u if ck > 0 else lo for ck, lo, u in zip(c, lower, upper)]


def _exponent(c: tuple, sig: list, selected: list) -> float:
    # sum_k k c_k sigma_k / sum_k selected_k c_k sigma_k over k = 1..n
    ks = range(1, len(sig))
    num = math.fsum([k * c[k] * sig[k] for k in ks])
    den = math.fsum([selected[k] * c[k] * sig[k] for k in ks])
    return num / den


def decay_exponent(spec: PhaseSpec, a: Sequence,
                   tol: float = LEVEL_TOL) -> float:
    """Decay exponent of a level-set point a; lies in (0, n].

    Requires theta in ray_degree's range (the positive critical angle or
    above it; every PhaseSpec lies below n*pi/2) and |H(a) - theta| <= tol.
    """
    ray_degree(spec)
    vals = _ascending_positive(a, spec.n)
    if abs(phase(vals) - spec.theta) > tol:
        raise ValueError("a not on the phase level set")
    sig, lower, upper = _chains(vals)
    c = phase_coeffs(spec)
    return _exponent(c, sig, _select(c, lower, upper))


@dataclass(frozen=True)
class Admissibility:
    """Classification of eigenvalue data against a phase target.

    klass is "admissible" (definite sign, critical or supercritical phase,
    on the level set, exponent > 2), "slow_decay" (same but exponent <= 2),
    or "outside".  near_boundary flags an exponent within 1e-12 of the
    strict threshold 2.
    """
    klass: str
    m: Optional[float]
    near_boundary: bool = False


def classify(spec: PhaseSpec, lam: Sequence,
             tol: float = LEVEL_TOL) -> Admissibility:
    """Classify eigenvalue data lam (any order, either sign orientation).

    All-negative data is handled through the sign reflection: negating the
    unknown flips both the eigenvalues and the phase target, so lam < 0 is
    classified via the exponent of (-theta, -lam).  A subcritical phase
    target (after the reflection) is "outside": the construction, and
    every later stage, covers only the critical and supercritical range.
    """
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size != spec.n:
        raise ValueError("vector length does not match the phase dimension")
    if np.all(arr > 0):
        work_spec, work = spec, arr
    elif np.all(arr < 0):
        work_spec, work = PhaseSpec(spec.n, -spec.theta), -arr
    else:
        return Admissibility(klass="outside", m=None)
    # the phase range the ray polynomial supports (phasepoly.ray_degree):
    # the positive critical angle and the supercritical band above it
    if not (work_spec.theta > 0.0
            and work_spec.classification != "subcritical"):
        return Admissibility(klass="outside", m=None)
    if abs(phase(work) - work_spec.theta) > tol:
        return Admissibility(klass="outside", m=None)
    m = decay_exponent(work_spec, work, tol)
    klass = "admissible" if m > 2.0 else "slow_decay"
    return Admissibility(klass=klass, m=m, near_boundary=abs(m - 2.0) <= 1e-12)


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


def epsilon_family(eps: float) -> np.ndarray:
    """The five-point level family tan(pi/3 + k*eps), k = -2..2.

    Defined for 0 <= eps <= pi/12; the phase is identically 5*pi/3 (the
    arctans telescope).  At the endpoint the largest entry is the tangent
    of an angle one float rounding below pi/2, which is huge but finite
    and positive.
    """
    if not (0.0 <= eps <= math.pi / 12):
        raise ValueError("eps must lie in [0, pi/12]")
    base = math.pi / 3
    return np.array([math.tan(base + k * eps) for k in (-2, -1, 0, 1, 2)])


def iso_point(spec: PhaseSpec) -> np.ndarray:
    """The isotropic level-set point tan(theta/n) * ones(n)."""
    if not (0.0 < spec.theta < spec.n * math.pi / 2):
        raise ValueError("phase out of supported range")
    return np.full(spec.n, math.tan(spec.theta / spec.n))
