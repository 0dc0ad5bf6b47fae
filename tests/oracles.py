"""Reference formulas the tests compare slex against.

No command reaches these.  Each is the direct formula for a quantity that
slex either computes by another route or does not need: the Hessian of a
candidate and its sigma values, the candidate's radial value, the
direction weights and their extremes, the ray polynomial and the level
values, g', the cut-off recurrence of the rank-one sigma formula, the
numpy route by which the weights layer once read a vector, and the
criticality class of a phase angle.  profile is the one way a test takes
the analysis of a problem: the WeightProfile that weights.classify
builds, as the solve command does.
The candidate matrix is diagonal, diag(a): a general symmetric A enters
slex through its eigenvalues.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from slex import radial, symfun, weights


def profile(spec, a):
    """weights.classify(spec, a).profile, the analysis of the problem
    (spec, a) that radial.partial_fractions takes; the problem must be in
    range."""
    prof = weights.classify(spec, a).profile
    assert prof is not None, (spec, a)
    return prof


def classification(spec):
    """"critical" when |theta| is the critical angle (n-2)*pi/2 within
    PhaseSpec's tolerance, "supercritical" beyond it, else "subcritical"."""
    if spec.is_critical:
        return "critical"
    if abs(spec.theta) > spec.critical_angle:
        return "supercritical"
    return "subcritical"


def elem_sym_excl(a, k, excl=()):
    """sigma_k of a with the (1-based) indices in excl removed: one entry of
    symfun.elem_sym_excl_all, and 0 for k < 0 and k > n - len(excl)."""
    row = symfun.elem_sym_excl_all(a, excl)
    return row[k] if 0 <= k < len(row) else 0


def rank_one_rows(p):
    """(sig, excl) as symfun.sigma_rank_one reads them for the vector p:
    sig = elem_sym_all(p) and excl[i] = elem_sym_excl_all(p, (i+1,))."""
    return (symfun.elem_sym_all(p),
            [symfun.elem_sym_excl_all(p, (i,)) for i in range(1, len(p) + 1)])


def sigma_rank_one_cutoff(p, q, s, k):
    """sigma_k(p) + s * sum_i sigma_{k-1}(p less i) q_i^2, each
    sigma_{k-1}(p less i) from elem_sym_all's recurrence run inline on p
    without entry i and cut off at index k-1.  Each entry it keeps sees the
    operations of the full row, in the same order, so symfun.sigma_rank_one
    on the full rows must match it bit for bit."""
    down = range(k - 1, 0, -1)
    corr = 0
    for i in range(len(p)):
        # sigma_0 .. sigma_{k-1} of p without entry i
        e = [1] + [0] * (k - 1)
        for x in (*p[:i], *p[i + 1:]):
            for j in down:
                e[j] += x * e[j - 1]
        corr = corr + e[k - 1] * q[i] * q[i]
    return symfun.elem_sym_all(p)[k] + s * corr


def ascending_positive_ndarray(a, n):
    """The entries of a as an ascending list of n positive Python floats,
    by the numpy round trip weights._ascending_positive once made: one
    np.asarray(a, dtype=float), the checks on the array's shape and on
    its list, then an in-place sort.  Its values and its ValueError
    messages are the contract the weights layer keeps; an array that is not
    1-D has the wrong length, as weights.classify says."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("vector length does not match the phase dimension")
    if arr.size == 0:
        raise ValueError("vector must have all entries positive")
    vals = arr.tolist()
    if not all(map((0.0).__lt__, vals)):
        raise ValueError("vector must have all entries positive")
    if len(vals) != n:
        raise ValueError("vector length does not match the phase dimension")
    vals.sort()
    return vals


def level_value(spec, lam):
    """sum_k c_k(theta) sigma_k(lam); zero exactly when H(lam) = theta."""
    sig = symfun.elem_sym_all(lam)
    c = spec.coeffs
    return math.fsum(float(c[k] * sig[k]) for k in range(spec.n + 1))


def level_value_weighted(spec, lam):
    """sum_k k c_k(theta) sigma_k(lam), the ray derivative of level_value."""
    sig = symfun.elem_sym_all(lam)
    c = spec.coeffs
    return math.fsum(float(k * c[k] * sig[k]) for k in range(1, spec.n + 1))


def ray_poly(spec, a):
    """Ascending coefficients c_k sigma_k(a), k = 0..N, of the ray polynomial
    t -> level_value(spec, t*a)."""
    sig = symfun.elem_sym_all(np.asarray(a, dtype=float).tolist())
    c = spec.coeffs
    return np.array([c[k] * sig[k] for k in range(spec.ray_degree + 1)])


def direction_weight(a, x, k):
    """The k-th weight of direction x,

        sum_i sigma_{k-1}(a less i) a_i^2 x_i^2 / (sigma_k(a) sum_i a_i x_i^2),

    with the pairing of a and x kept."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    al = a.tolist()
    num = math.fsum(elem_sym_excl(al, k - 1, (i + 1,)) * a[i] ** 2 * x[i] ** 2
                    for i in range(a.size))
    den = (symfun.elem_sym_all(al)[k]
           * math.fsum(a[i] * x[i] ** 2 for i in range(a.size)))
    return num / den


def weight_bounds(a, k):
    """(lower, upper) extremes of the k-th direction weight: the weights of
    the axes of the smallest and the largest entry, (1, 1) exactly at
    k = n."""
    vals = sorted(map(float, a))
    n = len(vals)
    if k == n:
        return 1.0, 1.0
    sig = symfun.elem_sym_all(vals)[k]
    return (vals[0] * elem_sym_excl(vals, k - 1, (1,)) / sig,
            vals[-1] * elem_sym_excl(vals, k - 1, (n,)) / sig)


def slope_deriv(pf, nu):
    """g'(nu) of g = -den/num: -m at nu = 1, tending to -1/selected_N."""
    w = npoly.polyval(nu, pf.num)
    z = npoly.polyval(nu, pf.den)
    dw = npoly.polyval(nu, npoly.polyder(pf.num))
    dz = npoly.polyval(nu, npoly.polyder(pf.den))
    return float(-(dz * w - z * dw) / (w * w))


def ellipsoid_radius(a, x):
    """r_A(x) = sqrt(x^T diag(a) x)."""
    xv = np.asarray(x, dtype=float)
    return math.sqrt(float(np.dot(a, xv * xv)))


def profile_at(pf, r):
    """(psi, psi') at radius r >= 1 of the problem pf, from the implicit
    route: psi' = g(psi)/r."""
    nu = 1.0 + float(pf.excess_at(r))
    return nu, pf.slope(nu) / r


def radial_value(pf, alpha, gamma, r):
    """phi(r) = alpha + int_gamma^r tau psi(tau) dtau, for r >= gamma: the
    quadratic part of psi = 1 + excess plus the excess integral."""
    r = float(r)
    quadratic = alpha + 0.5 * (r * r - gamma ** 2)
    return quadratic + radial._excess_integrals(pf, ((gamma, r),))[0]


def hessian(pf, x):
    """D2Phi(x) = psi diag(a) + (psi'/r) (a o x)(a o x)^T, outside the
    ellipsoid."""
    xv = np.asarray(x, dtype=float)
    a = pf.prof.a
    r = ellipsoid_radius(a, xv)
    nu, dpsi = profile_at(pf, r)
    q = a * xv
    return nu * np.diag(a) + (dpsi / r) * np.outer(q, q)


def hessian_sigma(pf, x, k):
    """sigma_k of the eigenvalues of D2Phi(x), by symfun.sigma_rank_one with
    p = psi a, q = a o x and s = psi'/r."""
    xv = np.asarray(x, dtype=float)
    a = pf.prof.a
    r = ellipsoid_radius(a, xv)
    nu, dpsi = profile_at(pf, r)
    sig, excl = rank_one_rows((nu * a).tolist())
    return float(symfun.sigma_rank_one(sig, excl, (a * xv).tolist(),
                                       dpsi / r, k))
