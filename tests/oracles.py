"""Reference formulas the tests compare slex against.

No command reaches these.  Each is the direct formula for a quantity that
slex either computes by another route or does not need: the Hessian of a
candidate and its sigma values, the candidate's radial value and excess
integral, the direction weights and their extremes, the ray polynomial,
its roots and the level values, g', the cut-off recurrence of the
rank-one sigma formula, the numpy route by which the weights layer once
read a vector, and the criticality class of a phase angle.  profile is
the one way a test takes the analysis of a problem: the WeightProfile
that weights.classify builds, as the solve command does.
iso_first_integral is the exact profile of an isotropic problem, in
mpmath: the excess, mu and log C with no root, residue or ODE solver.
The candidate matrix is diagonal, diag(a): a general symmetric A enters
slex through its eigenvalues.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from slex import symfun, weights


def profile(spec, a):
    """weights.classify(spec, a).profile, the analysis of the problem
    (spec, a) that radial.first_integral takes; the problem must be in
    range."""
    prof = weights.classify(spec, a).profile
    assert prof is not None, (spec, a)
    return prof


# pi/2 to 4e-27 in two parts (fdlibm's pio2_1, pio2_1t): the first has 33
# bits, so its integer multiples are exact
HALF_PI_HI = 1.57079632673412561417e+00
HALF_PI_LO = 6.07710050650619224932e-11
# ray_roots' Newton iteration stops on a step of at most this times |x|
ROOT_RTOL = 4 * np.finfo(float).eps


def ray_roots(spec, arr) -> np.ndarray:
    """The N roots of the ray polynomial of a positive float array arr,
    ascending: real and simple by construction.

    The level combination at t*a is |prod_j (1 + i t a_j)| sin(H(t*a) -
    theta) with H(t*a) = sum_j arctan(t a_j) strictly increasing, so root
    k solves H(t*a) = phi_k = theta - k*pi, k = 0..N-1.  Where |phi_k| >
    n*pi/4 H saturates, and x = -1/t is solved for from sum_j arctan(x/a_j)
    = phi_k -+ n*pi/2 (pi/2 in two parts keeps that small target
    accurate).  The root of
    sum_j arctan(x b_j) = psi lies between tan(psi/n)/max b and
    tan(psi/n)/min b; Newton's method runs from the end nearer 0, where the
    sum's convexity makes it monotone, bisects when a step would leave the
    bracket, and stops after a step of at most 4 eps |x| or one landing on
    an end of the bracket.  arr is not checked: tests hand in a
    profile's array, which weights.classify checked.
    """
    n = spec.n
    # phi_k = theta0 - j*pi/2; a critical angle counts as exactly
    # (n-2)*pi/2, the angle of its snapped coefficients
    theta0, j0 = (0.0, n - 2) if spec.is_critical else (spec.theta, 0)
    j = 2.0 * np.arange(spec.ray_degree - 1, -1, -1) - j0
    phi = theta0 - j * (math.pi / 2)
    shift = np.where(np.abs(phi) > n * math.pi / 4, n * np.sign(phi), 0.0)
    psi = (theta0 - (j + shift) * HALF_PI_HI) - (j + shift) * HALF_PI_LO
    b = np.where(shift[:, None] != 0.0, 1.0 / arr, arr)
    scale = np.tan(psi / n)
    x = scale / b.max(axis=1)
    lo, hi = np.sort([x, scale / b.min(axis=1)], axis=0)
    active = np.ones(psi.shape, dtype=bool)
    for _ in range(100):
        xb = x[:, None] * b
        f = np.arctan(xb).sum(axis=1) - psi
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f >= 0.0, x, hi)
        newton = x - f / (b / (1.0 + xb * xb)).sum(axis=1)
        landed = (newton == lo) | (newton == hi)
        step = np.where(landed | ((lo < newton) & (newton < hi)), newton,
                        0.5 * (lo + hi))
        done = landed | (np.abs(step - x) <= ROOT_RTOL * np.abs(step))
        x = np.where(active, step, x)
        active &= ~done
        if not active.any():
            break
    else:
        raise RuntimeError("ray root iteration did not converge")
    return np.divide(-1.0, x, out=x, where=shift != 0.0)


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


def excess_integral(pf, r_lo, r_hi):
    """int_{r_lo}^{r_hi} tau (psi(tau) - 1) dtau, 1 <= r_lo <= r_hi, by
    composite 16-point Gauss-Legendre in log tau on pf.excess_at: the panel
    count doubles from 8 until two estimates agree within 1e-13 absolute
    or 1e-11 relative, and the finer one is returned."""
    if r_lo == r_hi or pf.beta == 1.0:
        return 0.0
    nodes, weights_ = np.polynomial.legendre.leggauss(16)
    s_lo = math.log(r_lo)
    width = math.log(r_hi) - s_lo
    prev = None
    panels = 8
    while panels <= 4096:
        h = width / panels
        tau = np.exp(((s_lo + h * np.arange(panels))[:, None]
                      + (0.5 * h) * (1.0 + nodes)).ravel())
        est = 0.5 * h * float(np.dot(np.tile(weights_, panels),
                                     tau * tau * pf.excess_at(tau)))
        if prev is not None and abs(est - prev) <= max(1e-13,
                                                       1e-11 * abs(est)):
            return est
        prev = est
        panels *= 2
    raise AssertionError("excess quadrature did not converge")


def radial_value(pf, alpha, gamma, r):
    """phi(r) = alpha + int_gamma^r tau psi(tau) dtau, for r >= gamma: the
    quadratic part of psi = 1 + excess plus the excess integral."""
    r = float(r)
    quadratic = alpha + 0.5 * (r * r - gamma ** 2)
    return quadratic + excess_integral(pf, gamma, r)


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


def iso_first_integral(n, t, beta, dps=40):
    """(excess, mu, log_amplitude) of the isotropic problem a = t*(1..1)
    at beta, exactly, in mpmath at dps digits.

    At an iso point the Hessian of the candidate has the eigenvalues
    t psi (n - 1 times) and t (psi + r psi'), so sum arctan lambda_i =
    theta is linear in r psi' and integrates exactly: r^n Im[e^(-i theta)
    (1 + i t psi)^n] is constant along the profile.  theta is taken as
    n arctan(t) for the float t the program holds, so the oracle is exact
    for the input it solved.  With psi = 1 + delta the constant is
    Q(delta) = sum_{k>=1} c_k delta^k,

        c_k = Im[e^(-i theta) C(n, k) (1 + i t)^(n-k) (i t)^k],

    with c_0 = 0 exactly, and r^n Q(delta(r)) = Q(beta - 1).  Every c_k
    is >= 0 at a critical or supercritical iso point, so log Q(e^v) is
    convex and increasing in v.

    excess(r, start=None) solves log Q(e^v) = log Q(beta - 1) - n log r
    for v = log delta by Newton's method, from log(start) when start is a
    positive float (the numeric route's value) and otherwise from
    min(log(beta - 1), log C - n log r), where the residual is >= 0.
    mu(R) is int_R^inf tau delta(tau) dtau
    = (1/n) int_0^delta(R) tau(x)^2 x Q'(x)/Q(x) dx with tau(x)^n =
    Q(beta - 1)/Q(x), by mpmath.quad in log x: no cutoff.  log_amplitude is
    log C = log Q(beta - 1) - log c_1, C the limit of delta r^n.  All
    three return mpf values; beta must exceed 1.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    t = ctx.mpf(t)
    rot = ctx.exp(-1j * n * ctx.atan(t))
    c = [ctx.zero] + [ctx.im(rot * ctx.binomial(n, k) * (1 + 1j * t)
                             ** (n - k) * (1j * t) ** k)
                      for k in range(1, n + 1)]
    desc = c[::-1]
    desc_prime = [k * c[k] for k in range(n, 0, -1)]
    top = ctx.mpf(beta) - 1
    log_q_top = ctx.log(ctx.polyval(desc, top))
    log_amplitude = log_q_top - ctx.log(c[1])
    tol = ctx.mpf(10) ** (8 - dps)

    def excess(r, start=None):
        log_r = ctx.log(r)
        if start is not None and start > 0.0:
            v = ctx.log(start)
        else:
            v = min(ctx.log(top), log_amplitude - n * log_r)
        for _ in range(200):
            x = ctx.exp(v)
            q = ctx.polyval(desc, x)
            step = ((ctx.log(q) - log_q_top + n * log_r)
                    / (x * ctx.polyval(desc_prime, x) / q))
            v -= step
            if abs(step) <= tol:
                return ctx.exp(v)
        raise AssertionError("iso first integral: Newton did not converge")

    def mu(R):
        # in v = log x the integrand decays like e^((1 - 2/n) v) as v goes
        # to -inf, where tanh-sinh converges fast
        def integrand(v):
            x = ctx.exp(v)
            q = ctx.polyval(desc, x)
            return (ctx.exp(2 * (log_q_top - ctx.log(q)) / n)
                    * x * x * ctx.polyval(desc_prime, x) / (n * q))
        v_top = ctx.log(excess(R))
        return ctx.quad(integrand, [-ctx.inf, v_top - 40, v_top - 8, v_top])

    return excess, mu, log_amplitude
