"""Reference formulas the tests compare slex against.

No command reaches these.  Each is the direct formula for a quantity
that slex either computes by another route or does not need: the Hessian
of a candidate and its sigma values, the candidate's radial value and
excess integral, the direction weights and their extremes, the ray
polynomial, its roots and the level values, the slope-field pair, its
shift to 1 in exact arithmetic and g', the cut-off recurrence of the
rank-one sigma formula, the per-entry draw of verify's rational vectors
and the Fraction route to their integer scale, the numpy route by which
the weights layer once read a vector, the criticality class of a phase
angle, and the valid-input sweep's command lines (sweep_argv).  profile
is the one way a test takes the analysis of a problem: the WeightProfile
that weights.classify builds, as the solve command does; excess is the
one way it reads the first integral's profile, radial.invert's excess,
at radii of any shape.  iso_first_integral is the exact profile of an isotropic problem, in
mpmath: the excess, mu and log C with no root, residue or ODE solver.
The candidate matrix is diagonal, diag(a): a general symmetric A enters
slex through its eigenvalues.
"""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial import Polynomial

from slex import radial, subsol, symfun, weights


def profile(spec, a):
    """weights.classify(spec, a).profile, the analysis of the problem
    (spec, a) that radial.first_integral takes; the problem must be in
    range."""
    prof = weights.classify(spec, a).profile
    assert prof is not None, (spec, a)
    return prof


def excess(pf, r):
    """psi(r) - 1 of the problem pf at every radius of r (all >= 1), same
    shape: the excess of radial.invert on the one radius set r."""
    rs = np.asarray(r, dtype=float)
    return radial.invert(pf, rs.ravel())[0].excess.reshape(rs.shape)


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
    profile's vector as an array, which weights.classify checked.
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


def elem_sym_excl_row(a, excl):
    """sigma_0 .. sigma_{n-len(excl)} of a with the (1-based) indices in
    excl removed: elem_sym_all of the kept entries, in their order.  The
    reference for symfun.elem_sym_excl_all, which removes one index, and
    for the pair rows sigma(p | i, n) that cli._int_rows divides out of
    sigma(p | i)."""
    return symfun.elem_sym_all([x for pos, x in enumerate(a, 1)
                                if pos not in excl])


def elem_sym_excl(a, k, excl=()):
    """sigma_k of a with the (1-based) indices in excl removed: one entry of
    elem_sym_excl_row, and 0 for k < 0 and k > n - len(excl)."""
    row = elem_sym_excl_row(a, excl)
    return row[k] if 0 <= k < len(row) else 0


def rational_vector(rng, n):
    """n int [p, q] pairs, 1 <= p <= 24 and 1 <= q <= 8, from two scalar
    rng.integers calls per entry: the draw that cli._rational_vectors
    makes in one broadcast call."""
    return [[int(rng.integers(1, 25)), int(rng.integers(1, 9))]
            for _ in range(n)]


def clear_denominators(a):
    """(numerators, D) with a_i == numerators[i] / D for an exact vector a
    that leads with a Fraction (every entry an int or a Fraction), else
    None.  D is the lcm of the denominators: the Fraction route to the
    integer vector p = D*a that cli._int_rows forms from int pairs."""
    if len(a) == 0 or type(a[0]) is not Fraction:
        return None
    d = 1
    for x in a:
        t = type(x)
        if t is Fraction:
            d = math.lcm(d, x.denominator)
        elif t is not int:
            return None
    return [x.numerator * (d // x.denominator) for x in a], d


def rank_one_rows(p):
    """(sig, excl) as symfun.sigma_rank_one reads them for the vector p:
    sig = elem_sym_all(p) and excl[i] = elem_sym_excl_all(p, i+1)."""
    return (symfun.elem_sym_all(p),
            [symfun.elem_sym_excl_all(p, i) for i in range(1, len(p) + 1)])


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


def slope_pair(prof):
    """(num, den): the ascending coefficient arrays, in nu, of the slope
    field g = -den/num of the problem prof, from its sigma row and
    selected chain: den_k = c_k sigma_k, k = 0..N, and num_(k-1) =
    s_k c_k sigma_k, k = 1..N."""
    c, sig, sel = prof.spec.coeffs, prof.sigma, prof.selected
    deg = prof.spec.ray_degree
    return (np.array([sel[k] * c[k] * sig[k] for k in range(1, deg + 1)]),
            np.array([c[k] * sig[k] for k in range(deg + 1)]))


def excess_pair(prof):
    """(D, N) as numpy Polynomials in the excess x = nu - 1, by numpy's
    composition with 1 + x: den(1 + x) less its constant term over x, and
    num(1 + x).  g(1 + x) = -x D(x)/N(x)."""
    num, den = slope_pair(prof)
    shift = Polynomial([1.0, 1.0])
    return Polynomial(Polynomial(den)(shift).coef[1:]), Polynomial(num)(shift)


def shifted_pair(prof):
    """(D, N, E) of the problem prof exactly, as lists of Fractions,
    ascending in x = nu - 1: the float pair of slope_pair shifted to 1 by
    the binomial expansion p(1 + x) = sum_j x^j sum_{i >= j} C(i, j) p_i,
    den's constant term dropped, and E = (m N - D)/x less its constant
    term, with m the profile's float.  radial.first_integral holds the
    float of each coefficient."""
    def shift(coeffs):
        p = [Fraction(c) for c in coeffs.tolist()]
        return [sum(math.comb(i, j) * p[i] for i in range(j, len(p)))
                for j in range(len(p))]

    num, den = slope_pair(prof)
    d, n, m = shift(den)[1:], shift(num), Fraction(prof.m)
    return d, n, [m * a - b for a, b in zip(n[1:], d[1:])]


def slope_deriv(pf, x):
    """d/dx of g(1 + x) = -x D(x)/N(x): -m at x = 0, tending to
    -1/selected_N."""
    d, n = excess_pair(pf.prof)
    w, dw = n(x), n.deriv()(x)
    z, dz = x * d(x), d(x) + x * d.deriv()(x)
    return float(-(dz * w - z * dw) / (w * w))


def ellipsoid_radius(a, x):
    """r_A(x) = sqrt(x^T diag(a) x)."""
    xv = np.asarray(x, dtype=float)
    return math.sqrt(float(np.dot(a, xv * xv)))


def profile_at(pf, r):
    """(psi, psi') at radius r >= 1 of the problem pf, from the implicit
    route: psi' = g(psi)/r, with g(1 + x) = -x D(x)/N(x) from
    excess_pair."""
    x = float(excess(pf, r))
    d, n = excess_pair(pf.prof)
    return 1.0 + x, -x * d(x) / n(x) / r


def excess_integral(pf, r_lo, r_hi):
    """int_{r_lo}^{r_hi} tau (psi(tau) - 1) dtau, 1 <= r_lo <= r_hi, by
    composite 16-point Gauss-Legendre in log tau on excess: the panel
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
                                     tau * tau * excess(pf, tau)))
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
    a = np.array(pf.prof.a)
    r = ellipsoid_radius(a, xv)
    nu, dpsi = profile_at(pf, r)
    q = a * xv
    return nu * np.diag(a) + (dpsi / r) * np.outer(q, q)


def hessian_sigma(pf, x, k):
    """sigma_k of the eigenvalues of D2Phi(x), by symfun.sigma_rank_one with
    p = psi a, q = a o x and s = psi'/r."""
    xv = np.asarray(x, dtype=float)
    a = np.array(pf.prof.a)
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


# the largest deficit pi/2 - arctan(a_i) of a sweep entry: every entry
# stays positive
CAP = 0.999 * math.pi / 2
# the largest gamma solve admits: its grid radius GRID_RADIUS * gamma
# squared stays finite
GAMMA_TOP = math.sqrt(sys.float_info.max) / subsol.GRID_RADIUS


def sweep_argv(unit, beta_max=1e4, rmax_box=None) -> list:
    """A `solve` command line at --grid 4 for one valid problem, from the
    uniform draws in [0, 1] that unit() returns, taken in a fixed order.

    n is log-uniform in 3..150; theta the critical angle (n-2)*pi/2, or
    above it by up to 0.9*pi; beta log-uniform in [1, beta_max]; gamma 1 on
    a third of the draws, where the grid's shells reach psi near beta,
    GAMMA_TOP * 10**(-3u) on a third, the top of the flag range, and
    log-uniform in [1, 1e100] on the rest; --rmax log-uniform in
    rmax_box = (lo, hi), or left at its default without one.  The vector
    is the iso point, or n - 1 drawn positive entries completed to the
    level set.  The entries share the deficit
    n*pi/2 - theta = sum_i (pi/2 - arctan(a_i)): each drawn entry takes
    between 0.05 and 1.95 times an even share of what is left, clipped so
    that it and every entry after it stay under CAP, and the last entry is
    tan of the phase left.  Such a problem is admissible or slow_decay, or
    past the float range invalid input.
    """
    n = int(3 * 50 ** unit())
    critical = (n - 2) * math.pi / 2
    theta = critical if unit() < 0.5 else critical + 0.9 * math.pi * unit()
    beta, pick = beta_max ** unit(), 3 * unit()
    gamma = (1.0 if pick < 1 else GAMMA_TOP * 10 ** (-3 * unit()) if pick < 2
             else 1e100 ** unit())
    flags = ["--n", str(n), "--theta",
             "critical" if theta == critical else repr(theta),
             "--beta", repr(beta), "--gamma", repr(gamma)]
    if rmax_box is not None:
        lo, hi = rmax_box
        flags += ["--rmax", repr(lo * (hi / lo) ** unit())]
    flags += ["--grid", "4"]
    if unit() < 0.5:
        return ["solve", "--family", "iso", *flags]
    rest = n * math.pi / 2 - theta
    prefix = []
    for k in range(n, 1, -1):
        # k entries share rest, each under CAP
        share = rest / k * (0.05 + 1.9 * unit())
        deficit = min(CAP, max(rest - (k - 1) * CAP, share))
        prefix.append(1.0 / math.tan(deficit))
        rest -= deficit
    last = math.tan(theta - math.fsum(map(math.atan, prefix)))
    return ["solve", "--a", ",".join(map(repr, prefix + [last])), *flags]
