"""Phase function, alternating phase polynomials, and certified ray roots.

The phase of a real vector lam is H(lam) = sum_i arctan(lam_i), the argument
of prod_i (1 + i*lam_i).  Expanding that product gives the alternating
polynomials

    X(lam) = 1 - sigma_2 + sigma_4 - ...      (real part)
    Y(lam) = sigma_1 - sigma_3 + sigma_5 - ...  (imaginary part)

and their degree-weighted companions Xw = -2 sigma_2 + 4 sigma_4 - ... and
Yw = sigma_1 - 3 sigma_3 + 5 sigma_5 - ..., which are the t-derivatives of
X(t*lam), Y(t*lam) at t = 1.

For a phase target theta the level combination is

    level_value = cos(theta)*Y - sin(theta)*X = sum_k c_k(theta) sigma_k,

with c_{2j} = (-1)^(j+1) sin(theta) and c_{2j+1} = (-1)^j cos(theta).  It
vanishes exactly on the level set {H = theta}.  Restricted to a ray t*a with
a positive, the combination is a polynomial in t of degree N: N = n-1 at the
critical angle (n-2)*pi/2 (where the leading coefficient vanishes
structurally) and N = n for supercritical angles below n*pi/2.  Its roots
are certified real and simple by two independent mechanisms: companion
matrix eigenvalues polished by Newton iteration, and sign alternation of the
polynomial between the polished roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .symfun import elem_sym_all, gen_sym_table

# |H(a) - theta| at or below this counts as membership in the level set.
LEVEL_TOL = 1e-10

# criticality is decided from the angle itself, never from coefficients
_CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class PhaseSpec:
    """Dimension and phase angle, with criticality classification.

    Requires n >= 3 and |theta| < n*pi/2.  The angle is critical when
    |theta| equals (n-2)*pi/2 (within 1e-12), supercritical beyond that.
    """
    n: int
    theta: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not (-self.n * math.pi / 2 < self.theta < self.n * math.pi / 2):
            raise ValueError("theta must lie strictly inside (-n*pi/2, n*pi/2)")

    @property
    def critical_angle(self) -> float:
        return (self.n - 2) * math.pi / 2

    @property
    def is_critical(self) -> bool:
        return abs(abs(self.theta) - self.critical_angle) <= _CRITICAL_TOL

    @property
    def is_supercritical(self) -> bool:
        return abs(self.theta) > self.critical_angle and not self.is_critical

    @property
    def classification(self) -> str:
        if self.is_critical:
            return "critical"
        if self.is_supercritical:
            return "supercritical"
        return "subcritical"

    @cached_property
    def ray_degree(self) -> int:
        """The degree N of the ray polynomial; see ray_degree."""
        if self.theta > 0 and self.is_critical:
            return self.n - 1
        if self.theta > self.critical_angle:
            return self.n
        raise ValueError("phase out of supported range")

    @cached_property
    def coeffs(self) -> tuple:
        """The level coefficients c_0..c_n; see phase_coeffs."""
        s = math.sin(self.theta)
        c = math.cos(self.theta)
        if self.is_critical:
            if self.n % 2 == 0:
                s, c = 0.0, math.copysign(1.0, c)
            else:
                s, c = math.copysign(1.0, s), 0.0
        out = []
        for k in range(self.n + 1):
            j, odd = divmod(k, 2)
            out.append(((-1) ** j * c if odd else (-1) ** (j + 1) * s) + 0.0)
        return tuple(out)


def phase(lam: Sequence) -> float:
    """H(lam) = sum of arctan(lam_i), by compensated summation."""
    return math.fsum(math.atan(float(v)) for v in lam)


def alternating_parts(lam: Sequence):
    """(X, Y): real and imaginary parts of prod_i (1 + i*lam_i).

    Exact for int/Fraction entries.
    """
    return _parts(elem_sym_all(lam))


def _parts(sig: list):
    # (X, Y) from the sigma row sigma_0..sigma_n
    n = len(sig) - 1
    x = 0
    y = 0
    for k in range(n + 1):
        j, odd = divmod(k, 2)
        if odd:
            y = y + (-1) ** j * sig[k]
        else:
            x = x + (-1) ** j * sig[k]
    return x, y


def alternating_parts_weighted(lam: Sequence):
    """(Xw, Yw): degree-weighted parts, the ray derivatives of (X, Y) at t=1."""
    return _weighted_parts(elem_sym_all(lam))


def _weighted_parts(sig: list):
    # (Xw, Yw) from the sigma row sigma_0..sigma_n
    n = len(sig) - 1
    xw = 0
    yw = 0
    for k in range(1, n + 1):
        j, odd = divmod(k, 2)
        if odd:
            yw = yw + (-1) ** j * k * sig[k]
        else:
            xw = xw + (-1) ** j * k * sig[k]
    return xw, yw


def phase_coeffs(spec: PhaseSpec) -> tuple:
    """Coefficients c_0..c_n with sum_k c_k sigma_k = cos(theta)Y - sin(theta)X.

    c_{2j} = (-1)^(j+1) sin(theta), c_{2j+1} = (-1)^j cos(theta).  At a
    critical angle the vanishing trig factor is snapped to exactly 0 (and
    its partner to +-1), keyed off the criticality flag rather than a float
    comparison, so the leading coefficient of the ray polynomial vanishes
    exactly there.  Computed once per PhaseSpec (PhaseSpec.coeffs).
    """
    return spec.coeffs


def level_value(spec: PhaseSpec, lam: Sequence) -> float:
    """sum_k c_k(theta) sigma_k(lam); zero exactly when H(lam) = theta."""
    sig = elem_sym_all(lam)
    c = phase_coeffs(spec)
    return math.fsum(float(c[k] * sig[k]) for k in range(spec.n + 1))


def level_value_weighted(spec: PhaseSpec, lam: Sequence) -> float:
    """sum_k k c_k(theta) sigma_k(lam), the ray derivative of level_value."""
    sig = elem_sym_all(lam)
    c = phase_coeffs(spec)
    return math.fsum(float(k * c[k] * sig[k]) for k in range(1, spec.n + 1))


def ray_wronskian(lam: Sequence, mode: str = "product"):
    """X*Yw - Y*Xw, the Wronskian of (X(t*lam), Y(t*lam)) at t = 1.

    mode="product" multiplies the alternating parts directly;
    mode="closed_form" evaluates the equivalent all-positive expansion
    sum_{p=0}^{n-1} gen_sym(lam, p+1, p).  The two agree exactly in
    rational arithmetic, and the closed form makes positivity on the
    positive cone manifest.  For the all-ones vector the value is
    n * 2^(n-1).
    """
    if mode == "product":
        sig = elem_sym_all(lam)
        x, y = _parts(sig)
        xw, yw = _weighted_parts(sig)
        return x * yw - y * xw
    if mode == "closed_form":
        table = gen_sym_table(lam)
        total = 0
        for p in range(len(lam)):
            total = total + table[p + 1][p]
        return total
    raise ValueError("mode must be 'product' or 'closed_form'")


def ray_degree(spec: PhaseSpec) -> int:
    """Degree N of t -> level_value(spec, t*a) for positive a.

    N = n-1 at the (positive) critical angle, N = n in the supercritical
    band up to n*pi/2.  Angles below critical (or negative) are rejected.
    """
    return spec.ray_degree


def _check_positive(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(arr > 0):
        raise ValueError("vector must have all entries positive")
    return arr


def ray_poly(spec: PhaseSpec, a: Sequence) -> np.ndarray:
    """Ascending coefficients of t -> level_value(spec, t*a), degree N.

    Coefficient k is c_k(theta) * sigma_k(a); in the critical case the
    structurally zero leading coefficient is trimmed so the returned array
    always has length N + 1.
    """
    arr = _check_positive(a)
    deg = ray_degree(spec)
    sig = elem_sym_all(arr.tolist())
    c = phase_coeffs(spec)
    coeffs = np.array([c[k] * sig[k] for k in range(spec.n + 1)], dtype=float)
    return coeffs[:deg + 1]


@dataclass(frozen=True, eq=False)
class RayRootCertificate:
    """Certified real simple roots of the ray polynomial.

    roots are sorted ascending; degree and leading_coeff describe the
    polynomial; simplicity_margin is the smallest gap between consecutive
    roots; max_root_is_one records that the input lies on the level set and
    the largest root equals 1 within 1e-9.
    """
    roots: np.ndarray
    degree: int
    leading_coeff: float
    max_root_is_one: bool
    simplicity_margin: float


def ray_roots(spec: PhaseSpec, a: Sequence, level_tol: float = LEVEL_TOL
              ) -> RayRootCertificate:
    """All N roots of the ray polynomial, certified real and simple.

    Companion-matrix eigenvalues seed a Newton polish on the exact
    coefficients; the polished roots are then certified independently by
    checking N sign alternations of the polynomial across them.  Root
    collisions (gap at or below 1e-7 * (1 + root scale)), a miscounted
    sign pattern, or a level-set input whose largest root strays from 1 by
    more than 1e-9 all raise "root certification failed".
    """
    arr = _check_positive(a)
    coeffs = ray_poly(spec, arr)
    deg = len(coeffs) - 1
    der = npoly.polyder(coeffs)

    roots = np.sort(npoly.polyroots(coeffs).real.astype(float))
    for idx in range(deg):
        t = roots[idx]
        for _ in range(12):
            dp = npoly.polyval(t, der)
            if dp == 0.0:
                break
            step = npoly.polyval(t, coeffs) / dp
            t -= step
            if abs(step) <= 4e-16 * (1.0 + abs(t)):
                break
        roots[idx] = t
    roots = np.sort(roots)

    scale = 1.0 + float(np.max(np.abs(roots)))
    margin = float(np.min(np.diff(roots)))
    if not margin > 1e-7 * scale:
        raise ValueError("root certification failed")

    # independent certification: the polynomial must alternate in sign on a
    # grid that straddles every polished root
    pad = max(1.0, roots[-1] - roots[0])
    probes = np.concatenate(([roots[0] - pad],
                             0.5 * (roots[:-1] + roots[1:]),
                             [roots[-1] + pad]))
    vals = npoly.polyval(probes, coeffs)
    signs = np.sign(vals)
    if np.any(signs == 0) or np.any(signs[1:] * signs[:-1] >= 0):
        raise ValueError("root certification failed")

    on_level = abs(phase(arr) - spec.theta) <= level_tol
    max_root_is_one = bool(on_level and abs(roots[-1] - 1.0) <= 1e-9)
    if on_level and not max_root_is_one:
        raise ValueError("root certification failed")

    return RayRootCertificate(roots=roots, degree=deg,
                              leading_coeff=float(coeffs[-1]),
                              max_root_is_one=max_root_is_one,
                              simplicity_margin=margin)


def ray_derivative(spec: PhaseSpec, a: Sequence, t: float,
                   order: int = 0) -> float:
    """d^order/dt^order of the ray polynomial at t, for a on the level set.

    Requires |H(a) - theta| <= LEVEL_TOL, t >= 1 and 0 <= order <= N.  On
    that domain the value is positive for every order >= 1, and for
    order = 0 it is zero at t = 1 and positive beyond.
    """
    arr = _check_positive(a)
    coeffs = ray_poly(spec, arr)
    deg = len(coeffs) - 1
    if abs(phase(arr) - spec.theta) > LEVEL_TOL:
        raise ValueError("a not on the phase level set")
    if t < 1.0:
        raise ValueError("t must be at least 1")
    if not (0 <= order <= deg):
        raise ValueError("derivative order out of range")
    return float(npoly.polyval(t, npoly.polyder(coeffs, order) if order else coeffs))
