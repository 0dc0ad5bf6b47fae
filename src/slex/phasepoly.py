"""Phase function, alternating phase polynomials, level coefficients.

The phase of a real vector lam is H(lam) = sum_i arctan(lam_i), the argument
of prod_i (1 + i*lam_i).  Expanding that product gives the alternating
polynomials

    X(lam) = 1 - sigma_2 + sigma_4 - ...      (real part)
    Y(lam) = sigma_1 - sigma_3 + sigma_5 - ...  (imaginary part)

and their degree-weighted companions Xw = -2 sigma_2 + 4 sigma_4 - ... and
Yw = sigma_1 - 3 sigma_3 + 5 sigma_5 - ..., which are the t-derivatives of
X(t*lam), Y(t*lam) at t = 1.  alternating_parts returns all four from one
pass over the sigma row sigma_0 .. sigma_n that its caller holds
(symfun.elem_sym_all(lam)), so a caller with the row builds no second one;
ray_wronskian gives X*Yw - Y*Xw by its all-positive closed form, a sum
over the generalized symmetric table symfun.gen_sym_table(lam) that its
caller holds, which `verify` compares with the product of the four parts.
The module imports no other slex module and runs no symmetric-function
recurrence.

For a phase target theta the level combination is

    cos(theta)*Y - sin(theta)*X = sum_k c_k(theta) sigma_k
                                = |prod_i (1 + i*lam_i)| sin(H(lam) - theta),

with the coefficients c_k of PhaseSpec.coeffs.  It vanishes exactly on the
level set {H = theta}.  Restricted to a ray t*a with a positive, the
combination is a polynomial in t of degree N (PhaseSpec.ray_degree).  As
H(t*a) increases strictly in t, its roots are the solutions of H(t*a) =
theta - k*pi, k = 0..N-1, real and simple by construction.  So all of
them are at most 1 exactly when the polynomial shifted to 1 has
coefficients of one sign, which is how radial.first_integral certifies
them without computing any; a root finder lives with the tests, as the
reference of the acceptance criteria (tests/oracles.py).
"""

import math
from functools import cached_property
from typing import Sequence

# |H(a) - theta| at or below this counts as membership in the level set.
LEVEL_TOL = 1e-10

# criticality is decided from the angle itself, never from coefficients
_CRITICAL_TOL = 1e-12


class PhaseSpec:
    """Dimension and phase angle, with criticality classification.

    Requires n >= 3 and |theta| < n*pi/2.  The angle is critical when
    |theta| equals (n-2)*pi/2 (within 1e-12), supercritical beyond that.
    """

    def __init__(self, n: int, theta: float):
        if n < 3:
            raise ValueError("dimension must be at least 3")
        if not (-n * math.pi / 2 < theta < n * math.pi / 2):
            raise ValueError("theta must lie strictly inside (-n*pi/2, n*pi/2)")
        self.n = n
        self.theta = theta

    def __repr__(self):
        return f"PhaseSpec(n={self.n!r}, theta={self.theta!r})"

    @property
    def critical_angle(self) -> float:
        return (self.n - 2) * math.pi / 2

    @property
    def is_critical(self) -> bool:
        return abs(abs(self.theta) - self.critical_angle) <= _CRITICAL_TOL

    @cached_property
    def ray_degree(self) -> int:
        """Degree N of t -> sum_k c_k sigma_k(t*a) for positive a.

        N = n-1 at the (positive) critical angle, where the leading
        coefficient vanishes structurally, and N = n in the supercritical
        band up to n*pi/2.  Angles below critical (or negative) are
        rejected.
        """
        if self.theta > 0 and self.is_critical:
            return self.n - 1
        if self.theta > self.critical_angle:
            return self.n
        raise ValueError("phase out of supported range")

    @cached_property
    def coeffs(self) -> tuple:
        """Coefficients c_0..c_n with sum_k c_k sigma_k = cos(theta)Y -
        sin(theta)X.

        c_{2j} = (-1)^(j+1) sin(theta), c_{2j+1} = (-1)^j cos(theta).  At
        a critical angle the vanishing trig factor is snapped to exactly 0
        (and its partner to +-1), keyed off the criticality flag rather
        than a float comparison, so the leading coefficient of the ray
        polynomial vanishes exactly there.
        """
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
    return math.fsum(map(math.atan, lam))


def alternating_parts(sig: Sequence):
    """(X, Y, Xw, Yw): the real and imaginary parts of prod_i (1 + i*lam_i)
    and their degree-weighted companions, the ray derivatives at t = 1.

    Reads the row sig = sigma_0(lam) .. sigma_n(lam) its caller holds
    (symfun.elem_sym_all(lam)), in one pass: even k go to X and Xw, odd k
    to Y and Yw, and bit 2 of k gives the sign.  Negation is exact, so
    x + (-v) keeps the value, type and bits of x + (-1) * v, and -(k * v)
    has the bits of (-k) * v, as rounding is symmetric.  The k = 0 term of
    Xw is the int 0 * sigma_0 = 0.  Exact for int/Fraction entries.
    """
    x = y = xw = yw = 0
    for k, v in enumerate(sig):
        w = k * v
        if k & 2:
            v, w = -v, -w
        if k & 1:
            y = y + v
            yw = yw + w
        else:
            x = x + v
            xw = xw + w
    return x, y, xw, yw


def ray_wronskian(table: Sequence):
    """X*Yw - Y*Xw, the Wronskian of (X(t*lam), Y(t*lam)) at t = 1, by its
    all-positive expansion sum_{p=0}^{n-1} T[p+1][p].

    Reads the table T = symfun.gen_sym_table(lam) its caller holds and sums
    its sub-diagonal in order, so the value has the type and bits of those
    entries: an int, Fraction or float.  It equals the product of
    alternating_parts exactly in rational arithmetic, and makes positivity
    on the positive cone manifest.  For the all-ones vector the value is
    n * 2^(n-1).
    """
    total = 0
    for p in range(len(table) - 1):
        total = total + table[p + 1][p]
    return total
