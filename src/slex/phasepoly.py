"""Phase function, alternating phase polynomials, level coefficients.

The phase of a real vector lam is H(lam) = sum_i arctan(lam_i), the argument
of prod_i (1 + i*lam_i).  Expanding that product gives the alternating
polynomials

    X(lam) = 1 - sigma_2 + sigma_4 - ...      (real part)
    Y(lam) = sigma_1 - sigma_3 + sigma_5 - ...  (imaginary part)

and their degree-weighted companions Xw = -2 sigma_2 + 4 sigma_4 - ... and
Yw = sigma_1 - 3 sigma_3 + 5 sigma_5 - ..., which are the t-derivatives of
X(t*lam), Y(t*lam) at t = 1.

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

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .symfun import clear_denominators, elem_sym_all

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


def ray_wronskian(lam: Sequence, mode: str = "product"):
    """X*Yw - Y*Xw, the Wronskian of (X(t*lam), Y(t*lam)) at t = 1.

    mode="product" multiplies the alternating parts directly;
    mode="closed_form" evaluates the equivalent all-positive expansion
    sum_{p=0}^{n-1} T[p+1][p], T = symfun.gen_sym_table(lam).  The two
    agree exactly in rational arithmetic, and the closed form makes
    positivity on the positive cone manifest.  For the all-ones vector the
    value is n * 2^(n-1).

    The closed form runs gen_sym_table's recurrence on the band
    k - j in {0, 1} alone.  The update of T[k][k] reads T[k-1][k-1], and
    that of T[k][k-1] reads T[k-1][k-1] and T[k-1][k-2]: the band never
    reads outside itself.  So every T[p+1][p] sees the same operations in
    the same order as in the full table, and comes out as the same int,
    Fraction or float bits, in O(n^2) work instead of O(n^3).

    Exact input that symfun.clear_denominators takes (lam_i = p_i / D)
    finishes on the integer scale: both modes run on the numerators p_i,
    with every term put on D**(2n) (product) or D**(2n-1) (closed form),
    and build one Fraction at the end.  Fraction is canonical, so value
    and type are those of the plain Fraction route.  Float and other input
    run the same code with D = 1 and no final Fraction.
    """
    if mode not in ("product", "closed_form"):
        raise ValueError("mode must be 'product' or 'closed_form'")
    cleared = clear_denominators(lam)
    nums, d = (lam, 1) if cleared is None else cleared
    n = len(lam)
    up = [1]  # D**0 .. D**(2n)
    for _ in range(2 * n):
        up.append(up[-1] * d)
    if mode == "product":
        # sigma_k of the numerators carries D**k: times D**(n-k) puts X, Y,
        # Xw and Yw on D**n
        sig = [v * up[n - k] for k, v in enumerate(elem_sym_all(nums))]
        x, y = _parts(sig)
        xw, yw = _weighted_parts(sig)
        total = x * yw - y * xw
        scale = up[2 * n]
    else:
        # diag[k] = T[k][k] and sub[k] = T[k][k-1], updated for k = n .. 1
        # as gen_sym_table updates them
        diag = [1] + [0] * n
        sub = [0] * (n + 1)
        for x in nums:
            x2 = x * x
            for k in range(n, 1, -1):
                diag[k] = diag[k] + x2 * diag[k - 1]
                sub[k] = sub[k] + x * diag[k - 1] + x2 * sub[k - 1]
            diag[1] = diag[1] + x2 * diag[0]
            sub[1] = sub[1] + x * diag[0]
        # T[p+1][p] carries D**(2p+1): times D**(2(n-1-p)) puts the sum on
        # D**(2n-1)
        total = 0
        for p in range(n):
            total = total + sub[p + 1] * up[2 * (n - 1 - p)]
        scale = up[2 * n - 1]
    return total if cleared is None else Fraction(total, scale)
