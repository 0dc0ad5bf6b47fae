"""Exact and floating-point kernels for elementary symmetric polynomials.

Conventions used throughout (and by every module built on top of this one):

    sigma_{-1}(a) == 0,   sigma_0(a) == 1,   sigma_k(a) == 0 for k > n,

where n = len(a).  The sigma kernels are generic over the scalar type:
handing in ``fractions.Fraction`` (or int) entries keeps every computation
exact, while float entries give the ordinary fast path.  They go through
the coefficient recurrence for prod_i (1 + t*a_i), never through explicit
subset enumeration, which appears only in test oracles.  The grid's float
kernel rank_one_phase_level forms no sigma row: it reads the level in
product form, Im(e^(-i theta) prod_j (1 + i p_j)), at O(n) per diagonal.

The kernels run one plain loop on every scalar type.  On ``Fraction``
input it keeps value and type: sigma_0 and T[0][0] are the int 1, every
other entry a ``Fraction``.  On ints it stays on ints, and since sigma_k
and T[k][j] are homogeneous, the integer vector p = D*a of a rational
vector a (D the lcm of its denominators) gives sigma_k(p) = D**k
sigma_k(a) and T[k][j](p) = D**(k+j) T[k][j](a): `verify` draws its
rational vectors as int (numerator, denominator) pairs, forms p from them
directly, and compares its homogeneous suites on that scale, so it builds
no ``Fraction``.

The recurrences are triangular.  After i entries only sigma_0 .. sigma_i
(the rows T[0] .. T[i]) can be nonzero, so entry i updates those degrees
alone.  A full-length update would also add x * 0 to each degree not yet
reached.  For finite x that product is a zero, so such a degree would
still hold a zero z when its first entry arrives: +0.0 for floats (as
0 + -0.0 == +0.0), 0 or Fraction(0) for exact input.  The triangular loop
holds the int 0 there instead, or appends the new top degree as 0 + v
(elem_sym_all: no int zero rides its inner loop).  Either way that entry
adds its term v to the zero, and 0 + v has the value, type and bits of
z + v, v = -0.0 included.  So every value keeps the bits and the type of
the full-length loop, which tests/test_exact_kernels.py writes out as the
oracle.  Non-finite entries are outside this: inf * 0 is nan.

Exclusion indices are 1-based, matching the classical subscript notation
for "sigma_k with the i-th variable removed".  ``elem_sym_excl_all``
returns the whole row sigma_0 .. sigma_{n-1} of a without entry i in one
recurrence pass; a caller that needs many k for the same exclusion builds
that row once and indexes it.  ``sigma_rank_one`` takes the rows it reads,
sigma(p) and the n rows sigma(p | i), so a caller that needs every k of
one p builds them once; ``newton_check`` and
``phasepoly.alternating_parts`` take the row sigma(a) they read, and
``phasepoly.ray_wronskian`` the table gen_sym_table(a) it reads, so a
caller that already has one builds no second one.  gen_sym_table is the
package's one generalized-symmetric recurrence.  newton_check returns
the margins alone: each caller judges them by its own rule.
"""

import math
from functools import lru_cache
from typing import Sequence

import numpy as np


def elem_sym_all(a: Sequence) -> list:
    """All values sigma_0(a) .. sigma_n(a) via the product recurrence.

    Triangular, and grown by append: entry i (1-based) appends sigma_i as
    0 + x * sigma_{i-1}, then updates sigma_{i-1} .. sigma_1.  The values
    keep the bits of the full-length update (module docstring).
    """
    e = [1]
    for x in a:
        j = len(e) - 1
        e.append(0 + x * e[j])
        while j:
            e[j] += x * e[j - 1]
            j -= 1
    return e


def elem_sym_excl_all(a: Sequence, i: int) -> list:
    """sigma_0 .. sigma_{n-1} of a with its (1-based) entry i removed:
    elem_sym_all of the other entries, in their order.  The caller passes
    i in range; nothing checks it."""
    kept = list(a)
    del kept[i - 1]
    return elem_sym_all(kept)


def gen_sym_table(a: Sequence) -> list:
    """Generalized symmetric values T[k][j] for all 0 <= j <= k <= n.

    T[k][j] sums, over every unordered choice of k distinct indices
    together with a designated j-subset, the product of the chosen entries
    with the designated ones squared.  The term count is C(n,k)*C(k,j), so
    for the all-ones vector the value equals that product of binomials;
    j = 0 recovers sigma_k.  T[k][j] is the coefficient of x^k y^j in
    prod_i (1 + a_i x + a_i^2 x y), built by one pass of the bivariate
    product recurrence.  Triangular, as elem_sym_all: entry i (1-based)
    updates rows i .. 1 alone, and every value keeps the bits of the
    full-length update (module docstring).
    """
    n = len(a)
    table = [[0] * (k + 1) for k in range(n + 1)]
    table[0][0] = 1
    for i, x in enumerate(a, 1):
        x2 = x * x
        for k in range(i, 0, -1):
            row = table[k]
            prev = table[k - 1]
            # T[k][j] += x T[k-1][j] + x^2 T[k-1][j-1], the first term
            # absent at j = k and the second at j = 0
            row[k] = row[k] + x2 * prev[k - 1]
            for j in range(k - 1, 0, -1):
                row[j] = row[j] + x * prev[j] + x2 * prev[j - 1]
            row[0] = row[0] + x * prev[0]
    return table


def sigma_rank_one(sig: Sequence, excl: Sequence, q: Sequence, s, k: int):
    """sigma_k of the eigenvalues of diag(p) + s * q q^T, in closed form.

    The update is linear in s: sigma_k(p) plus s times the sum over i of
    sigma_{k-1}(p with entry i removed) * q_i^2.  No eigenvalue computation
    is performed.  The caller hands in the rows of p this reads, sig =
    elem_sym_all(p) and excl[i] = elem_sym_excl_all(p, i+1), built once
    for every k; the result is their sigma_k + s * sum_i excl[i][k-1] q_i^2,
    summed in index order, for 1 <= k <= n.
    """
    corr = 0
    for i in range(len(sig) - 1):
        corr = corr + excl[i][k - 1] * q[i] * q[i]
    return sig[k] + s * corr


def rank_one_phase_level(p: np.ndarray, s: np.ndarray, q2: np.ndarray,
                         c: Sequence) -> tuple:
    """Phase and scaled level value of diag(p) + s q q^T, batched.

    p has shape (S, n) and s shape (S,): one diagonal and one update scale
    per block.  q2 has shape (D, n): the squares q o q of the D update
    vectors that every block shares.  c is PhaseSpec(n, theta).coeffs,
    c_k = Im(e^(-i theta) i^k), of which the kernel reads c_0 and c_1.
    For each of the S*D matrices M the result is two (S, D) arrays, with
    lambda the eigenvalues of M:

        H = sum_i arctan(lambda_i),
        L = sum_k c_k sigma_k(lambda) / prod_i sqrt(1 + lambda_i^2),

    and L = sin(H - theta): it is dimensionless whatever the size of the
    eigenvalues.  No eigenvalue is computed.  By the matrix determinant
    lemma, prod_i (1 + i lambda_i) = prod_j (1 + i p_j) * w with
    w = 1 + i s sum_j q_j^2/(1 + i p_j).  Eigenvalue interlacing (Golub
    1973) keeps the update's share of H inside (-pi, pi), so
    H = sum_j arctan(p_j) + Arg(w) with the principal Arg, and
    prod_i sqrt(1 + lambda_i^2) = prod_j sqrt(1 + p_j^2) |w|.  The level is
    the rank-one update L(p) + s sum_j q_j^2 dL/dp_j, a polynomial route
    independent of the arctangents, in product form: sum_k c_k sigma_k(p)
    = Im(e^(-i theta) prod_j (1 + i p_j)).  With z_j = (1 + i p_j)/
    sqrt(1 + p_j^2), of modulus 1, and omega = (c_1 + i c_0) prod_j z_j
    (e^(-i theta) from the snapped coefficients, so a critical angle stays
    exact), the scaled L(p) is Im omega and the scaled dL/dp_j is
    Im(i omega conj(z_j))/sqrt(1 + p_j^2).  No sigma row is formed and no
    factor leaves the unit circle, so nothing overflows; per point the
    work is three length-n dot products.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)[:, None]
    hyp = np.hypot(1.0, p)
    z = (1.0 + 1j * p) / hyp
    omega = complex(c[1], c[0]) * np.prod(z, axis=1)
    # Im(i omega conj(z_j)) = Re(omega conj(z_j))
    grad = (omega[:, None] * z.conj()).real / hyp
    # w = 1 + s sum_j q_j^2 (p_j + i)/(1 + p_j^2)
    inv = 1.0 / (1.0 + p * p)
    dots = np.asarray(q2, dtype=float) @ np.stack([p * inv, inv, grad], axis=2)
    re = 1.0 + s * dots[..., 0]
    im = s * dots[..., 1]
    phase = np.arctan(p).sum(axis=1)[:, None] + np.arctan2(im, re)
    level = (omega.imag[:, None] + s * dots[..., 2]) / np.hypot(re, im)
    return phase, level


def signed_odd_binomial_sum(Q: int) -> int:
    """Exact value of sum_{q=0}^{Q} (-1)^q (2q+1) C(2Q+1, Q-q).

    Evaluates to 1 at Q = 0 and vanishes for every Q >= 1.
    """
    return sum((-1) ** q * (2 * q + 1) * math.comb(2 * Q + 1, Q - q)
               for q in range(Q + 1))


@lru_cache(maxsize=None)
def product_decomposition(j: int, k: int, n: int) -> tuple:
    """Expansion of sigma_j * sigma_k over generalized symmetric values.

    Returns a tuple of (coeff, (K, J)) pairs such that, for every length-n
    vector a and 0 <= j <= k <= n, with sig = elem_sym_all(a) and
    T = gen_sym_table(a),

        sig[j] * sig[k] == sum coeff * T[K][J].

    Two regimes share the boundary j + k == n, where they agree term by
    term:  for j + k <= n the h-th term (h = 0..j) is
    C(j+k-2h, j-h) * T[j+k-h][h]; for j + k >= n it is
    C(2n-j-k-2h, n-j-h) * T[n-h][j+k-n+h] with h = 0..n-k.  The expansion
    depends on (j, k, n) alone: it is memoized, and the tuple is immutable,
    so every caller can share it.
    """
    terms = []
    if j + k <= n:
        for h in range(j + 1):
            terms.append((math.comb(j + k - 2 * h, j - h), (j + k - h, h)))
    else:
        for h in range(n - k + 1):
            terms.append((math.comb(2 * n - j - k - 2 * h, n - j - h),
                          (n - h, j + k - n + h)))
    return tuple(terms)


def newton_check(sig: Sequence) -> list:
    """Margins sigma_k^2 - sigma_{k-1} sigma_{k+1} for k = 1 .. n-1, in
    order, of the sigma row sig = elem_sym_all(a) of a vector a of length n.

    Newton's inequality makes every margin nonnegative for real entries;
    n = 1 gives no margin.  The margins keep the row's scalar type.  Each
    margin k has degree 2k, so the row of the integer vector p = D*a of a
    rational vector a gives D**(2k) times a's margins as ints: the same
    signs, with no Fraction built.
    """
    return [sig[k] * sig[k] - sig[k - 1] * sig[k + 1]
            for k in range(1, len(sig) - 1)]

