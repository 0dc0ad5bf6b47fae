"""Exact and floating-point kernels for elementary symmetric polynomials.

Conventions used throughout (and by every module built on top of this one):

    sigma_{-1}(a) == 0,   sigma_0(a) == 1,   sigma_k(a) == 0 for k > n,

where n = len(a).  All kernels are generic over the scalar type: handing in
``fractions.Fraction`` (or int) entries keeps every computation exact, while
float entries give the ordinary fast path.  Evaluation always goes through
the coefficient recurrence for prod_i (1 + t*a_i), never through explicit
subset enumeration; enumeration appears only in test oracles.

The kernels run one plain loop on every scalar type.  On ``Fraction``
input it keeps value and type: sigma_0 and T[0][0] are the int 1, every
other entry a ``Fraction``.  On ints it stays on ints, and since sigma_k
and T[k][j] are homogeneous, the numerators p = D*a of an exact vector
(clear_denominators) give sigma_k(p) = D**k sigma_k(a) and
T[k][j](p) = D**(k+j) T[k][j](a): `verify`'s homogeneous suites compare
on that scale and build no ``Fraction``.  ``phasepoly.ray_wronskian``
clears the denominators itself, computes its result from the integer row,
and builds one ``Fraction`` for it.

Exclusion indices are 1-based, matching the classical subscript notation
for "sigma_k with the i-th variable removed".  ``elem_sym_excl_all`` returns
the whole row sigma_0 .. sigma_{n-|excl|} of the reduced vector in one
recurrence pass; a caller that needs many k for the same exclusion set
builds that row once and indexes it.  ``sigma_rank_one`` takes the rows it
reads, sigma(p) and the n rows sigma(p | i), so a caller that needs every
k of one p builds them once; ``newton_check`` takes the row sigma(a) it
reads, so a caller that already has it builds no second one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np


def clear_denominators(a: Sequence):
    """(numerators, D) with a_i == numerators[i] / D, or None.

    D is the lcm of the denominators.  Only exact input qualifies: the first
    entry must be a Fraction and every entry an int or a Fraction.
    """
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


def elem_sym_all(a: Sequence) -> list:
    """All values sigma_0(a) .. sigma_n(a) via the product recurrence."""
    n = len(a)
    e = [0] * (n + 1)
    e[0] = 1
    down = range(n, 0, -1)
    for x in a:
        for j in down:
            e[j] += x * e[j - 1]
    return e


def elem_sym_excl_all(a: Sequence, excl: Sequence[int] = ()) -> list:
    """sigma_0 .. sigma_{n-len(excl)} of a with the (1-based) indices in excl
    removed.

    At most two indices may be excluded; they must be distinct and in range.
    The reduced vector keeps the order of a, so every entry equals what
    elem_sym_all gives on that reduced list.  An empty exclusion set
    reduces to elem_sym_all(a).
    """
    n = len(a)
    idx = list(excl)
    if len(idx) > 2:
        raise ValueError("at most two indices may be excluded")
    if len(set(idx)) != len(idx):
        raise ValueError("exclusion index out of range or repeated")
    for i in idx:
        if not (1 <= i <= n):
            raise ValueError("exclusion index out of range or repeated")
    drop = {i - 1 for i in idx}
    return elem_sym_all([x for pos, x in enumerate(a) if pos not in drop])


def gen_sym_table(a: Sequence) -> list:
    """Generalized symmetric values T[k][j] for all 0 <= j <= k <= n.

    T[k][j] sums, over every unordered choice of k distinct indices
    together with a designated j-subset, the product of the chosen entries
    with the designated ones squared.  The term count is C(n,k)*C(k,j), so
    for the all-ones vector the value equals that product of binomials;
    j = 0 recovers sigma_k.  T[k][j] is the coefficient of x^k y^j in
    prod_i (1 + a_i x + a_i^2 x y), built by one pass of the bivariate
    product recurrence.
    """
    n = len(a)
    table = [[0] * (k + 1) for k in range(n + 1)]
    table[0][0] = 1
    for x in a:
        x2 = x * x
        for k in range(n, 0, -1):
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
    elem_sym_all(p) and excl[i] = elem_sym_excl_all(p, (i+1,)), built once
    for every k; the result is their sigma_k + s * sum_i excl[i][k-1] q_i^2,
    summed in index order.
    """
    n = len(sig) - 1
    if len(excl) != n or len(q) != n:
        raise ValueError("need n exclusion rows and n entries of q for "
                         "a sigma row of length n + 1")
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    corr = 0
    for i in range(n):
        corr = corr + excl[i][k - 1] * q[i] * q[i]
    return sig[k] + s * corr


def rank_one_phase_level(p: np.ndarray, s: np.ndarray, q2: np.ndarray,
                         c: Sequence) -> tuple:
    """Phase, level value and scaled level of diag(p) + s q q^T, batched.

    p has shape (S, n) and s shape (S,): one diagonal and one update scale
    per block.  q2 has shape (S, D, n): the squares q o q of the update
    vectors of D points per block.  c holds the level coefficients
    c_0 .. c_n.  For each of the S*D matrices M the result is three (S, D)
    arrays, with lambda the eigenvalues of M:

        H = sum_i arctan(lambda_i),   L = sum_k c_k sigma_k(lambda),
        L / prod_i sqrt(1 + lambda_i^2).

    No eigenvalue is computed.  By the matrix determinant lemma,
    prod_i (1 + i lambda_i) = prod_j (1 + i p_j) * w with
    w = 1 + i s sum_j q_j^2/(1 + i p_j).  Eigenvalue interlacing (Golub
    1973) keeps the update's share of H inside (-pi, pi), so
    H = sum_j arctan(p_j) + Arg(w) with the principal Arg, and the scale
    prod_i sqrt(1 + lambda_i^2) = prod_j sqrt(1 + p_j^2) |w| is formed as a
    log so it cannot overflow.  L is sigma_rank_one's update summed against
    c, a polynomial route independent of the arctangents:
    L(p) + s sum_j q_j^2 dL/dp_j with dL/dp_j = sum_k c_k sigma_{k-1}(p with
    entry j removed).  Those exclusion rows come from one elem_sym_stack
    call on the (S*n, n-1) stack; per point the work is three length-n dot
    products.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)[:, None]
    c = np.asarray(c, dtype=float)
    blocks, n = p.shape
    others = np.array([np.delete(np.arange(n), j) for j in range(n)])
    rows = elem_sym_stack(p[:, others].reshape(blocks * n, n - 1))
    rows = rows.reshape(blocks, n, n)
    grad = rows @ c[1:]
    # sigma_k(p) = sigma_k(p without p_0) + p_0 sigma_{k-1}(p without p_0)
    base = rows[:, 0] @ c[:n] + p[:, 0] * grad[:, 0]
    # w = 1 + s sum_j q_j^2 (p_j + i)/(1 + p_j^2)
    inv = 1.0 / (1.0 + p * p)
    dots = np.asarray(q2, dtype=float) @ np.stack([p * inv, inv, grad], axis=2)
    re = 1.0 + s * dots[..., 0]
    im = s * dots[..., 1]
    phase = np.arctan(p).sum(axis=1)[:, None] + np.arctan2(im, re)
    level = base[:, None] + s * dots[..., 2]
    log_scale = (np.log(np.hypot(1.0, p)).sum(axis=1)[:, None]
                 + np.log(np.hypot(re, im)))
    return phase, level, level * np.exp(-log_scale)


def signed_odd_binomial_sum(Q: int) -> int:
    """Exact value of sum_{q=0}^{Q} (-1)^q (2q+1) C(2Q+1, Q-q).

    Evaluates to 1 at Q = 0 and vanishes for every Q >= 1.
    """
    if Q < 0:
        raise ValueError("Q must be nonnegative")
    return sum((-1) ** q * (2 * q + 1) * math.comb(2 * Q + 1, Q - q)
               for q in range(Q + 1))


@lru_cache(maxsize=None)
def product_decomposition(j: int, k: int, n: int) -> tuple:
    """Expansion of sigma_j * sigma_k over generalized symmetric values.

    Returns a tuple of (coeff, (K, J)) pairs such that, for every length-n
    vector a, with sig = elem_sym_all(a) and T = gen_sym_table(a),

        sig[j] * sig[k] == sum coeff * T[K][J].

    Two regimes share the boundary j + k == n, where they agree term by
    term:  for j + k <= n the h-th term (h = 0..j) is
    C(j+k-2h, j-h) * T[j+k-h][h]; for j + k >= n it is
    C(2n-j-k-2h, n-j-h) * T[n-h][j+k-n+h] with h = 0..n-k.  The expansion
    depends on (j, k, n) alone: it is memoized, and the tuple is immutable,
    so every caller can share it.
    """
    if not (0 <= j <= k <= n):
        raise ValueError("need 0 <= j <= k <= n")
    terms = []
    if j + k <= n:
        for h in range(j + 1):
            terms.append((math.comb(j + k - 2 * h, j - h), (j + k - h, h)))
    else:
        for h in range(n - k + 1):
            terms.append((math.comb(2 * n - j - k - 2 * h, n - j - h),
                          (n - h, j + k - n + h)))
    return tuple(terms)


@dataclass(frozen=True)
class NewtonReport:
    """Per-index margins of Newton's inequality and an overall pass flag."""
    margins: dict
    passed: bool


def newton_check(sig: Sequence) -> NewtonReport:
    """Margins sigma_k^2 - sigma_{k-1} sigma_{k+1} for k = 1 .. n-1 of the
    sigma row sig = elem_sym_all(a) of a vector a of length n.

    Newton's inequality makes every margin nonnegative for real entries;
    n = 1 passes vacuously.  The margins keep the row's scalar type.  Each
    margin k has degree 2k, so the row of the integer numerators p = D*a
    (clear_denominators) gives D**(2k) times a's margins as ints: the same
    signs, hence the same flag, with no Fraction built.
    """
    margins = {}
    for k in range(1, len(sig) - 1):
        margins[k] = sig[k] * sig[k] - sig[k - 1] * sig[k + 1]
    passed = all(v >= 0 for v in margins.values())
    return NewtonReport(margins=margins, passed=passed)


def elem_sym_stack(lam: np.ndarray) -> np.ndarray:
    """Row-wise sigma table for a stack of float vectors.

    lam has shape (P, n); the result has shape (P, n+1) with column k
    holding sigma_k of each row.  Same recurrence as elem_sym_all, run on
    whole columns at once: after entry i only sigma_1 .. sigma_{i+1} can
    change, and they update together from the previous values, so each
    entry costs one array operation on a contiguous block.
    """
    lam = np.asarray(lam, dtype=float)
    p, n = lam.shape
    e = np.zeros((n + 1, p))
    e[0] = 1.0
    for i, col in enumerate(np.ascontiguousarray(lam.T)):
        e[1:i + 2] += col * e[:i + 1]
    return np.ascontiguousarray(e.T)
