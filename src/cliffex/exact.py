"""Exact rational arithmetic and the combinatorial building blocks.

Every polynomial coefficient in this package is an ``int`` or a
``fractions.Fraction``: arbitrary-precision, always in lowest terms,
never rounded.  The helpers below are the factorial-type functions the
Appell coefficients, the radial-operator images and the hypergeometric
term weights are assembled from, plus the two argument checks every
construction shares: an odd dimension n and a nonnegative size.

All values are immutable and all functions are pure, so everything here
is safe to share between threads or tasks.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "require_odd_dimension",
    "require_nonnegative",
    "factorial",
    "double_factorial",
    "binomial",
    "pochhammer",
]


def require_odd_dimension(n: int) -> None:
    """Raise ValueError unless n is odd and > 1, the dimensions the theory covers."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd (> 1), got %r" % (n,))


def require_nonnegative(name: str, value: int) -> None:
    """Raise ValueError unless the size or index called name is >= 0."""
    if value < 0:
        raise ValueError("%s must be nonnegative, got %r" % (name, value))


def factorial(m: int) -> int:
    """m! for m >= 0.  Raises ValueError for negative m."""
    if m < 0:
        raise ValueError("factorial is undefined for negative integers: %r" % (m,))
    return math.factorial(m)


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ... with the conventions 0!! = (-1)!! = 1.

    The empty-product value at m = -1 makes boundary coefficients come
    out right: the degree-0 Appell coefficient is (-1)!! (n-2)!!/(n-2)!!
    and must equal 1.
    """
    if m < -1:
        raise ValueError("double factorial is undefined below -1: %r" % (m,))
    return math.prod(range(m, 1, -2))


def binomial(k: int, s: int) -> int:
    """C(k, s) for k >= 0, with value 0 whenever s < 0 or s > k."""
    if k < 0:
        raise ValueError("binomial requires k >= 0, got %r" % (k,))
    if s < 0 or s > k:
        return 0
    return math.comb(k, s)


def pochhammer(q: Fraction | int, l: int) -> Fraction:
    """Rising factorial (q)_l = q (q+1) ... (q+l-1), with (q)_0 = 1.

    With q = a/b in lowest terms, (q)_l = a (a+b) ... (a+(l-1)b) / b^l:
    the numerator is one integer product and the result is reduced
    once, not after each of the l factors.
    """
    if l < 0:
        raise ValueError("pochhammer requires l >= 0, got %r" % (l,))
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    return Fraction(math.prod(range(a, a + l * b, b)), b**l)
