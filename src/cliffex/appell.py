"""The Appell sequence P_k^n of paravector-valued polynomials.

Two facts pin the sequence down: the derivative rule d/dx0 P_k = k
P_(k-1) with P_k(1) = 1, and the restriction to pure vectors P_k(x) =
c_n^k x^k.  Integrating the first from the second forces the explicit
binomial form used here, and every defining property is re-verified as
an exact identity by the test suite, so the construction certifies
itself.

Every polynomial here is one fold of that binomial row: sum a P_k over
rows (k, a), summed in integers.  The c-table is read as integer
numerators over L, the lcm of its denominators, the a_k over R, the
lcm of theirs, and each term a C(k,s) c_n^s is written once as an
integer numerator over R L, with the binomial stepped in integers.
appell_polynomial folds the single row (k, 1), appell_sequence folds
(k, 1) for k = 0..K over one c-table, and appell_combination folds its
nonzero a_k.  Each call reads its c-table afresh through c_coeff:
nothing is cached between calls, so a patched c_coeff shows in every
route.

appell_property_report checks d/dx0 P_k = k P_(k-1) key by key, one
integer cross-multiplication by the two polynomials' denominators per
key, building no derivative and no scaled polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .axial import AxialPolynomial, BivariatePoly, _require_rational
from .exact import double_factorial, require_nonnegative, require_odd_dimension


def c_coeff(n: int, k: int) -> Fraction:
    """The restriction constant c_n^k.

    Even k: (k-1)!!(n-2)!!/(n+k-2)!!.  Odd k: k!!(n-2)!!/(n+k-1)!!.
    Both use the 0!! = (-1)!! = 1 convention, so c_n^0 = 1.
    """
    require_odd_dimension(n)
    require_nonnegative("k", k)
    if k % 2 == 0:
        return Fraction(
            double_factorial(k - 1) * double_factorial(n - 2),
            double_factorial(n + k - 2),
        )
    return Fraction(
        double_factorial(k) * double_factorial(n - 2),
        double_factorial(n + k - 1),
    )


def c_table(n: int, K: int) -> list[Fraction]:
    """c_n^0 .. c_n^K as a list, the CLI-facing dump."""
    require_odd_dimension(n)
    return [c_coeff(n, k) for k in range(K + 1)]


def _signed_c_table(n: int, K: int) -> tuple[list[int], int]:
    """(-1)^(s // 2) c_n^s for s = 0..K as integer numerators over L, and L.

    L is the lcm of the denominators; the sign of x^s is folded into
    (r, omega).
    """
    table = c_table(n, K)
    L = math.lcm(*(c.denominator for c in table))
    return [(-1 if s & 2 else 1) * c.numerator * (L // c.denominator) for s, c in enumerate(table)], L


def _fold(n: int, signed_c: tuple[list[int], int], rows) -> AxialPolynomial:
    """sum a P_k^n over rows (k, a) with a rational and nonzero, as one axial sum.

    The term a (-1)^(s//2) C(k,s) c_n^s lands at key (k-s, s): in A for
    even s, in B for odd s.  Each key occurs once, so with the c-table
    as numerators over L and the a over R = lcm(den a), every term is
    written straight into its dict as the integer (a R) C(k,s) (c L),
    with (a R) C(k,s) stepped in integers along s; both parts are over
    R L.  Iterating k outer, s inner gives the same term order as adding
    a P_k one at a time.
    """
    c_num, L = signed_c
    R = math.lcm(*(a.denominator for _, a in rows))
    a_terms: dict = {}
    b_terms: dict = {}
    for k, a in rows:
        scaled = a.numerator * (R // a.denominator)  # a R C(k, s), stepped in integers
        for s in range(k + 1):
            c = c_num[s]
            if c:
                (b_terms if s & 1 else a_terms)[(k - s, s)] = scaled * c
            scaled = scaled * (k - s) // (s + 1)
    den = R * L
    return AxialPolynomial._trusted(BivariatePoly._trusted(a_terms, den), BivariatePoly._trusted(b_terms, den), n)


def appell_polynomial(n: int, k: int) -> AxialPolynomial:
    """P_k^n in axial form.

    Expands sum_s C(k,s) c_n^s x0^(k-s) x^s with the vector powers
    folded into (r, omega): x^(2p) = (-1)^p r^(2p) lands in the scalar
    part, x^(2p+1) = (-1)^p r^(2p+1) omega in the omega part.
    """
    require_nonnegative("k", k)
    return _fold(n, _signed_c_table(n, k), [(k, 1)])


def appell_sequence(n: int, K: int) -> list[AxialPolynomial]:
    """[P_0^n, ..., P_K^n], all built from one c-table read on this call.

    Each P_k is the same row appell_polynomial(n, k) returns, term for
    term and in the same key order, but the c-table is read through
    c_coeff K+1 times in all instead of k+1 times per polynomial.
    """
    require_nonnegative("K", K)
    signed_c = _signed_c_table(n, K)
    return [_fold(n, signed_c, [(k, 1)]) for k in range(K + 1)]


def appell_combination(n: int, coeffs: Sequence) -> AxialPolynomial:
    """sum_k a_k P_k^n for coeffs = (a_0, ..., a_K), as one direct sum.

    Every a_k must be int or Fraction (TypeError otherwise).  The
    nonzero ones are folded into one pair of dicts: (K+1)(K+2)/2 terms
    at most and no P_k built.  The c-table is read through c_coeff on
    every call.
    """
    for a in coeffs:
        _require_rational(a)
    rows = [(k, a) for k, a in enumerate(coeffs) if a]
    return _fold(n, _signed_c_table(n, len(coeffs) - 1), rows)


@dataclass(frozen=True)
class AppellPropertyReport:
    """Outcome of the derivative-rule sweep d/dx0 P_k = k P_(k-1)."""

    n: int
    checked_up_to: int
    holds: bool
    first_failure: int | None = None


def _is_scaled_derivative(P: AxialPolynomial, Q: AxialPolynomial, k: int) -> bool:
    """Whether d/dx0 P == k Q, compared key by key in integers.

    With the parts of P and Q as numerators over dp and dq, a term
    p x0^i r^j of P with i > 0 must meet a term q at (i-1, j) of Q in
    the same part with i p / dp == k q / dq, checked as i p dq == k q dp;
    and each part of Q must have exactly as many terms as P has with
    i > 0.
    """
    if P.n != Q.n:
        return False
    for p_part, q_part in ((P.A, Q.A), (P.B, Q.B)):
        q_terms, dp, dq = q_part._num, p_part._den, q_part._den
        matched = 0
        for (i, j), t in p_part._num.items():
            if not i:
                continue
            q = q_terms.get((i - 1, j))
            if q is None or i * t * dq != k * q * dp:
                return False
            matched += 1
        if matched != len(q_terms):
            return False
    return True


def appell_property_report(polys: Sequence[AxialPolynomial]) -> AppellPropertyReport:
    """Verify d/dx0 P_k = k P_(k-1) exactly along polys = [P_0^n, ..., P_K^n]."""
    K = len(polys) - 1
    if K < 1:
        raise ValueError("K must be at least 1, got %r" % (K,))
    n = polys[0].n
    for k in range(1, K + 1):
        if not _is_scaled_derivative(polys[k], polys[k - 1], k):
            return AppellPropertyReport(n, K, False, first_failure=k)
    return AppellPropertyReport(n, K, True)


def appell_property_check(n: int, K: int) -> AppellPropertyReport:
    """Verify d/dx0 P_k^n = k P_(k-1)^n exactly for k = 1..K."""
    return appell_property_report(appell_sequence(n, K))
