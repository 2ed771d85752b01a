"""The Fueter-Sce transform of complex monomials and power series.

A holomorphic monomial z^k splits into real and imaginary parts u_k,
v_k; for odd n the transform applies (n-1)/2 radial lowering steps to
each part and rescales by a normalization constant alpha so that the
value at 1 is 1.  Degrees below n-1 are annihilated outright, which is
why series transforms only ever see coefficients a_(k+n-1).

The split of z^k and its lowered images have integer coefficients;
the normalization is one scalar multiplication of the axial result by
alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .axial import AxialPolynomial, BivariatePoly, apply_radial_powers
from .exact import binomial, double_factorial, factorial, require_nonnegative, require_odd_dimension


@dataclass(frozen=True)
class MonomialSplit:
    """z^k = u_k(w, y) + i v_k(w, y) with z = w + iy.

    u is even and v odd in y, mirroring the axial parity pair.
    """

    k: int
    u: BivariatePoly
    v: BivariatePoly


def monomial_split(k: int) -> MonomialSplit:
    """Binomial expansion of (w + iy)^k sorted by parity of the y-power."""
    require_nonnegative("k", k)
    u_terms = {}
    v_terms = {}
    for s in range(k + 1):
        p, odd = divmod(s, 2)
        coeff = binomial(k, s) * (-1) ** p
        target = v_terms if odd else u_terms
        target[(k - s, s)] = coeff
    return MonomialSplit(k, BivariatePoly._trusted(u_terms), BivariatePoly._trusted(v_terms))


@dataclass(frozen=True)
class BetaTerm:
    """Result of the radial operators on a single power r^j.

    The power either dies (2p < n-1 lowering steps overshoot) or
    survives as coefficient * r^r_exponent.
    """

    n: int
    j: int
    coefficient: Fraction
    r_exponent: int
    is_zero: bool

    def value_at_zero(self) -> Fraction:
        if self.is_zero or self.r_exponent > 0:
            return Fraction(0)
        return self.coefficient


def beta(n: int, j: int) -> BetaTerm:
    """The image of r^j under (n-1)/2 lowering steps, in closed form.

    Writing j = 2p or 2p + 1: zero when 2p < n-1, else the coefficient
    is (2p)!!/(2p-n+1)!! with r-exponent 2p-n+1 (even j) or 2p-n+2
    (odd j).  At r = 0 the surviving even-j value is (n-1)!! exactly
    when 2p = n-1.
    """
    require_odd_dimension(n)
    require_nonnegative("j", j)
    p = j // 2
    if 2 * p < n - 1:
        return BetaTerm(n, j, Fraction(0), 0, True)
    coeff = Fraction(double_factorial(2 * p), double_factorial(2 * p - n + 1))
    exponent = 2 * p - n + 1 if j % 2 == 0 else 2 * p - n + 2
    return BetaTerm(n, j, coeff, exponent, False)


def _signed_double_factorial(n: int) -> int:
    """(-1)^((n-1)/2) (n-2)!!, the one normalization sign and size, as an int."""
    require_odd_dimension(n)
    return -double_factorial(n - 2) if ((n - 1) // 2) % 2 else double_factorial(n - 2)


def default_alpha(n: int) -> Fraction:
    """(-1)^((n-1)/2) (n-2)!!, the normalization matching gamma = 1."""
    return Fraction(_signed_double_factorial(n))


def alpha_monomial(n: int, k: int) -> Fraction:
    """Normalization constant making tau_n[z^k](1) = 1.

    Equals (-1)^((n-1)/2) (n-2)!! (k-n+1)!/k!.  Below the threshold
    k = n-1 the transform is identically zero and no constant exists.
    """
    alpha = _signed_double_factorial(n)
    if k < n - 1:
        raise ValueError(
            "no normalization possible: tau_n[z^k] is identically 0 for k < n-1"
        )
    return Fraction(alpha * factorial(k - n + 1), factorial(k))


def fueter_sce_monomial(n: int, k: int, normalized: bool = True) -> AxialPolynomial:
    """tau_n[z^k] as an axial polynomial.

    Applies the radial lowering steps to the split of z^k with w -> x0
    and y -> r.  Degrees k < n-1 come back as the zero polynomial,
    which is a value, not an error.  With normalization the result for
    k >= n-1 takes the value 1 at x = 1.

    The lowered coefficients are integers; normalizing multiplies each
    part by alpha = p/q, so the numerators become p times them over q,
    reduced once per part.
    """
    split = monomial_split(k)
    result = apply_radial_powers((split.u, split.v), n)
    if normalized and k >= n - 1:
        result = result * alpha_monomial(n, k)
    return result


def fueter_sce_series(n: int, f, alpha: Fraction, K: int):
    """Coefficients of tau_n[f] in the basis P_0^n .. P_K^n.

    f is any series object exposing exact Taylor coefficients through
    f.coeff(k).  The k-th output coefficient is
    alpha * a_(k+n-1) / alpha_n[z^(k+n-1)]: the first n-1 coefficients
    of f never contribute because those monomials are annihilated.
    """
    if not alpha:
        raise ValueError("alpha must be nonzero")
    require_nonnegative("K", K)
    out = []
    for k in range(K + 1):
        a = Fraction(f.coeff(k + n - 1))
        out.append((k, alpha * a / alpha_monomial(n, k + n - 1)))
    return out
