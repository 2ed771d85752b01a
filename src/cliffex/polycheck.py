"""Brute-force monogenicity oracle on fully expanded polynomials.

The axial Vekua residual is fast but indirect.  This module takes the
slow road on purpose: expand A + omega B into an honest polynomial in
the coordinates x0 .. xn with Clifford coefficients, hit it with
D = d/dx0 + sum_i e_i d/dx_i from the left, and ask whether everything
cancels.  Term counts grow quickly, so this is a desk-scale check
(intended for n up to 5 and degrees up to about 8); the axial residual
covers the high-degree sweeps.

is_monogenic asks only whether D P vanishes, so it works in integers:
D is linear, so it first scales P by the lcm L of its coefficient
denominators, then applies e_i to each blade through its sign
(_blade_sign) instead of a general Multivector product, and sums
integers.  It needs int or Fraction coefficients and raises TypeError
on any other; cauchy_riemann_apply applies D to any coefficients and
stays the reference it is tested against.  Both run on the expanded
coordinates and use none of the axial operators.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

from .axial import AxialPolynomial
from .clifford import Multivector, _blade_sign


class CliffordPolynomial:
    """Polynomial in x0..xn whose coefficients are multivectors."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Tuple[int, ...], Multivector] | None = None):
        self.n = n
        clean = {}
        if terms:
            for expo, mv in terms.items():
                expo = tuple(expo)
                if len(expo) != n + 1:
                    raise ValueError(
                        "exponent tuple %r must have n+1 = %d entries" % (expo, n + 1)
                    )
                if any(d < 0 for d in expo):
                    raise ValueError("negative exponent in %r" % (expo,))
                if mv.n != n:
                    raise ValueError("coefficient dimension %d, expected %d" % (mv.n, n))
                if not mv.is_zero:
                    clean[expo] = mv
        self._terms = clean

    @classmethod
    def zero(cls, n: int) -> "CliffordPolynomial":
        return cls(n, {})

    def terms(self):
        return self._terms.items()

    def coefficient(self, expo: Tuple[int, ...]) -> Multivector:
        return self._terms.get(tuple(expo), Multivector.zero(self.n))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __repr__(self):
        return "CliffordPolynomial(%d, %d terms)" % (self.n, len(self._terms))

    def evaluate(self, point: Sequence) -> Multivector:
        """Value at (x0, .., xn); scalars may be exact or float."""
        if len(point) != self.n + 1:
            raise ValueError("point must have n+1 = %d coordinates" % (self.n + 1,))
        total = Multivector.zero(self.n)
        for expo, mv in self._terms.items():
            factor = 1
            for coord, power in zip(point, expo):
                factor = factor * coord**power
            total = total + mv * factor
        return total


def _norm_square_power(n: int, p: int) -> dict:
    """(x1^2 + ... + xn^2)^p as a map from vector exponents to integers."""
    out = {(0,) * n: 1}
    for _ in range(p):
        grown: dict = {}
        for expo, c in out.items():
            for m in range(n):
                key = expo[:m] + (expo[m] + 2,) + expo[m + 1 :]
                grown[key] = grown.get(key, 0) + c
        out = grown
    return out


def from_axial(F: AxialPolynomial) -> CliffordPolynomial:
    """Expand A(x0, r) + omega(x) B(x0, r) into coordinates.

    Even powers r^(2p) become (sum x_i^2)^p; the omega part uses
    r^(2p+1) omega = (sum x_i^2)^p (sum e_i x_i).  Parity of the two
    parts is what makes both substitutions polynomial.
    """
    n = F.n
    accum: dict = {}

    def add(expo: Tuple[int, ...], mv: Multivector) -> None:
        accum[expo] = accum[expo] + mv if expo in accum else mv

    for (i, j), c in F.A.terms():
        for vec_expo, mult in _norm_square_power(n, j // 2).items():
            add((i,) + vec_expo, Multivector.scalar(n, c * mult))
    for (i, j), c in F.B.terms():
        for vec_expo, mult in _norm_square_power(n, (j - 1) // 2).items():
            for m in range(n):
                expo = (i,) + vec_expo[:m] + (vec_expo[m] + 1,) + vec_expo[m + 1 :]
                add(expo, Multivector(n, {1 << m: c * mult}))
    return CliffordPolynomial(n, accum)


def cauchy_riemann_apply(P: CliffordPolynomial) -> CliffordPolynomial:
    """Left application of D = d/dx0 + sum_i e_i d/dx_i."""
    n = P.n
    out: dict = {}

    def add(expo: Tuple[int, ...], mv: Multivector) -> None:
        out[expo] = out[expo] + mv if expo in out else mv

    for expo, mv in P.terms():
        if expo[0]:
            add((expo[0] - 1,) + expo[1:], mv * expo[0])
        for i in range(1, n + 1):
            if expo[i]:
                lowered = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
                add(lowered, (Multivector.basis_vector(n, i) * mv) * expo[i])
    return CliffordPolynomial(n, out)


def is_monogenic(P: CliffordPolynomial) -> bool:
    """True exactly when D P is the zero polynomial.

    D (L P) = L D P, so with L the lcm of the coefficient denominators
    the sum runs over the integers c L: the d/dx0 term adds expo[0] c L
    at the same blade, and e_i d/dx_i adds expo[i] c L with the sign
    of e_i times that blade at the blade mask ^ (1 << (i-1)).  A
    coefficient that is not int or Fraction raises TypeError.
    """
    try:
        L = math.lcm(*{c.denominator for _, mv in P.terms() for _, c in mv.items()})
    except AttributeError:
        raise TypeError("is_monogenic needs int or Fraction coefficients") from None
    out: dict = {}
    for expo, mv in P.terms():
        blades = [(mask, c.numerator * (L // c.denominator)) for mask, c in mv.items()]
        for i, power in enumerate(expo):
            if not power:
                continue
            lowered = expo[:i] + (power - 1,) + expo[i + 1 :]
            gen = 1 << (i - 1) if i else 0
            for mask, c in blades:
                key = (lowered, mask ^ gen)
                sign = _blade_sign(gen, mask) if gen else 1
                out[key] = out.get(key, 0) + sign * power * c
    return not any(out.values())
