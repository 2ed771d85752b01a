"""Axial polynomials A(x0, r) + omega B(x0, r) and their operators.

Everything the radial machinery touches lives in two variables: the
real part x0 and the radius r = |x|.  A pair (A, B) of bivariate
polynomials with A even in r and B odd in r describes a genuine
polynomial on R^(n+1) once r and omega are substituted back, and that
parity pair is the canonical representation used throughout.

The module provides the two radial lowering rules, their (n-1)/2-fold
application, the Vekua-type residual whose vanishing certifies
monogenicity, and exact/float point evaluation.

Coefficients are rational: the public BivariatePoly constructor takes
int or Fraction and raises TypeError for anything else (a float, say).
A BivariatePoly stores nonzero integer numerators over one positive
denominator, in lowest terms, so equal polynomials have equal storage.
Arithmetic, the radial lowering, vekua_residual and exact evaluate
work on those integers directly; BivariatePoly._trusted is the one
place that reduces.  terms() and coefficient() build Fractions on
demand.  Float evaluation rounds each coefficient once, as num / den.

Polynomials scale by an int or a Fraction only; a float factor, or a
polynomial one, raises TypeError as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Tuple

from .clifford import Multivector, Paravector
from .exact import require_odd_dimension


def _require_rational(c) -> None:
    if not isinstance(c, Rational):
        raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class BivariatePoly:
    """Polynomial in (x0, r) with exact rational coefficients.

    The public constructor takes a map from exponent pairs (i, j) to int
    or Fraction coefficients; anything else raises TypeError.  Storage
    is one dict of nonzero integer numerators over one positive
    denominator, with gcd(denominator, every numerator) = 1.  Instances
    are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Tuple[int, int], object] | None = None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent in term (%r, %r)" % (i, j))
                _require_rational(c)
                if c:
                    clean[(i, j)] = c
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self._den = den

    @classmethod
    def _trusted(cls, num: dict, den: int = 1) -> "BivariatePoly":
        """The polynomial num / den, reduced to lowest terms, without checks.

        The caller guarantees nonnegative exponents, nonzero integer
        numerators and den > 0, and hands over ownership of num.  This
        is the one place that divides out gcd(den, every numerator).
        Going through cls.__new__ keeps instance creation observable to
        anything that hooks it.
        """
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                for key in num:  # in place: num may be large, and it is ours
                    num[key] //= g
                den //= g
        poly = cls.__new__(cls)
        poly._num = num
        poly._den = den
        return poly

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls._trusted({})

    def terms(self):
        """(exponent pair, Fraction coefficient) for every term, in storage order."""
        den = self._den
        return ((key, Fraction(t, den)) for key, t in self._num.items())

    def coefficient(self, i: int, j: int):
        t = self._num.get((i, j))
        return Fraction(t, self._den) if t else 0

    @property
    def is_zero(self) -> bool:
        return not self._num

    def is_even_in_r(self) -> bool:
        return all(j % 2 == 0 for (_, j) in self._num)

    def is_odd_in_r(self) -> bool:
        return all(j % 2 == 1 for (_, j) in self._num)

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        out = {key: t * mine for key, t in self._num.items()}
        for key, t in other._num.items():
            total = out.get(key, 0) + t * theirs
            if total:
                out[key] = total
            else:
                del out[key]
        return BivariatePoly._trusted(out, den)

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BivariatePoly._trusted({key: -t for key, t in self._num.items()}, self._den)

    def __mul__(self, scalar):
        _require_rational(scalar)
        if not scalar:
            return BivariatePoly._trusted({})
        # a nonzero rational scalar keeps every term nonzero
        p = scalar.numerator
        return BivariatePoly._trusted({key: t * p for key, t in self._num.items()}, self._den * scalar.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self):
        return "BivariatePoly(%r)" % (dict(self.terms()),)

    def diff_x0(self) -> "BivariatePoly":
        out = {}
        for (i, j), t in self._num.items():
            if i > 0:
                out[(i - 1, j)] = i * t
        return BivariatePoly._trusted(out, self._den)

    def diff_r(self) -> "BivariatePoly":
        out = {}
        for (i, j), t in self._num.items():
            if j > 0:
                out[(i, j - 1)] = j * t
        return BivariatePoly._trusted(out, self._den)

    def divide_r(self) -> "BivariatePoly":
        """Exact quotient by r; every term must have positive r-degree."""
        out = {}
        for (i, j), t in self._num.items():
            if j == 0:
                raise ValueError("term with r-degree 0 is not divisible by r")
            out[(i, j - 1)] = t
        return BivariatePoly._trusted(out, self._den)

    def evaluate(self, x0: float, r: float) -> float:
        """Float value by plain substitution, each coefficient rounded once as num / den."""
        den = self._den
        total = 0
        for (i, j), t in self._num.items():
            total += t / den * x0**i * r**j
        return total


class AxialPolynomial:
    """A(x0, r) + omega(x) B(x0, r) with the parity invariants enforced.

    A must be even in r and B odd in r; that is exactly the condition
    under which the pair describes a polynomial map on R^(n+1).
    """

    __slots__ = ("A", "B", "n")

    def __init__(self, A: BivariatePoly, B: BivariatePoly, n: int):
        require_odd_dimension(n)
        if not A.is_even_in_r():
            raise ValueError("scalar part has a term with odd r-degree")
        if not B.is_odd_in_r():
            raise ValueError("omega part has a term with even r-degree")
        self.A = A
        self.B = B
        self.n = n

    @classmethod
    def _trusted(cls, A: BivariatePoly, B: BivariatePoly, n: int) -> "AxialPolynomial":
        """Pair A and B without re-checking n or the parity of every term.

        The caller guarantees that n is odd and > 1, A even in r and B
        odd in r, as they are by construction for the image of an axial
        polynomial under an operation that preserves parity.
        """
        poly = cls.__new__(cls)
        poly.A = A
        poly.B = B
        poly.n = n
        return poly

    @classmethod
    def zero(cls, n: int) -> "AxialPolynomial":
        return cls(BivariatePoly.zero(), BivariatePoly.zero(), n)

    @property
    def is_zero(self) -> bool:
        return self.A.is_zero and self.B.is_zero

    def __add__(self, other):
        if not isinstance(other, AxialPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch: %d vs %d" % (self.n, other.n))
        return AxialPolynomial._trusted(self.A + other.A, self.B + other.B, self.n)

    def __sub__(self, other):
        if not isinstance(other, AxialPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AxialPolynomial._trusted(-self.A, -self.B, self.n)

    def __mul__(self, scalar):
        return AxialPolynomial._trusted(self.A * scalar, self.B * scalar, self.n)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AxialPolynomial):
            return NotImplemented
        return self.n == other.n and self.A == other.A and self.B == other.B

    def __hash__(self):
        return hash((self.n, self.A, self.B))

    def diff_x0(self) -> "AxialPolynomial":
        return AxialPolynomial._trusted(self.A.diff_x0(), self.B.diff_x0(), self.n)

    def __repr__(self):
        return "AxialPolynomial(A=%r, B=%r, n=%d)" % (self.A, self.B, self.n)

    def __str__(self):
        return text_form(self)

    def to_json_dict(self) -> dict:
        def part(p: BivariatePoly) -> list:
            terms = sorted(p.terms(), key=lambda term: (-term[0][0], -term[0][1]))
            return [{"x0": i, "r": j, "coeff": format_rational(c)} for (i, j), c in terms]

        return {"n": self.n, "A": part(self.A), "B": part(self.B)}


def radial_lower_even(p: BivariatePoly) -> BivariatePoly:
    """One application of (1/r) d/dr to a polynomial even in r.

    r^(2p) maps to 2p r^(2p-2); r-constant terms vanish.  A term of odd
    r-degree would leave the polynomial ring, so it is rejected.
    """
    out = {}
    for (i, j), t in p._num.items():
        if j % 2:
            raise ValueError("even-lowering rule applied to odd r-degree %d" % j)
        if j >= 2:
            out[(i, j - 2)] = j * t
    return BivariatePoly._trusted(out, p._den)


def radial_lower_odd(p: BivariatePoly) -> BivariatePoly:
    """One application of d/dr (1/r) to a polynomial odd in r.

    r^(2p+1) maps to 2p r^(2p-1); bare r terms vanish.
    """
    out = {}
    for (i, j), t in p._num.items():
        if j % 2 == 0:
            raise ValueError("odd-lowering rule applied to even r-degree %d" % j)
        if j >= 3:
            out[(i, j - 2)] = (j - 1) * t
    return BivariatePoly._trusted(out, p._den)


def apply_radial_powers(uv: Tuple[BivariatePoly, BivariatePoly], n: int) -> AxialPolynomial:
    """(n-1)/2 lowering steps on each half of an (even, odd) pair.

    Annihilated input is a legitimate outcome and comes back as the
    zero polynomial, not an error.
    """
    require_odd_dimension(n)
    u, v = uv
    steps = (n - 1) // 2
    for _ in range(steps):
        u = radial_lower_even(u)
        v = radial_lower_odd(v)
    return AxialPolynomial._trusted(u, v, n)


def vekua_residual(F: AxialPolynomial) -> Tuple[BivariatePoly, BivariatePoly]:
    """The pair whose joint vanishing makes A + omega B monogenic.

    Returns (d_x0 A - d_r B - (n-1) B/r, d_x0 B + d_r A).  The division
    B/r is exact because B is odd in r, so both components are honest
    polynomials and "zero" is decidable.

    Both parts come from one pass over the integer numerators, brought
    to L = lcm(den A, den B): a term a x0^i r^j of A adds i a to
    (i-1, j) of the first part and j a to (i, j-1) of the second; a term
    b x0^i r^j of B adds -(j+n-1) b to (i, j-1) of the first and i b to
    (i-1, j) of the second.  Each part is then its nonzero totals over
    L, so a monogenic F builds no coefficient at all.
    """
    n = F.n
    L = math.lcm(F.A._den, F.B._den)
    first: dict = {}
    second: dict = {}
    scale = L // F.A._den
    for (i, j), t in F.A._num.items():
        a = t * scale
        if i:
            key = (i - 1, j)
            first[key] = first.get(key, 0) + i * a
        if j:
            key = (i, j - 1)
            second[key] = second.get(key, 0) + j * a
    scale = L // F.B._den
    for (i, j), t in F.B._num.items():
        b = t * scale
        key = (i, j - 1)
        first[key] = first.get(key, 0) - (j + n - 1) * b
        if i:
            key = (i - 1, j)
            second[key] = second.get(key, 0) + i * b
    return _over(first, L), _over(second, L)


def _over(numerators: dict, L: int) -> BivariatePoly:
    """The polynomial with coefficients t / L, leaving out every t that is 0."""
    return BivariatePoly._trusted({key: t for key, t in numerators.items() if t}, L)


def evaluate(F: AxialPolynomial, x: Paravector, mode: str = "exact") -> Multivector:
    """Value of A + omega B at a paravector point, as a multivector.

    Exact mode needs int or Fraction coordinates (TypeError otherwise)
    and never materializes |x|: A is evaluated through r^2 and omega B
    = x * C(x0, r^2) with B = r C, C read straight off the exponents of
    B.  Each part is summed in integers over one common denominator and
    reduced to a Fraction once.  Float mode goes the naive way through
    math.sqrt, which doubles as an independent numeric cross-check of
    the exact route.  x with zero vector part is fine in both modes
    since B is odd in r.
    """
    if x.n != F.n:
        raise ValueError("point dimension %d does not match polynomial dimension %d" % (x.n, F.n))
    if mode == "exact":
        if not all(isinstance(c, Rational) for c in (x.x0,) + x.vec):
            raise TypeError("exact evaluate needs int or Fraction coordinates, got %r" % (x,))
        r_sq = x.vector_norm_sq()
        coeffs = {0: _even_sum(F.A, x.x0, r_sq)}
        if not F.B.is_zero and r_sq:
            c_val = _even_sum(F.B, x.x0, r_sq)
            for idx, comp in enumerate(x.vec):
                if comp:
                    coeffs[1 << idx] = comp * c_val
        return Multivector(F.n, coeffs)
    if mode == "float":
        r = math.sqrt(float(x.vector_norm_sq()))
        x0 = float(x.x0)
        scalar = float(F.A.evaluate(x0, r))
        coeffs = {0: scalar}
        if r:
            b_val = float(F.B.evaluate(x0, r))
            for idx, comp in enumerate(x.vec):
                unit = float(comp) / r
                if unit * b_val:
                    coeffs[1 << idx] = unit * b_val
        return Multivector(F.n, coeffs)
    raise ValueError("mode must be 'exact' or 'float', got %r" % (mode,))


def _even_sum(p: BivariatePoly, x0, r_sq) -> Fraction:
    """Sum of c x0^i (r^2)^(j // 2) over the terms of p, at rational x0 and r^2.

    For A (even in r) this is A(x0, r); for B (odd in r) it is B/r.
    With x0 = a/b, r^2 = u/v and D, M the largest exponents, every
    numerator of p times b^D v^M is an integer at the point: the sum is
    accumulated in integers, grouped by r-exponent so each term costs
    one big multiply, and reduced to a Fraction once at the end.
    """
    num = p._num
    a, b = x0.numerator, x0.denominator
    u, v = r_sq.numerator, r_sq.denominator
    D = max((i for i, _ in num), default=0)
    M = max((j for _, j in num), default=0) >> 1
    x_pows = [a**i * b ** (D - i) for i in range(D + 1)]
    r_pows = [u**m * v ** (M - m) for m in range(M + 1)]
    by_m: dict = {}
    for (i, j), t in num.items():
        m = j >> 1
        by_m[m] = by_m.get(m, 0) + t * x_pows[i]
    total = sum(s * r_pows[m] for m, s in by_m.items())
    return Fraction(total, p._den * b**D * v**M)


def format_rational(c) -> str:
    """Exact coefficients as p/q (or a bare integer); floats via repr."""
    if isinstance(c, float):
        return repr(c)
    frac = Fraction(c)
    if frac.denominator == 1:
        return str(frac.numerator)
    return "%d/%d" % (frac.numerator, frac.denominator)


def _monomial_text(coeff, i: int, j: int, omega_part: bool) -> str:
    pieces = []
    if i:
        pieces.append("x0" if i == 1 else "x0^%d" % i)
    if j:
        pieces.append("r" if j == 1 else "r^%d" % j)
    if omega_part:
        pieces.append("w")
    mag = format_rational(abs(coeff))
    if not pieces:
        return mag
    if mag != "1":
        pieces.insert(0, mag)
    return " ".join(pieces)


def text_form(F: AxialPolynomial) -> str:
    """Canonical one-line rendering, e.g. "x0 + 1/3 r w".

    All terms of both parts are merged and sorted by x0-degree, then
    r-degree, descending; omega shows up as a trailing w.  The parity
    invariants guarantee the sort key never collides across parts.
    """
    entries = []
    for (i, j), c in F.A.terms():
        entries.append((i, j, c, False))
    for (i, j), c in F.B.terms():
        entries.append((i, j, c, True))
    if not entries:
        return "0"
    entries.sort(key=lambda e: (-e[0], -e[1]))
    out = ""
    for pos, (i, j, c, omega_part) in enumerate(entries):
        body = _monomial_text(c, i, j, omega_part)
        negative = c < 0
        if pos == 0:
            out = ("-" + body) if negative else body
        else:
            out += (" - " if negative else " + ") + body
    return out
