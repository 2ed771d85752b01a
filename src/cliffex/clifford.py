"""The Clifford algebra Cl(0,n) with paravector support.

Generators e_1, ..., e_n satisfy e_i e_j + e_j e_i = -2 delta_ij, so
every generator squares to -1.  A multivector is stored sparsely as a
map from blade bitmasks to coefficients; bit i-1 of the mask set means
the blade contains e_i.  Coefficients may be exact (int or Fraction) or
floats, per instantiation: float evaluation builds float multivectors,
and the exact mode is the one every identity check uses.

Values are immutable: all arithmetic returns fresh objects and there is
no global state, so multivectors can be shared freely across tasks.
"""

from __future__ import annotations

from typing import Iterable, Mapping

MAX_DIMENSION = 9  # dense 2^n blade storage; enough for every check here


def _blade_sign(a: int, b: int) -> int:
    """Sign of the product of basis blades a and b (bitmask encoding).

    Counts the transpositions needed to interleave the generators into
    canonical order, then one factor -1 for every shared generator
    (e_i^2 = -1).
    """
    swaps = 0
    aa = a >> 1
    while aa:
        swaps += (aa & b).bit_count()
        aa >>= 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return sign


def _blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


class Multivector:
    """Element of Cl(0,n): a sparse map blade-mask -> coefficient."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, object] | None = None):
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError("dimension must be in 1..%d, got %r" % (MAX_DIMENSION, n))
        self.n = n
        clean = {}
        if coeffs:
            for mask, c in coeffs.items():
                if not 0 <= mask < (1 << n):
                    raise ValueError("blade mask %r out of range for n=%d" % (mask, n))
                if c:
                    clean[mask] = c
        self._coeffs = clean

    @classmethod
    def scalar(cls, n: int, value) -> "Multivector":
        return cls(n, {0: value})

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "Multivector":
        """e_i for 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError("generator index %r out of range for n=%d" % (i, n))
        return cls(n, {1 << (i - 1): 1})

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, {})

    def coefficient(self, mask: int):
        return self._coeffs.get(mask, 0)

    def items(self):
        return self._coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def scalar_part(self):
        return self._coeffs.get(0, 0)

    def vector_part(self) -> tuple:
        return tuple(self._coeffs.get(1 << i, 0) for i in range(self.n))

    def max_grade(self) -> int:
        return max((m.bit_count() for m in self._coeffs), default=0)

    def _check_dim(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch: %d vs %d" % (self.n, other.n))

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._coeffs)
        for mask, c in other._coeffs.items():
            out[mask] = out.get(mask, 0) + c
        return Multivector(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector(self.n, {m: -c for m, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_dim(other)
            out: dict[int, object] = {}
            for ma, ca in self._coeffs.items():
                for mb, cb in other._coeffs.items():
                    mask = ma ^ mb
                    term = _blade_sign(ma, mb) * ca * cb
                    out[mask] = out.get(mask, 0) + term
            return Multivector(self.n, out)
        return Multivector(self.n, {m: c * other for m, c in self._coeffs.items()})

    def __rmul__(self, other):
        # scalars only; multivector*multivector is handled by __mul__
        return Multivector(self.n, {m: other * c for m, c in self._coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self._coeffs.items())))

    def __repr__(self):
        return "Multivector(%d, %r)" % (self.n, self._coeffs)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for mask in sorted(self._coeffs, key=lambda m: (m.bit_count(), m)):
            c = self._coeffs[mask]
            name = _blade_name(mask)
            if mask == 0:
                parts.append(_fmt_coeff(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s %s" % (_fmt_coeff(c), name))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _fmt_coeff(c) -> str:
    if isinstance(c, float):
        return repr(c)
    return str(c)


class Paravector:
    """x = x0 + x1 e_1 + ... + xn e_n, a point of R^(n+1) inside Cl(0,n)."""

    __slots__ = ("x0", "vec")

    def __init__(self, x0, vec: Iterable):
        self.x0 = x0
        self.vec = tuple(vec)
        if not 1 <= len(self.vec) <= MAX_DIMENSION:
            raise ValueError("vector part must have 1..%d components" % MAX_DIMENSION)

    @property
    def n(self) -> int:
        return len(self.vec)

    def to_multivector(self) -> Multivector:
        coeffs = {0: self.x0}
        for i, c in enumerate(self.vec):
            coeffs[1 << i] = c
        return Multivector(self.n, coeffs)

    def vector_norm_sq(self):
        return sum(c * c for c in self.vec)

    def __eq__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.x0 == other.x0 and self.vec == other.vec

    def __hash__(self):
        return hash((self.x0, self.vec))

    def __repr__(self):
        return "Paravector(%r, %r)" % (self.x0, self.vec)


def paravector_power(x: Paravector, k: int) -> Multivector:
    """k-fold geometric product of a paravector with itself.

    The result always lies in span{1, x}: x^2 = (x0^2 - |x|^2) + 2 x0 x
    and induction keeps later powers in the same plane.
    """
    if k < 0:
        raise ValueError("power requires k >= 0, got %r" % (k,))
    out = Multivector.scalar(x.n, 1)
    mv = x.to_multivector()
    for _ in range(k):
        out = out * mv
    return out
