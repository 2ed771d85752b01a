"""Independent reference values the benchmark checks cliffex against.

Nothing here calls the code paths under test.  The restriction
constants come from their double-factorial formula, the Appell
extension is summed term by term from the binomial form, and the
recurrence test is re-implemented.  The closed-form reference sums the
Taylor coefficients that ``iterate_recurrence`` (the package's own
brute-force oracle, not the closed form) produces, and bounds the tail.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative size below which a tail bound no longer affects a float comparison.
TAIL_SHARE = Fraction(1, 2**80)
# Unit roundoff of a double.
EPS = Fraction(1, 2**53)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def restriction_constant(n: int, s: int) -> Fraction:
    """c_n^s: (s-1)!!(n-2)!!/(n+s-2)!! for even s, s!!(n-2)!!/(n+s-1)!! for odd s."""
    if s % 2 == 0:
        return Fraction(double_factorial(s - 1) * double_factorial(n - 2), double_factorial(n + s - 2))
    return Fraction(double_factorial(s) * double_factorial(n - 2), double_factorial(n + s - 1))


def builtin_coefficient(name: str, k: int) -> Fraction:
    if name == "exp":
        return Fraction(1, math.factorial(k))
    if name == "sinh":
        return Fraction(1, math.factorial(k)) if k % 2 else Fraction(0)
    if name == "cosh":
        return Fraction(0) if k % 2 else Fraction(1, math.factorial(k))
    if name == "geometric":
        return Fraction(1)
    raise KeyError(name)


def class_series(n: int, gamma: Fraction, initial, length: int) -> list:
    """First `length` coefficients of the recurrence-class member (gamma, initial)."""
    coeffs = list(initial) + [Fraction(0)] * max(0, length - len(initial))
    step = n - 1
    for k in range(length - step):
        coeffs[k + step] = gamma * Fraction(math.factorial(k), math.factorial(k + step)) * coeffs[k]
    return coeffs[:length]


def recurrence_holds(n: int, coeffs, K: int) -> bool:
    """a_(k+n-1) (k+n-1)!/k! = gamma a_k with one gamma, for all pairs with k+n-1 <= K+n-1.

    This is the condition under which ``verify_recurrence`` and
    ``compare_extensions`` at truncation K must report agreement: the
    recurrence holds with a nonzero gamma over the compared range.
    """
    step = n - 1
    gamma = None
    for k in range(K + 1):
        low, high = coeffs[k], coeffs[k + step]
        if low == 0:
            if high != 0:
                return False
            continue
        ratio = high * Fraction(math.factorial(k + step), math.factorial(k)) / low
        if gamma is None:
            gamma = ratio
        elif ratio != gamma:
            return False
    return bool(gamma)


def extension_value(n: int, coeffs, x0, vec, absolute: bool = False) -> tuple:
    """Exact sum_k a_k P_k^n(x) at x = x0 + vec, from the binomial form.

    P_k(x) = sum_s C(k,s) c_n^s x0^(k-s) v^s with v^(2p) = (-|v|^2)^p and
    v^(2p+1) = (-|v|^2)^p v.  Returns (scalar, V) with value scalar + V v.
    The inner sums run in integers: coordinates are scaled to a common
    denominator D and the constants c_n^s to a common denominator L.

    With ``absolute`` every term enters with its absolute value, which
    gives the condition of a float evaluation: the sums that rounding
    errors scale with are scalar for the scalar part and V |v_i| for the
    vector component v_i.
    """
    coords = [Fraction(x0)] + [Fraction(c) for c in vec]
    D = math.lcm(*(c.denominator for c in coords))
    X = coords[0].numerator * (D // coords[0].denominator)
    minus_R = -sum((c.numerator * (D // c.denominator)) ** 2 for c in coords[1:])
    if absolute:
        X, minus_R, coeffs = abs(X), -minus_R, [abs(a) for a in coeffs]
    K = len(coeffs) - 1
    constants = [restriction_constant(n, s) for s in range(K + 1)]
    L = math.lcm(*(c.denominator for c in constants))
    scaled = [c.numerator * (L // c.denominator) for c in constants]
    x_pow = [1]
    r_pow = [1]
    for _ in range(K):
        x_pow.append(x_pow[-1] * X)
        r_pow.append(r_pow[-1] * minus_R)
    scalar = Fraction(0)
    vector = Fraction(0)
    for k, a in enumerate(coeffs):
        if not a:
            continue
        even = odd = 0
        for s in range(k + 1):
            term = math.comb(k, s) * scaled[s] * x_pow[k - s] * r_pow[s // 2]
            if s % 2:
                odd += term
            else:
                even += term
        # x0^(k-s) (-r^2)^(s//2) carries D^k for even s and D^(k-1) for odd s
        scalar += a * Fraction(even, L * D**k)
        if odd:
            vector += a * Fraction(odd, L * D ** (k - 1))
    return scalar, vector


def relative_error(values, reference) -> Fraction:
    """max_i |values_i - reference_i| / max_i |reference_i|, exactly.

    Float values are converted exactly, and the reference is never
    rounded, so a correctly rounded float still reads as a small
    nonzero error unless the true value is a float itself.
    """
    scale = max(abs(r) for r in reference)
    worst = max(abs(Fraction(v) - r) for v, r in zip(values, reference))
    if not scale:
        return worst
    return worst / scale


def extension_rounding_bound(K: int) -> int:
    """Roundings that can reach one float component of a degree-K extension.

    ``evaluate(..., mode="float")`` sums at most (K+1)(K+2)/2 terms c x0^i r^j
    one after another; each term carries at most 1.5 K + 5 roundings (the
    coefficient, two powers, r = sqrt(|v|^2) raised to j <= K, two
    products, then the division by r and product with v_i).  Their sum is
    below (K+1)^2 for K >= 3.
    """
    return (K + 1) ** 2


def closed_form_rounding_bound(n: int) -> int:
    """Roundings that can reach ``closed_form_eval``'s float sum of 1F_(n-1) terms.

    Term l of one 1F_(n-1) is built by l steps of at most 4n + 2 roundings
    each (the argument's n + 2 included); at most 201 terms are summed
    (the default cap on l is 200), and the n - 1 outer products and sums
    add n + 5.
    """
    return (4 * n + 3) * 201 + n + 5


def error_excess(values, reference, bounds) -> float:
    """Largest |values_i - reference_i| / bounds_i: at most 1 when every error is within its bound."""
    worst = 0.0
    for v, r, b in zip(values, reference, bounds):
        error = abs(Fraction(v) - r)
        if error:
            worst = max(worst, float(error / b) if b else math.inf)
    return worst


def closed_form_reference(params, z: Fraction, iterate_recurrence) -> tuple:
    """(sum_m a_m z^m to relative accuracy TAIL_SHARE, sum_m |a_m z^m|).

    The second value is the condition of the float summation: rounding
    in the terms and the sum moves the result by a few units of it.

    For m = k + j(n-1) the recurrence gives |a_(k+n-1) z^(k+n-1)| =
    |gamma| |z|^(n-1) k!/(k+n-1)! |a_k z^k|, and k!/(k+n-1)! falls with
    k.  So once rho = |gamma| |z|^(n-1) (M+1)!/(M+n)! is at most 1/2,
    the tail past M is at most sum_{m=M+1}^{M+n-1} |a_m z^m| / (1 - rho).
    """
    n = params.n
    z = Fraction(z)
    M = 64
    while True:
        coeffs = iterate_recurrence(params, M + n - 1)
        partial = Fraction(0)
        condition = Fraction(0)
        power = Fraction(1)
        for m in range(M + 1):
            term = coeffs[m] * power
            partial += term
            condition += abs(term)
            power *= z
        rho = abs(params.gamma) * abs(z) ** (n - 1) * Fraction(math.factorial(M + 1), math.factorial(M + n))
        if rho <= Fraction(1, 2):
            block = Fraction(0)
            for m in range(M + 1, M + n):
                block += abs(coeffs[m] * power)
                power *= z
            tail = block / (1 - rho)
            if tail <= abs(partial) * TAIL_SHARE:
                return partial, condition + tail
        M *= 2
        if M > 1 << 14:
            raise ArithmeticError("closed-form reference did not settle at z = %s" % z)
