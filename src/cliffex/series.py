"""Power series with rational coefficients and their two extensions.

A series here is a generator of exact Taylor coefficients a_k.  The
module builds the Appell extension sum a_k P_k^n, decides through the
recurrence a_(k+n-1) = gamma k!/(k+n-1)! a_k whether the Fueter-Sce
and Appell extensions agree, solves that recurrence in closed form,
evaluates the equivalent generalized hypergeometric representation,
and compares the two extensions coefficient by coefficient.

The closed forms are implemented in corrected shape: the denominator
of the explicit solution is (l(n-1)+r)!, not the printed
((l+1)(n-1)+r)!, which already fails to reproduce the initial
conditions at l = 0.  The uncorrected variant is kept alongside
(solve_recurrence_shifted) so the disagreement can be demonstrated
rather than asserted, and direct iteration of the recurrence serves as
the independent oracle throughout.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import fueter
from .appell import appell_combination
from .axial import AxialPolynomial, format_rational
from .exact import factorial, pochhammer, require_nonnegative, require_odd_dimension
from .fueter import default_alpha

DEFAULT_K = 40
DEFAULT_TOLERANCE = 1e-12
DEFAULT_L_MAX = 200


class ConvergenceError(Exception):
    """Adaptive summation ran out of terms before reaching tolerance."""


@dataclass(frozen=True)
class SeriesSpec:
    """A formal power series given by an exact coefficient generator.

    The generator must be deterministic and side-effect free.  All
    identity-level work is formal, so no radius of convergence is kept.
    """

    name: str
    generator: Callable[[int], Fraction]

    def coeff(self, k: int) -> Fraction:
        require_nonnegative("coefficient index", k)
        return Fraction(self.generator(k))


def _exp_coeff(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def _sinh_coeff(k: int) -> Fraction:
    return Fraction(1, factorial(k)) if k % 2 else Fraction(0)


def _cosh_coeff(k: int) -> Fraction:
    return Fraction(0) if k % 2 else Fraction(1, factorial(k))


EXP = SeriesSpec("exp", _exp_coeff)
SINH = SeriesSpec("sinh", _sinh_coeff)
COSH = SeriesSpec("cosh", _cosh_coeff)
GEOMETRIC = SeriesSpec("geometric", lambda k: Fraction(1))

BUILTIN_SERIES = {
    "exp": EXP,
    "sinh": SINH,
    "cosh": COSH,
    "geometric": GEOMETRIC,
}


def monomial(m: int) -> SeriesSpec:
    """The single-term series z^m."""
    require_nonnegative("monomial degree", m)
    return SeriesSpec("z^%d" % m, lambda k: Fraction(1) if k == m else Fraction(0))


def from_coefficients(name: str, coeffs: Sequence) -> SeriesSpec:
    """A finite coefficient list, zero beyond its end."""
    values = tuple(Fraction(c) for c in coeffs)
    return SeriesSpec(name, lambda k: values[k] if k < len(values) else Fraction(0))


def get_series(name: str) -> SeriesSpec:
    """Look up a built-in series; z^m spellings give monomials."""
    if name in BUILTIN_SERIES:
        return BUILTIN_SERIES[name]
    if name.startswith("z^"):
        try:
            return monomial(int(name[2:]))
        except ValueError:
            pass
    raise ValueError(
        "unknown series %r; built-ins are %s and z^m"
        % (name, ", ".join(sorted(BUILTIN_SERIES)))
    )


@dataclass(frozen=True)
class TruncatedExtension:
    """sum_{k <= K} a_k P_k^n, both as a coefficient list and summed out."""

    series: str
    n: int
    coefficients: Tuple[Tuple[int, Fraction], ...]
    polynomial: AxialPolynomial


def appell_extension(n: int, f: SeriesSpec, K: int) -> TruncatedExtension:
    """Truncation of the Appell extension of f at degree K.

    Built by appell.appell_combination as one direct O(K^2) sum of
    a_k C(k,s) c_n^s x0^(k-s) x^s over 0 <= s <= k <= K; no P_k is
    built.
    """
    require_odd_dimension(n)
    require_nonnegative("K", K)
    coeffs = tuple((k, f.coeff(k)) for k in range(K + 1))
    total = appell_combination(n, [a for _, a in coeffs])
    return TruncatedExtension(f.name, n, coeffs, total)


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of the recurrence test a_(k+n-1) = gamma k!/(k+n-1)! a_k.

    gamma is inferred from the first pair whose lower coefficient is
    nonzero.  If every examined a_k vanishes the relation holds
    vacuously and gamma stays None with the unconstrained flag set.
    first_violation carries (k, lhs, rhs) where lhs is the actual
    a_(k+n-1) and rhs the value the relation demands.
    """

    series: str
    n: int
    holds: bool
    gamma: Optional[Fraction]
    gamma_unconstrained: bool
    first_violation: Optional[Tuple[int, Fraction, Fraction]]
    checked_up_to: int


def _violation_dict(violation):
    if violation is None:
        return None
    k, lhs, rhs = violation
    return {"k": k, "lhs": format_rational(lhs), "rhs": format_rational(rhs)}


def recurrence_check(n: int, f: SeriesSpec, K: int) -> RecurrenceReport:
    """Test the recurrence exactly on all index pairs (k, k+n-1), k <= K-(n-1)."""
    require_odd_dimension(n)
    step = n - 1
    if K < step:
        raise ValueError("K must be at least n-1 = %d, got %r" % (step, K))
    gamma: Optional[Fraction] = None
    for k in range(K - step + 1):
        low = f.coeff(k)
        high = f.coeff(k + step)
        if low == 0:
            if high != 0:
                return RecurrenceReport(
                    f.name, n, False, gamma, False, (k, high, Fraction(0)), K
                )
            continue
        # (k+step)!/k! as one integer product: no gcd of two factorials
        rise = math.prod(range(k + 1, k + step + 1))
        if gamma is None:
            gamma = high * rise / low
            continue
        expected = gamma * low / rise
        if high != expected:
            return RecurrenceReport(
                f.name, n, False, gamma, False, (k, high, expected), K
            )
    return RecurrenceReport(f.name, n, True, gamma, gamma is None, None, K)


@dataclass(frozen=True)
class ClassParameters:
    """Data determining one member of the recurrence class.

    n-1 initial coefficients a_0 .. a_(n-2) plus the constant gamma fix
    the whole series.
    """

    n: int
    gamma: Fraction
    initial: Tuple[Fraction, ...]

    def __post_init__(self):
        require_odd_dimension(self.n)
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        initial = tuple(Fraction(a) for a in self.initial)
        if len(initial) != self.n - 1:
            raise ValueError(
                "need exactly n-1 = %d initial coefficients, got %d"
                % (self.n - 1, len(initial))
            )
        object.__setattr__(self, "initial", initial)


def exp_params(n: int) -> ClassParameters:
    """The parameters whose solution is the exponential series."""
    require_odd_dimension(n)
    return ClassParameters(
        n, Fraction(1), tuple(Fraction(1, factorial(r)) for r in range(n - 1))
    )


def solve_recurrence(params: ClassParameters, M: int) -> list:
    """Closed-form coefficients a_0 .. a_M.

    Writing m = l(n-1) + r with 0 <= r <= n-2, the solution is
    a_m = gamma^l r! a_r / m!.  l = 0 returns the initial coefficients
    untouched.
    """
    require_nonnegative("M", M)
    out = []
    for m in range(M + 1):
        l, r = divmod(m, params.n - 1)
        out.append(
            params.gamma**l * Fraction(factorial(r), factorial(m)) * params.initial[r]
        )
    return out


def iterate_recurrence(params: ClassParameters, M: int) -> list:
    """Brute-force oracle: step the recurrence itself, no closed form."""
    require_nonnegative("M", M)
    step = params.n - 1
    coeffs = [Fraction(0)] * (M + 1)
    for r in range(min(step, M + 1)):
        coeffs[r] = params.initial[r]
    for k in range(M + 1 - step):
        coeffs[k + step] = (
            params.gamma * coeffs[k] / math.prod(range(k + 1, k + step + 1))
        )
    return coeffs


def solve_recurrence_shifted(params: ClassParameters, M: int) -> list:
    """The uncorrected printed variant, kept for the disagreement demo.

    Denominator ((l+1)(n-1)+r)! instead of (l(n-1)+r)!.  Read so that
    l = 0 still returns the initial coefficients (the only reading that
    is not self-contradictory), it already deviates from the true
    solution at l = 1 whenever gamma and the initials allow a nonzero
    value there.
    """
    require_nonnegative("M", M)
    n = params.n
    out = []
    for m in range(M + 1):
        l, r = divmod(m, n - 1)
        if l == 0:
            out.append(params.initial[r])
            continue
        out.append(
            params.gamma**l
            * Fraction(factorial(r), factorial((l + 1) * (n - 1) + r))
            * params.initial[r]
        )
    return out


def _hyper_cap(l_max: Optional[int]) -> int:
    if l_max is not None:
        require_nonnegative("l_max", l_max)
        return l_max
    env = os.environ.get("CLIFFEX_LMAX")
    if env is None:
        return DEFAULT_L_MAX
    try:
        cap = int(env)
    except ValueError:
        raise ValueError("CLIFFEX_LMAX must be an integer, got %r" % (env,))
    if cap < 0:
        raise ValueError("CLIFFEX_LMAX must be nonnegative, got %r" % (env,))
    return cap


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be a finite number > 0, got %r" % (tolerance,))


def _check_lower_parameters(lower) -> None:
    for b in lower:
        frac = Fraction(b)
        if frac.denominator == 1 and frac <= 0:
            raise ValueError("lower parameter %s is a nonpositive integer" % (b,))


def hypergeometric_1f(
    upper,
    lower,
    argument,
    tolerance: float = DEFAULT_TOLERANCE,
    terms: Optional[int] = None,
    l_max: Optional[int] = None,
):
    """1F_q(upper; lower; argument) by direct summation.

    With terms=L the partial sum through l = L is returned, staying
    exact when all inputs are exact.  Otherwise the sum runs until the
    next term drops below tolerance/10, capped at l_max (default 200,
    overridable through the CLIFFEX_LMAX environment variable), and
    raises ConvergenceError at the cap, or ValueError if the partial
    sum has left the float range (an argument too large for floats).
    """
    _check_lower_parameters(lower)
    if terms is not None:
        require_nonnegative("terms", terms)
        total = 0
        term = 1
        for l in range(terms + 1):
            total = total + term
            term = term * (upper + l) * argument
            for b in lower:
                term = term / (b + l)
            term = term / (l + 1)
        return total
    _check_tolerance(tolerance)
    cap = _hyper_cap(l_max)
    up = float(upper)
    lows = [float(b) for b in lower]
    arg = float(argument)
    total = 0.0
    term = 1.0
    for l in range(cap + 1):
        total += term
        term = term * (up + l) * arg / (l + 1)
        for b in lows:
            term /= b + l
        if abs(term) < tolerance / 10.0:
            return total + term
    if not math.isfinite(total + term):
        raise ValueError(
            "the 1F_%d sum overflows the float range at argument %g" % (len(lows), arg)
        )
    raise ConvergenceError(
        "term magnitude still %g after %d terms (tolerance %g)"
        % (abs(term), cap, tolerance)
    )


def closed_form_coefficient(params: ClassParameters, m: int) -> Fraction:
    """Coefficient of z^m in the hypergeometric representation, exactly.

    Goes through the Pochhammer products of the lower parameters
    (r+1)/(n-1) .. (r+n-1)/(n-1) rather than the factorial ratio, so it
    is an independent route to the same number as solve_recurrence.
    The weight a_r gamma^l (1)_l / (prod_s ((r+s)/(n-1))_l l!
    (n-1)^(l(n-1))) is multiplied out as one integer numerator and one
    integer denominator and reduced once.
    """
    require_nonnegative("m", m)
    n = params.n
    l, r = divmod(m, n - 1)
    a_r, gamma = params.initial[r], params.gamma
    rising = pochhammer(1, l)
    num = a_r.numerator * gamma.numerator**l * rising.numerator
    den = a_r.denominator * gamma.denominator**l * rising.denominator
    den *= factorial(l) * (n - 1) ** (l * (n - 1))
    for s in range(1, n):
        lower = pochhammer(Fraction(r + s, n - 1), l)
        num *= lower.denominator
        den *= lower.numerator
    return Fraction(num, den)


def closed_form_eval(
    params: ClassParameters,
    z,
    tolerance: float = DEFAULT_TOLERANCE,
    l_max: Optional[int] = None,
):
    """Value of the hypergeometric representation at the point z.

    f(z) = sum_{r=0}^{n-2} a_r z^r 1F_{n-1}(1; (r+1)/(n-1), ...,
    (r+n-1)/(n-1); gamma z^(n-1)/(n-1)^(n-1)).  z = 0 short-circuits to
    the exact a_0; other points are summed in floating point.  A z whose
    1F argument is beyond the float range raises ValueError before any
    summing.
    """
    _check_tolerance(tolerance)
    n = params.n
    if z == 0:
        return params.initial[0]
    argument = float(params.gamma) * float(z) ** (n - 1) / float(n - 1) ** (n - 1)
    if not math.isfinite(argument):
        raise ValueError("z = %s is beyond the float range: the 1F argument overflows" % (z,))
    total = 0.0
    for r in range(n - 1):
        lower = [Fraction(r + s, n - 1) for s in range(1, n)]
        factor = hypergeometric_1f(
            Fraction(1), lower, argument, tolerance=tolerance, l_max=l_max
        )
        total += float(params.initial[r]) * float(z) ** r * factor
    return total


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    tau: Fraction
    eta: Fraction
    equal: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Coefficientwise comparison of the two extensions in the P^n basis.

    alpha records the normalization actually used: derived from the
    recurrence constant as (-1)^((n-1)/2)(n-2)!!/gamma when the
    recurrence holds with gamma nonzero, else the caller's choice, else
    the gamma = 1 default.
    """

    series: str
    n: int
    recurrence: RecurrenceReport
    alpha: Fraction
    rows: Tuple[ComparisonRow, ...]
    equal: bool
    first_difference: Optional[int]

    def to_json_dict(self) -> dict:
        rec = self.recurrence
        return {
            "series": self.series,
            "n": self.n,
            "holds": rec.holds,
            "gamma": None if rec.gamma is None else format_rational(rec.gamma),
            "first_violation": _violation_dict(rec.first_violation),
            "coefficients": [
                {
                    "k": row.k,
                    "tau": format_rational(row.tau),
                    "eta": format_rational(row.eta),
                    "equal": row.equal,
                }
                for row in self.rows
            ],
        }


def compare_extensions(
    n: int, f: SeriesSpec, K: int = DEFAULT_K, alpha: Optional[Fraction] = None
) -> ComparisonReport:
    """Compare tau_n[f] and eta_n[f] coefficient by coefficient, k <= K.

    The recurrence is checked up to K+n-1 so its index pairs cover
    exactly the compared range.  Equality of the two coefficient lists
    coincides with the recurrence holding whenever the inferred gamma
    is nonzero; gamma = 0 forces tau to vanish identically, so only the
    zero series is reproduced there.
    """
    require_odd_dimension(n)
    report = recurrence_check(n, f, K + n - 1)
    if report.holds and report.gamma:
        alpha_used = default_alpha(n) / report.gamma
    elif alpha is not None:
        alpha_used = Fraction(alpha)
    else:
        alpha_used = default_alpha(n)
    tau_coeffs = fueter.fueter_sce_series(n, f, alpha_used, K)
    rows = []
    first_difference = None
    for k, tau_k in tau_coeffs:
        eta_k = f.coeff(k)
        same = tau_k == eta_k
        if not same and first_difference is None:
            first_difference = k
        rows.append(ComparisonRow(k, tau_k, eta_k, same))
    return ComparisonReport(
        f.name,
        n,
        report,
        alpha_used,
        tuple(rows),
        first_difference is None,
        first_difference,
    )


@dataclass(frozen=True)
class ExpDecompositionReport:
    """Closed-form value against the direct exponential series."""

    n: int
    z: float
    value: float
    reference: float
    error: float
    tolerance: float
    passes: bool


def _exp_reference(z: float, tolerance: float) -> float:
    total = 0.0
    term = 1.0
    for k in range(1, 400):
        total += term
        term = term * z / k
        if abs(term) < tolerance / 10.0:
            return total + term
    raise ConvergenceError("exponential series did not converge at z = %r" % (z,))


def exp_decomposition_check(
    n: int, z, tolerance: float = DEFAULT_TOLERANCE
) -> ExpDecompositionReport:
    """Check that the hypergeometric pieces of exp recombine to exp(z).

    The reference value comes from direct summation of sum z^k/k!, not
    from the closed form under test.  At z = 0 closed_form_eval returns
    the exact initial coefficient 1, so the error is exactly zero.
    """
    value = closed_form_eval(exp_params(n), z, tolerance=tolerance)
    reference = _exp_reference(float(z), tolerance)
    error = abs(float(value) - reference)
    return ExpDecompositionReport(
        n, float(z), float(value), reference, error, tolerance, error <= tolerance
    )
