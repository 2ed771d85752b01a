"""Radial operators, the Vekua residual, and axial evaluation."""

import math
import random
from fractions import Fraction

import pytest

from cliffex.axial import (
    AxialPolynomial,
    BivariatePoly,
    apply_radial_powers,
    evaluate,
    format_rational,
    radial_lower_even,
    radial_lower_odd,
    text_form,
    vekua_residual,
)
from cliffex.appell import appell_sequence
from cliffex.clifford import Paravector
from cliffex.fueter import fueter_sce_monomial


def poly(terms):
    return BivariatePoly(terms)


def constant(value, n=3):
    return AxialPolynomial(poly({(0, 0): value}), BivariatePoly.zero(), n)


def test_radial_lower_even_examples():
    assert radial_lower_even(poly({(0, 4): 1})) == poly({(0, 2): 4})
    assert radial_lower_even(poly({(2, 0): 1})).is_zero
    assert radial_lower_even(poly({(0, 2): 1, (1, 2): -3})) == poly({(0, 0): 2, (1, 0): -6})


def test_radial_lower_even_rejects_odd_degree():
    with pytest.raises(ValueError):
        radial_lower_even(poly({(0, 3): 1}))


def test_radial_lower_odd_examples():
    assert radial_lower_odd(poly({(0, 3): 1})) == poly({(0, 1): 2})
    assert radial_lower_odd(poly({(0, 1): 1})).is_zero
    assert radial_lower_odd(poly({(1, 5): 1})) == poly({(1, 3): 4})


def test_radial_lower_odd_rejects_even_degree():
    with pytest.raises(ValueError):
        radial_lower_odd(poly({(0, 2): 1}))


def test_apply_radial_powers_n3():
    F = apply_radial_powers((poly({(0, 2): 1}), BivariatePoly.zero()), 3)
    assert F.A == poly({(0, 0): 2})
    assert F.B.is_zero
    G = apply_radial_powers((BivariatePoly.zero(), poly({(0, 3): 1})), 3)
    assert G.A.is_zero
    assert G.B == poly({(0, 1): 2})


def test_apply_radial_powers_annihilates_low_degrees():
    F = apply_radial_powers((poly({(0, 2): 1}), poly({(0, 1): 1})), 5)
    assert F.is_zero


def test_apply_radial_powers_rejects_even_n():
    with pytest.raises(ValueError):
        apply_radial_powers((BivariatePoly.zero(), BivariatePoly.zero()), 4)


def test_apply_radial_powers_preserves_parity_on_random_input():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((3, 5, 7))
        u = poly(
            {
                (rng.randrange(4), 2 * rng.randrange(6)): Fraction(rng.randrange(-4, 5))
                for _ in range(4)
            }
        )
        v = poly(
            {
                (rng.randrange(4), 2 * rng.randrange(6) + 1): Fraction(rng.randrange(-4, 5))
                for _ in range(4)
            }
        )
        F = apply_radial_powers((u, v), n)
        assert F.A.is_even_in_r()
        assert F.B.is_odd_in_r()


def test_parity_invariants_enforced_by_constructor():
    with pytest.raises(ValueError):
        AxialPolynomial(poly({(0, 1): 1}), BivariatePoly.zero(), 3)
    with pytest.raises(ValueError):
        AxialPolynomial(BivariatePoly.zero(), poly({(0, 2): 1}), 3)


def test_public_constructor_checks_every_term_and_trusted_results_agree():
    a, b = poly({(2, 0): 1, (0, 2): Fraction(1, 3)}), poly({(1, 1): 2, (0, 3): -1})
    with pytest.raises(ValueError, match="scalar part has a term with odd r-degree"):
        AxialPolynomial(poly({(2, 0): 1, (0, 2): 1, (1, 1): 1}), b, 3)
    with pytest.raises(ValueError, match="omega part has a term with even r-degree"):
        AxialPolynomial(a, poly({(1, 1): 1, (0, 3): 1, (2, 2): 1}), 5)
    with pytest.raises(ValueError, match="n must be odd"):
        AxialPolynomial(a, b, 4)
    G = AxialPolynomial(a, b, 3)
    trusted = [G + G, -G, G - G, G * Fraction(2, 3), Fraction(-2, 3) * G, G * 0, G * True,
               G.diff_x0(), apply_radial_powers((a, b), 3)]
    for H in trusted:
        assert H == AxialPolynomial(H.A, H.B, H.n)
    # polynomials scale by int or Fraction only: a polynomial factor is not a scalar
    for build in (lambda: G * poly({(0, 1): 1}), lambda: a * poly({(0, 2): 1})):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            build()
    # scaling by zero stores no zero coefficient
    assert (poly({(1, 0): 3}) * 0).is_zero and (Fraction(0) * poly({(1, 0): 3})).is_zero
    assert 2 * poly({(1, 0): Fraction(1, 2)}) == poly({(1, 0): 1})


def test_vekua_residual_of_constants():
    F = constant(1)
    first, second = vekua_residual(F)
    assert first.is_zero and second.is_zero


def test_vekua_residual_of_degree_one_appell():
    # x0 + (1/3) r w: 1 - 1/3 - 2 * (1/3) = 0
    F = AxialPolynomial(poly({(1, 0): 1}), poly({(0, 1): Fraction(1, 3)}), 3)
    first, second = vekua_residual(F)
    assert first.is_zero and second.is_zero


def test_vekua_residual_flags_the_naive_z_analogue():
    # x0 + r w is NOT monogenic for n = 3: the residual is the constant -2
    F = AxialPolynomial(poly({(1, 0): 1}), poly({(0, 1): 1}), 3)
    first, second = vekua_residual(F)
    assert first == poly({(0, 0): -2})
    assert second.is_zero


def test_evaluate_at_one_and_at_e1():
    F = AxialPolynomial(poly({(1, 0): 1}), poly({(0, 1): Fraction(1, 3)}), 3)
    at_one = evaluate(F, Paravector(1, (0, 0, 0)))
    assert at_one.scalar_part() == 1 and at_one.vector_part() == (0, 0, 0)
    at_e1 = evaluate(F, Paravector(0, (1, 0, 0)))
    assert at_e1.scalar_part() == 0
    assert at_e1.vector_part() == (Fraction(1, 3), 0, 0)


def test_evaluate_even_part_squared_radius():
    F = AxialPolynomial(poly({(0, 2): 1}), BivariatePoly.zero(), 3)
    value = evaluate(F, Paravector(0.0, (1.0, 1.0, 0.0)), mode="float")
    assert abs(value.scalar_part() - 2.0) < 1e-15


def test_evaluate_exact_matches_float_on_random_points():
    rng = random.Random(31)
    F = AxialPolynomial(
        poly({(2, 0): Fraction(1), (0, 2): Fraction(-1, 3), (1, 2): Fraction(2, 7)}),
        poly({(1, 1): Fraction(2, 3), (0, 3): Fraction(-1, 5)}),
        3,
    )
    for _ in range(30):
        x = Paravector(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3)),
        )
        exact = evaluate(F, x, mode="exact")
        approx = evaluate(F, x, mode="float")
        for mask in range(8):
            e = float(exact.coefficient(mask))
            a = float(approx.coefficient(mask))
            assert abs(e - a) <= 1e-12 * max(1.0, abs(e))


def test_evaluate_handles_zero_vector_part():
    F = AxialPolynomial(poly({(1, 0): 1}), poly({(0, 1): 1}), 3)
    value = evaluate(F, Paravector(Fraction(5), (0, 0, 0)))
    assert value.scalar_part() == 5
    assert value.vector_part() == (0, 0, 0)
    value_f = evaluate(F, Paravector(5.0, (0.0, 0.0, 0.0)), mode="float")
    assert value_f.scalar_part() == 5.0


def test_evaluate_rejects_bad_mode_and_dimension():
    F = constant(1)
    with pytest.raises(ValueError):
        evaluate(F, Paravector(0, (1, 0, 0)), mode="symbolic")
    with pytest.raises(ValueError):
        evaluate(F, Paravector(0, (1, 0, 0, 0, 0)))


def test_text_form_ordering_and_signs():
    F = AxialPolynomial(
        poly({(2, 0): 1, (0, 2): Fraction(-1, 3)}),
        poly({(1, 1): Fraction(2, 3)}),
        3,
    )
    assert text_form(F) == "x0^2 + 2/3 x0 r w - 1/3 r^2"
    assert text_form(AxialPolynomial.zero(3)) == "0"
    assert text_form(constant(Fraction(-5, 2))) == "-5/2"


def test_text_form_unit_coefficients():
    F = AxialPolynomial(poly({(1, 0): 1}), poly({(0, 1): -1}), 3)
    assert text_form(F) == "x0 - r w"


def test_format_rational():
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0.5) == "0.5"


def test_divide_r_requires_divisibility():
    with pytest.raises(ValueError):
        poly({(0, 0): 1}).divide_r()
    assert poly({(1, 3): 6}).divide_r() == poly({(1, 2): 6})


def substituted(F, x):
    """Term-by-term Fraction substitution: (scalar, vector) of A + omega B at x."""
    x0 = Fraction(x.x0)
    r_sq = sum(Fraction(c) ** 2 for c in x.vec)
    scalar = sum((c * x0**i * r_sq ** (j // 2) for (i, j), c in F.A.terms()), Fraction(0))
    c_val = sum((c * x0**i * r_sq ** ((j - 1) // 2) for (i, j), c in F.B.terms()), Fraction(0))
    return scalar, tuple(Fraction(c) * c_val for c in x.vec)


def random_axial(rng, n, degree):
    a_terms, b_terms = {}, {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.7:
                target = b_terms if j % 2 else a_terms
                target[(i, j)] = Fraction(rng.randrange(-20, 21), rng.randrange(1, 30))
    return AxialPolynomial(poly(a_terms), poly(b_terms), n)


def test_evaluate_exact_matches_term_by_term_substitution():
    rng = random.Random(47)
    points = [
        Paravector(Fraction(0), (Fraction(3, 2), Fraction(-1, 3), Fraction(2))),
        Paravector(Fraction(-7, 3), (0, 0, 0)),
        Paravector(0, (0, 0, 0)),
        Paravector(Fraction(-5, 4), (Fraction(-2, 7), Fraction(9, 5), Fraction(-1))),
        Paravector(-3, (2, -1, 4)),
    ]
    for _ in range(20):
        points.append(Paravector(
            Fraction(rng.randrange(-40, 41), rng.randrange(1, 12)),
            tuple(Fraction(rng.randrange(-40, 41), rng.randrange(1, 12)) for _ in range(3)),
        ))
    polys = [random_axial(rng, 3, d) for d in (1, 4, 9, 17)]
    polys.append(AxialPolynomial(random_axial(rng, 3, 8).A, BivariatePoly.zero(), 3))
    polys.append(constant(Fraction(-5, 3)))
    polys.append(AxialPolynomial.zero(3))
    for F in polys:
        for x in points:
            value = evaluate(F, x)
            scalar, vector = substituted(F, x)
            assert value.scalar_part() == scalar
            assert value.vector_part() == vector
            assert value.max_grade() <= 1


def test_evaluate_exact_rejects_float_points():
    F = AxialPolynomial(poly({(1, 2): Fraction(1, 2)}), poly({(0, 1): 2}), 3)
    for x in (Paravector(2.0, (1, 0, 0)), Paravector(2, (1, 0.0, 0)), Paravector(0.0, (0, 0, 0))):
        with pytest.raises(TypeError, match="exact evaluate needs int or Fraction coordinates"):
            evaluate(F, x)
    # the float route takes the same point
    value = evaluate(F, Paravector(2.0, (1.0, 0.0, 0.0)), mode="float")
    assert value.scalar_part() == 1.0
    assert value.vector_part() == (2.0, 0, 0)


def test_coefficients_that_are_not_rational_are_rejected():
    G = poly({(2, 0): 1, (0, 2): Fraction(-1, 3)})
    F = AxialPolynomial(G, poly({(1, 1): 2}), 3)
    for build in (
        lambda: poly({(1, 0): 0.5}),
        lambda: poly({(1, 0): 1, (0, 2): 1e-200}),
        lambda: poly({(0, 0): 0.0}),
        lambda: constant(0.5),
        lambda: G * 0.5,
        lambda: 0.5 * G,
        lambda: F * 0.25,
        lambda: 0.25 * F,
        lambda: G * "2",
    ):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            build()
    # zero scalars of either kind give the zero polynomial
    for zero in (0, Fraction(0), False):
        assert (G * zero).is_zero and (zero * G).is_zero and (F * zero).is_zero
    # bool, int and Fraction scalars scale exactly
    assert G * True == G and 2 * G == G + G and F * -1 == -F
    half = F * Fraction(1, 2)
    value = evaluate(half, Paravector(1, (Fraction(1, 2), 0, 0)))
    assert value.scalar_part() == Fraction(11, 24)
    assert value.vector_part() == (Fraction(1, 2), 0, 0)
    assert evaluate(half, Paravector(1, (0, 0, 0))).scalar_part() == Fraction(1, 2)


def test_sums_that_cancel_leave_no_zero_terms():
    p = poly({(0, 0): 1, (2, 1): Fraction(1, 3)})
    q = poly({(2, 1): Fraction(-1, 3), (1, 0): 2})
    assert list((p + q).terms()) == [((0, 0), 1), ((1, 0), 2)]
    assert (p - p).is_zero
    assert (p - p) == BivariatePoly.zero()


def test_trusted_constructor_goes_through_new():
    class Counted(BivariatePoly):
        __slots__ = ()
        built = 0

        def __new__(cls, *args, **kwargs):
            Counted.built += 1
            return super().__new__(cls)

    p = Counted._trusted({(1, 0): 4, (0, 2): -6}, 8)
    assert Counted.built == 1
    assert type(p) is Counted and p == poly({(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4)})
    # the common factor 2 of the denominator and every numerator is divided out
    assert (p._num, p._den) == ({(1, 0): 2, (0, 2): -3}, 4)
    assert (BivariatePoly._trusted({}, 9)._den, BivariatePoly._trusted({(0, 0): 5}, 5)._num) == (1, {(0, 0): 1})
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): 1})
    assert BivariatePoly({(0, 0): 0, (1, 0): 1}) == poly({(1, 0): 1})


def storage(p):
    return p._num, p._den, hash(p)


def test_equal_polynomials_have_equal_storage_whatever_the_route():
    n, k = 5, 12
    P = appell_sequence(n, k)[k]
    routes = {
        "fueter_sce_monomial": fueter_sce_monomial(n, k + n - 1),
        "+ and scalar *": P * 3 + P * -2,
        "scalar * and back": (P * Fraction(14, 9)) * Fraction(9, 14),
        "sum of halves": P * Fraction(1, 2) + Fraction(1, 2) * P,
    }
    lowered_a = poly({(i, j + 2): c / (j + 2) for (i, j), c in P.A.terms()})
    lowered_b = poly({(i, j + 2): c / (j + 1) for (i, j), c in P.B.terms()})
    x0_integral = poly({(i + 1, j): c / (i + 1) for (i, j), c in P.A.terms()})
    for part in ("A", "B"):
        want = getattr(P, part)
        assert math.gcd(want._den, *want._num.values()) == 1 and want._den > 1
        built = poly(dict(want.terms()))
        assert storage(built) == storage(want)
        for name, other in routes.items():
            assert storage(getattr(other, part)) == storage(want), (name, part)
    assert storage(radial_lower_even(lowered_a)) == storage(P.A)
    assert storage(radial_lower_odd(lowered_b)) == storage(P.B)
    first, _ = vekua_residual(AxialPolynomial(x0_integral, BivariatePoly.zero(), n))
    assert storage(first) == storage(P.A)
    # every zero has the same storage, however it came about
    zeros = [P.A - P.A, P.A * 0, vekua_residual(P)[0], BivariatePoly.zero(), poly({(1, 0): 0})]
    assert {(tuple(z._num.items()), z._den) for z in zeros} == {((), 1)}
