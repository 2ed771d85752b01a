"""The expanded-coordinates oracle against the axial machinery."""

import random
from fractions import Fraction

import pytest

from cliffex.appell import appell_polynomial
from cliffex.axial import AxialPolynomial, BivariatePoly, evaluate, vekua_residual
from cliffex.clifford import Multivector, Paravector
from cliffex.fueter import fueter_sce_monomial
from cliffex.polycheck import (
    CliffordPolynomial,
    cauchy_riemann_apply,
    from_axial,
    is_monogenic,
)

F = Fraction


def test_from_axial_degree_one_appell():
    P = from_axial(appell_polynomial(3, 1))
    assert P.coefficient((1, 0, 0, 0)) == Multivector.scalar(3, 1)
    for i in range(3):
        expo = [0, 0, 0, 0]
        expo[i + 1] = 1
        assert P.coefficient(tuple(expo)) == Multivector(3, {1 << i: F(1, 3)})


def test_from_axial_radius_squared():
    F2 = AxialPolynomial(BivariatePoly({(0, 2): 1}), BivariatePoly.zero(), 3)
    P = from_axial(F2)
    assert P.coefficient((0, 2, 0, 0)) == Multivector.scalar(3, 1)
    assert P.coefficient((0, 0, 2, 0)) == Multivector.scalar(3, 1)
    assert P.coefficient((0, 0, 0, 2)) == Multivector.scalar(3, 1)
    assert len(dict(P.terms())) == 3


def test_from_axial_constant():
    P = from_axial(AxialPolynomial(BivariatePoly({(0, 0): F(7)}), BivariatePoly.zero(), 3))
    assert P.coefficient((0, 0, 0, 0)) == Multivector.scalar(3, F(7))


def test_cauchy_riemann_on_coordinates():
    x0 = CliffordPolynomial(3, {(1, 0, 0, 0): Multivector.scalar(3, 1)})
    assert cauchy_riemann_apply(x0) == CliffordPolynomial(
        3, {(0, 0, 0, 0): Multivector.scalar(3, 1)}
    )
    x1 = CliffordPolynomial(3, {(0, 1, 0, 0): Multivector.scalar(3, 1)})
    assert cauchy_riemann_apply(x1) == CliffordPolynomial(
        3, {(0, 0, 0, 0): Multivector.basis_vector(3, 1)}
    )


def test_degree_one_appell_is_in_the_kernel():
    assert cauchy_riemann_apply(from_axial(appell_polynomial(3, 1))).is_zero
    assert is_monogenic(from_axial(appell_polynomial(5, 1)))


def test_is_monogenic_rejects_coefficients_that_are_not_rational():
    P = from_axial(appell_polynomial(3, 2))
    floats = CliffordPolynomial(
        3, {e: Multivector(3, {m: float(c) for m, c in mv.items()}) for e, mv in P.terms()}
    )
    one_float = CliffordPolynomial(3, {**dict(P.terms()), (0, 0, 0, 0): Multivector.scalar(3, 0.5)})
    for Q in (floats, one_float):
        with pytest.raises(TypeError, match="int or Fraction"):
            is_monogenic(Q)
    # the reference operator applies D to any coefficients; D kills the constant
    assert cauchy_riemann_apply(one_float).is_zero


def test_x0_alone_is_not_monogenic():
    x0 = CliffordPolynomial(3, {(1, 0, 0, 0): Multivector.scalar(3, 1)})
    assert not is_monogenic(x0)


def test_appell_polynomials_pass_the_full_operator():
    for n in (3, 5):
        for k in range(9):
            assert is_monogenic(from_axial(appell_polynomial(n, k))), (n, k)


def test_oracle_agrees_with_vekua_residual():
    # run both checks over appell and fueter outputs and over some
    # deliberately broken inputs; verdicts must coincide everywhere
    candidates = []
    for n in (3, 5):
        for k in range(7):
            candidates.append(appell_polynomial(n, k))
            candidates.append(fueter_sce_monomial(n, k + n - 1))
        candidates.append(
            AxialPolynomial(BivariatePoly({(1, 0): 1}), BivariatePoly({(0, 1): 1}), n)
        )
        candidates.append(
            AxialPolynomial(BivariatePoly({(2, 0): 1}), BivariatePoly.zero(), n)
        )
    for G in candidates:
        axial_verdict = all(part.is_zero for part in vekua_residual(G))
        assert is_monogenic(from_axial(G)) == axial_verdict


def test_expansion_matches_axial_evaluation_at_random_points():
    rng = random.Random(61)
    G = appell_polynomial(3, 4)
    P = from_axial(G)
    for _ in range(50):
        coords = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
        direct = P.evaluate(coords)
        via_axial = evaluate(G, Paravector(coords[0], coords[1:]))
        assert direct == via_axial


def test_clifford_polynomial_validation():
    with pytest.raises(ValueError):
        CliffordPolynomial(3, {(0, 0): Multivector.scalar(3, 1)})
    with pytest.raises(ValueError):
        CliffordPolynomial(3, {(0, 0, 0, -1): Multivector.scalar(3, 1)})
    with pytest.raises(ValueError):
        CliffordPolynomial(3, {(0, 0, 0, 0): Multivector.scalar(5, 1)})
